#include "src/noc/flit.hh"

#include "src/sim/logging.hh"

namespace netcrafter::noc {

FlitPtr
makeFlit()
{
    return sim::ObjectPool<Flit>::local().allocate();
}

FlitPtr
makeFlit(const Flit &other)
{
    FlitPtr flit = sim::ObjectPool<Flit>::local().allocate();
    *flit = other;
    return flit;
}

std::vector<FlitPtr>
segmentPacket(const PacketPtr &pkt, std::uint32_t flit_bytes)
{
    std::vector<FlitPtr> flits;
    segmentPacket(pkt, flit_bytes, flits);
    return flits;
}

void
segmentPacket(const PacketPtr &pkt, std::uint32_t flit_bytes,
              std::vector<FlitPtr> &flits)
{
    NC_ASSERT(flit_bytes > 0, "flit size must be positive");
    const std::uint32_t total = pkt->totalBytes();
    const std::uint32_t n = flitsForBytes(total, flit_bytes);

    flits.clear();
    flits.reserve(n);
    std::uint32_t remaining = total;
    for (std::uint32_t i = 0; i < n; ++i) {
        FlitPtr flit = makeFlit();
        flit->pkt = pkt;
        flit->seq = i;
        flit->numFlits = n;
        flit->capacity = static_cast<std::uint16_t>(flit_bytes);
        flit->occupiedBytes = static_cast<std::uint16_t>(
            remaining >= flit_bytes ? flit_bytes : remaining);
        remaining -= flit->occupiedBytes;
        flits.push_back(std::move(flit));
    }
    NC_ASSERT(remaining == 0, "segmentation lost bytes");
}

} // namespace netcrafter::noc
