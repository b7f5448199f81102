#include "src/noc/packet.hh"

#include <sstream>
#include <vector>

#include "src/sim/engine.hh"

namespace netcrafter::noc {

namespace {

// Ids are namespaced by source GPU: the high bits carry the source and
// the low bits a per-source sequence number. Every packet with source g
// is created while GPU g's shard engine dispatches (requests by the
// requesting chip, responses by the owning chip's L2 callback), so
// per-source counters make the id sequence identical whether a system
// runs on one engine or on several shards — which matters because RDMA
// reassembly and the outstanding-request tables key on it.
//
// The counters live in the dispatching Engine (one slot per source),
// not in thread-local storage: which host thread executes a shard
// depends on the executor-thread count, and an id sequence keyed by
// thread identity would fork. Engine ownership
// also makes per-system reset automatic — every MultiGpuSystem builds
// fresh engines. The thread_local vector remains only as a fallback for
// packets created outside any engine dispatch (tests, setup code); it
// is what resetPacketIds() clears.
inline constexpr std::uint64_t kIdStride = std::uint64_t{1} << 44;

thread_local std::vector<std::uint64_t> nextIdBySrc;

std::uint64_t
nextPacketId(GpuId src)
{
    const std::size_t slot =
        src == kGpuInvalid ? 0 : static_cast<std::size_t>(src) + 1;
    if (sim::Engine *engine = sim::Engine::current())
        return slot * kIdStride + engine->bumpScopedId(slot);
    if (slot >= nextIdBySrc.size())
        nextIdBySrc.resize(slot + 1, 0);
    return slot * kIdStride + ++nextIdBySrc[slot];
}

} // namespace

const char *
packetTypeName(PacketType type)
{
    switch (type) {
      case PacketType::ReadReq:
        return "ReadReq";
      case PacketType::WriteReq:
        return "WriteReq";
      case PacketType::PageTableReq:
        return "PTReq";
      case PacketType::ReadRsp:
        return "ReadRsp";
      case PacketType::WriteRsp:
        return "WriteRsp";
      case PacketType::PageTableRsp:
        return "PTRsp";
    }
    return "?";
}

std::string
Packet::toString() const
{
    std::ostringstream os;
    os << packetTypeName(type) << "#" << id << " " << src << "->" << dst
       << " addr=0x" << std::hex << addr << std::dec
       << " bytes=" << totalBytes();
    if (trimmed)
        os << " trimmed(sector=" << static_cast<int>(trimSector) << ")";
    return os.str();
}

PacketPtr
makePacket(PacketType type, GpuId src, GpuId dst, Addr addr)
{
    PacketPtr pkt = sim::ObjectPool<Packet>::local().allocate();
    pkt->id = nextPacketId(src);
    pkt->type = type;
    pkt->src = src;
    pkt->dst = dst;
    pkt->addr = addr;
    pkt->payloadBytes = defaultPayloadBytes(type);
    return pkt;
}

PacketPtr
clonePacket(const Packet &original)
{
    PacketPtr pkt = sim::ObjectPool<Packet>::local().allocate();
    // PoolRefCount's copy assignment leaves the refcount alone, so a
    // plain payload copy (id included) is safe on a fresh node.
    *pkt = original;
    return pkt;
}

void
resetPacketIds()
{
    nextIdBySrc.clear();
}

} // namespace netcrafter::noc
