#include "src/mem/l1_cache.hh"

namespace netcrafter::mem {

L1Cache::L1Cache(sim::Engine &engine, std::string name,
                 const L1Params &params, FillFn below)
    : SimObject(engine, std::move(name)), params_(params),
      tags_(params.sizeBytes, params.assoc, kCacheLineBytes,
            params.sectorBytes),
      below_(std::move(below)), mshr_(params.mshrEntries)
{
    NC_ASSERT(below_ != nullptr, "L1 cache needs a fill path");
}

bool
L1Cache::access(Addr line, std::uint32_t offset, std::uint32_t bytes,
                bool is_write, Callback done)
{
    NC_ASSERT(line % kCacheLineBytes == 0, "unaligned line address");

    if (is_write) {
        // Write-through, no-allocate: forward below; the slot bounds
        // outstanding writes. The wavefront does not wait for the ack.
        if (mshr_.size() + outstandingWrites_ >= mshr_.capacity()) {
            ++rejections_;
            return false;
        }
        ++writeAccesses_;
        ++outstandingWrites_;
        ++stateEpoch_;
        if (tags_.present(line))
            tags_.touch(line); // data updated in place
        FillRequest req;
        req.line = line;
        req.offset = offset;
        req.bytes = bytes;
        req.isWrite = true;
        req.done = [this, done = std::move(done)](SectorMask) {
            NC_ASSERT(outstandingWrites_ > 0, "write ack underflow");
            --outstandingWrites_;
            ++stateEpoch_;
            if (onUnblock_)
                onUnblock_();
            if (done)
                done();
        };
        below_(std::move(req));
        return true;
    }

    ++readAccesses_;
    const SectorMask needed = tags_.sectorsForRange(offset, bytes);

    if (tags_.covers(line, needed)) {
        ++readHits_;
        tags_.touch(line);
        schedule(params_.lookupLatency, std::move(done));
        return true;
    }

    ++readMisses_;
    Waiter waiter{needed, offset, bytes, std::move(done)};
    if (mshr_.outstanding(line)) {
        mshr_.merge(line, std::move(waiter));
        ++stateEpoch_;
        return true;
    }
    if (mshr_.size() + outstandingWrites_ >= mshr_.capacity()) {
        --readAccesses_; // the access will be replayed by the CU
        --readMisses_;
        ++rejections_;
        return false;
    }
    mshr_.allocate(line, std::move(waiter));
    ++stateEpoch_;

    // The lookup pipeline ran before the miss went below. The
    // FillRequest is built inside the callback: capturing it by value
    // (it embeds a std::function) would overflow SmallFn's inline
    // buffer and put a heap allocation back on the miss path.
    schedule(params_.lookupLatency, [this, line, offset, bytes, needed] {
        FillRequest req;
        req.line = line;
        req.offset = offset;
        req.bytes = bytes;
        req.neededSectors = needed;
        req.isWrite = false;
        req.done = [this, line](SectorMask filled) {
            handleFill(line, filled);
        };
        below_(std::move(req));
    });
    return true;
}

void
L1Cache::handleFill(Addr line, SectorMask filled)
{
    NC_ASSERT(filled != 0, "fill delivered no sectors");
    tags_.fill(line, filled);
    auto waiters = mshr_.release(line);
    ++stateEpoch_;
    if (onUnblock_)
        onUnblock_();
    for (auto &w : waiters) {
        if (tags_.covers(line, w.needed)) {
            w.done();
        } else {
            // The fill (e.g. a trimmed sector for the primary miss) does
            // not cover this merged waiter: replay its access.
            retryAccess(line, w);
        }
    }
}

void
L1Cache::retryAccess(Addr line, const Waiter &waiter)
{
    // Replay next cycle; if the MSHR is full the retry loops until a
    // slot frees. Copy what we need from the waiter.
    auto offset = waiter.offset;
    auto bytes = waiter.bytes;
    auto done = waiter.done;
    schedule(1, [this, line, offset, bytes, done]() mutable {
        if (!access(line, offset, bytes, false, done)) {
            Waiter retry{0, offset, bytes, std::move(done)};
            retryAccess(line, retry);
        }
    });
}

} // namespace netcrafter::mem
