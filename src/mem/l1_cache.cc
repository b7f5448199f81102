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
    if (!is_write)
        return accessRead(line, offset, bytes, done);

    // Write-through, no-allocate: forward below; the slot bounds
    // outstanding writes. The wavefront does not wait for the ack.
    NC_ASSERT(!done, "writes complete at acceptance and take no callback");
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
    req.l1 = this;
    below_(req);
    return true;
}

bool
L1Cache::accessRead(Addr line, std::uint32_t offset, std::uint32_t bytes,
                    Callback &done)
{
    ++readAccesses_;
    const SectorMask needed = tags_.sectorsForRange(offset, bytes);

    if (tags_.covers(line, needed)) {
        ++readHits_;
        tags_.touch(line);
        schedule(params_.lookupLatency, std::move(done));
        return true;
    }

    ++readMisses_;
    if (mshr_.outstanding(line)) {
        mshr_.merge(line, Waiter{needed, offset, bytes, std::move(done)});
        ++stateEpoch_;
        return true;
    }
    if (mshr_.size() + outstandingWrites_ >= mshr_.capacity()) {
        --readAccesses_; // the access will be replayed by the CU
        --readMisses_;
        ++rejections_;
        return false;
    }
    mshr_.allocate(line, Waiter{needed, offset, bytes, std::move(done)});
    ++stateEpoch_;

    // The lookup pipeline ran before the miss went below.
    schedule(params_.lookupLatency, [this, line, offset, bytes, needed] {
        FillRequest req;
        req.line = line;
        req.offset = offset;
        req.bytes = bytes;
        req.neededSectors = needed;
        req.isWrite = false;
        req.l1 = this;
        below_(req);
    });
    return true;
}

void
L1Cache::completeFill(const FillRequest &req, SectorMask filled)
{
    NC_ASSERT(req.l1 == this, "fill completed into the wrong L1");
    if (!req.isWrite) {
        handleFill(req.line, filled);
        return;
    }
    NC_ASSERT(outstandingWrites_ > 0, "write ack underflow");
    --outstandingWrites_;
    ++stateEpoch_;
    if (onUnblock_)
        onUnblock_();
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
            retryAccess(line, w.offset, w.bytes, std::move(w.done));
        }
    }
    mshr_.recycle(std::move(waiters));
}

void
L1Cache::retryAccess(Addr line, std::uint32_t offset, std::uint32_t bytes,
                     Callback done)
{
    // Replay next cycle; if the MSHR is full the retry loops until a
    // slot frees.
    retries_.push_back(Retry{line, offset, bytes, std::move(done)});
    schedule(1, [this] { retryNext(); });
}

void
L1Cache::retryNext()
{
    Retry retry = std::move(retries_.front());
    retries_.pop_front();
    if (!accessRead(retry.line, retry.offset, retry.bytes, retry.done))
        retryAccess(retry.line, retry.offset, retry.bytes,
                    std::move(retry.done));
}

} // namespace netcrafter::mem
