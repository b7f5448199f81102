/**
 * @file
 * The assembled non-uniform bandwidth multi-GPU system (Figure 2): GPUs
 * (CUs + L1s + TLBs + GMMU + L2 + DRAM) on a hierarchical interconnect,
 * with unified virtual memory, LASP placement, and — when enabled — the
 * NetCrafter controllers inside the cluster switches.
 *
 * This is the library's main entry point: construct with a
 * SystemConfig, run() a Workload, then read the statistics accessors.
 *
 * Execution is optionally sharded: with shards > 1 the clusters are
 * partitioned round-robin onto shard engines (sim::shardOfCluster) and
 * advance in conservative barrier-synchronized quanta (see
 * sim/sharded_engine.hh). Everything a GPU owns — chip, RDMA endpoint,
 * outstanding-request table, statistics, priority RNG — lives on its
 * cluster's shard, so the only cross-shard interactions are the
 * latency-bearing inter-cluster wire channels. Results are bit-identical
 * for every shard count; the shard count is an execution detail, not
 * part of the configuration digest.
 */

#ifndef NETCRAFTER_GPU_SYSTEM_HH
#define NETCRAFTER_GPU_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/config/system_config.hh"
#include "src/flow/fidelity.hh"
#include "src/flow/fidelity_controller.hh"
#include "src/gpu/compute_unit.hh"
#include "src/mem/dram.hh"
#include "src/mem/l2_cache.hh"
#include "src/noc/network.hh"
#include "src/obs/trace.hh"
#include "src/sim/engine.hh"
#include "src/sim/sharded_engine.hh"
#include "src/stats/stats.hh"
#include "src/vm/gmmu.hh"
#include "src/vm/page_table.hh"
#include "src/vm/tlb.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::obs {
class TraceSink;
} // namespace netcrafter::obs

namespace netcrafter::gpu {

/** A complete multi-GPU system. */
class MultiGpuSystem : public workloads::PlacementDirectory
{
  public:
    /**
     * Build the system. @p shards > 1 partitions the clusters onto that
     * many engine shards; 0 means "caller did not think about it" and
     * runs serially, while a count exceeding numClusters is a
     * configuration error (it would leave shards with no components)
     * and aborts with a clear message. @p exec controls how host
     * threads drive the shards (thread count, work stealing) — an
     * execution detail. Simulation results are identical for every
     * shard count and every execution policy.
     *
     * @p fidelity selects the execution fidelity (src/flow/): Cycle is
     * the classic flit-level path and the default; Flow and Hybrid
     * fuse steady-state network round trips into single analytic
     * events and require shards == 1 (fatal otherwise). Fidelity is an
     * execution property like the shard count: it is not part of the
     * configuration digest, but results may differ slightly from
     * Cycle, so experiment caches key on it separately.
     *
     * @p sync selects the barrier protocol (sim::SyncPolicy): Strict
     * (the default) keeps conservative windows and bit-identity across
     * shard counts; Relaxed lets shards free-run up to the policy's
     * skew bound past the slowest shard, trading bounded timing
     * displacement on cross-shard arrivals for far fewer barrier
     * rendezvous. Like fidelity, it is an accuracy knob: not part of
     * the configuration digest, keyed separately by experiment caches,
     * and audited by tools/audit-skew.
     */
    explicit MultiGpuSystem(const config::SystemConfig &cfg,
                            unsigned shards = 1,
                            const obs::TraceOptions &trace = {},
                            const sim::ExecPolicy &exec = {},
                            flow::Fidelity fidelity =
                                flow::Fidelity::Cycle,
                            const sim::SyncPolicy &sync = {});
    ~MultiGpuSystem() override;

    /**
     * Execute @p workload to completion (all kernels, barrier between
     * them). @p scale multiplies problem sizes; @p max_cycles aborts a
     * hung simulation.
     */
    void run(workloads::Workload &workload, double scale = 1.0,
             Tick max_cycles = 2'000'000'000ull);

    /**
     * Like run(), but a kernel exceeding @p max_cycles returns the
     * non-Drained status instead of aborting the process. An aborted
     * simulation leaves events in flight; auditTeardown() can census
     * them (and tests do).
     */
    sim::RunStatus runFor(workloads::Workload &workload,
                          double scale = 1.0,
                          Tick max_cycles = 2'000'000'000ull);

    /**
     * Walk shard event queues and cross-shard ports and NC_PANIC on
     * anything still pending — the leak census run by tests and, when
     * NETCRAFTER_TEARDOWN_CENSUS is set, by the destructor. Only
     * meaningful after a run; a no-op for serial (1-shard) systems.
     */
    void auditTeardown() const { engine_.auditTeardown(); }

    /** Trace sink collecting this system's records (null if disabled). */
    obs::TraceSink *traceSink() const { return traceSink_.get(); }

    // PlacementDirectory -----------------------------------------------
    void place(Addr vaddr, GpuId owner) override;

    // Results ------------------------------------------------------------
    /** Total execution time in cycles. */
    Tick cycles() const { return engine_.now(); }

    /** Wavefront memory instructions executed, all GPUs. */
    std::uint64_t totalInstructions() const;

    /** Per-thread instructions (wavefront instructions x 64 lanes). */
    std::uint64_t
    threadInstructions() const
    {
        return totalInstructions() * kWavefrontSize;
    }

    std::uint64_t l1ReadAccesses() const;
    std::uint64_t l1ReadMisses() const;

    /** L1 accesses refused for lack of an MSHR/write slot (retried). */
    std::uint64_t l1Rejections() const;

    /** L1 read misses per kilo wavefront instruction (Figures 16/17). */
    double l1Mpki() const;

    /**
     * Latency of inter-cluster remote reads, cycles (Figures 5/15).
     * Tracked per requester GPU and merged in GPU order, so the value
     * is identical for every shard count.
     */
    stats::Average interClusterReadLatency() const;

    /**
     * Bytes-needed census of inter-cluster read requests, bucketed
     * <=16 / <=32 / <=48 / <64 / 64 (Figure 7).
     */
    stats::Distribution remoteReadBytesNeeded() const;

    const noc::Network &network() const { return *network_; }
    const vm::PageTable &pageTable() const { return pageTable_; }
    const config::SystemConfig &cfg() const { return cfg_; }

    /** Execution fidelity this system was built with. */
    flow::Fidelity fidelity() const { return fidelity_; }

    /** Flow-lane controller (nullptr at cycle fidelity). */
    const flow::FidelityController *flowController() const
    {
        return network_->flowController();
    }

    /** The sharded engine complex driving the system. */
    sim::ShardedEngine &engines() { return engine_; }
    const sim::ShardedEngine &engines() const { return engine_; }

    /** Shard 0's engine (the only shard when running serially). */
    sim::Engine &engine() { return engine_.shard(0); }

    /**
     * The engine of @p g's cluster's shard. Events that touch GPU
     * @p g's state (serve arrivals, for one) must be scheduled here so
     * sharded execution stays race-free and bit-identical.
     */
    sim::Engine &engineFor(GpuId g) { return engineOf(g); }

    // Serving -----------------------------------------------------------
    /**
     * Queue one serving-request wavefront on @p g. Must be called from
     * @p g's shard (an event on engineFor(g)) or outside a run; the
     * wave's serveTag must be non-zero so its retirement reaches the
     * retire hook.
     */
    void dispatchServeWave(GpuId g, const WaveDesc &desc);

    /**
     * Install @p hook, called as hook(gpu, desc) on the GPU's shard
     * whenever one of its wavefronts retires. The serving session uses
     * this to close requests; pass nullptr to remove.
     */
    void
    setWaveRetireHook(std::function<void(GpuId, const WaveDesc &)> hook)
    {
        waveRetireHook_ = std::move(hook);
    }

    /** Shards executing this system (1 = classic serial simulation). */
    unsigned numShards() const { return engine_.numShards(); }

    /** Aggregated GMMU walk count across GPUs. */
    std::uint64_t pageWalks() const;

    /** Mean PTE fetches per walk across GPUs. */
    double meanWalkLength() const;

    /** Remote (cross-GPU) read requests issued. */
    std::uint64_t remoteReads() const;

    /** Local L2-satisfied read requests. */
    std::uint64_t localReads() const;

    /** Requests still awaiting a response (0 after a completed run). */
    std::size_t outstandingRequests() const;

    /**
     * Export every statistic the system tracks into a Registry (names
     * are hierarchical, e.g. "gpu0.l1.readMisses"). Machine-readable
     * exporters and dumpStats both feed from this.
     */
    stats::Registry collectStats() const;

    /** collectStats() dumped in the flat text format. */
    void dumpStats(std::ostream &os) const;

  private:
    struct GpuChip
    {
        std::unique_ptr<mem::Dram> dram;
        std::unique_ptr<mem::L2Cache> l2;
        std::unique_ptr<vm::Tlb> l2Tlb;
        std::unique_ptr<vm::Gmmu> gmmu;
        std::vector<std::unique_ptr<ComputeUnit>> cus;
        std::deque<WaveDesc> pendingWaves;
    };

    /**
     * One request awaiting its response: either an L1 fill (data read
     * or write) or a page-walk PTE fetch.
     */
    struct Outstanding
    {
        /** Id of the request packet (checked against the response). */
        std::uint64_t reqId = 0;

        /** The L1 miss a ReadRsp/WriteRsp completes. */
        mem::FillRequest fill;

        /** The walk step a PageTableRsp resumes. */
        sim::SmallFn pteDone;

        /** Read issue tick, for the inter-cluster latency statistic. */
        Tick issuedAt = 0;
        bool interCluster = false;
    };

    /**
     * Requests awaiting responses, indexed by the slot id the request
     * packet carries and its response echoes back (Packet::reqSlot).
     * Freed slots are reused, so the table stops growing at the peak
     * number of outstanding requests.
     */
    struct OutstandingTable
    {
        std::vector<Outstanding> slots;
        std::vector<std::uint32_t> freeSlots;

        /** Requests still awaiting a response. */
        std::size_t
        live() const
        {
            return slots.size() - freeSlots.size();
        }

        /** Claim a slot for request @p req_id; returns its index. */
        std::uint32_t add(std::uint64_t req_id);

        /** Release slot @p slot, returning its entry. */
        Outstanding take(std::uint32_t slot, std::uint64_t req_id);
    };

    /**
     * Per-GPU bookkeeping that the GPU's shard thread owns exclusively:
     * the outstanding-request table (responses always return to the
     * requester's shard), remote-read statistics, and the priority RNG.
     * Partitioning this state per GPU — in serial mode too — is what
     * makes sharded execution both race-free and bit-identical.
     */
    struct GpuLocal
    {
        OutstandingTable outstanding;

        stats::Average interReadLatency;
        stats::Distribution remoteReadBytes{
            std::vector<double>{16, 32, 48, 63}};
        std::uint64_t remoteReads = 0;
        std::uint64_t localReads = 0;
        Pcg32 priorityRng;
        std::uint16_t traceLane = 0;
    };

    /** The engine of @p g's cluster's shard. */
    sim::Engine &engineOf(GpuId g)
    {
        return engine_.shard(sim::shardOfCluster(
            cfg_.clusterOf(g), engine_.numShards()));
    }
    const sim::Engine &engineOf(GpuId g) const
    {
        return engine_.shard(sim::shardOfCluster(
            cfg_.clusterOf(g), engine_.numShards()));
    }

    void buildChips();
    void markPriority(noc::Packet &pkt, GpuId requester);
    void handleRemoteRequest(GpuId owner, noc::PacketPtr req);
    void handleResponse(noc::PacketPtr rsp);

    /** Build the response packet answering @p req (owner side). */
    noc::PacketPtr buildResponse(GpuId owner, const noc::Packet &req);

    /**
     * Flow-lane fused round trip: request transit, analytic owner-side
     * L2 service, response transit, one completion event delivering to
     * handleResponse. The caller must have registered the request in
     * its outstanding table first. Returns false — leaving @p pkt
     * untouched — at cycle fidelity or when the request's lane is
     * escalated (Hybrid warmup / instability); the caller then uses
     * the flit path.
     */
    bool tryFusedRoundTrip(GpuId g, noc::PacketPtr &pkt);

    /**
     * Route a response built on the owner's side of an *escalated*
     * (flit-path) request back through the flow lane when its reverse
     * lane qualifies. Returns false — @p rsp untouched — when the
     * response must ride the flit path too.
     */
    bool trySendResponseOnFlowLane(noc::PacketPtr &rsp);
    void l1Fill(GpuId g, const mem::FillRequest &req);
    void fetchPte(GpuId g, const vm::WalkStep &step, sim::SmallFn done);
    mem::SectorMask fullL1Mask() const;
    mem::SectorMask maskForRange(std::uint32_t offset,
                                 std::uint32_t bytes) const;
    void dispatchKernel(const workloads::Kernel &kernel,
                        std::uint64_t kernel_seed);
    void refillCus(GpuId g);

    static unsigned validateShards(const config::SystemConfig &cfg,
                                   unsigned shards);

    config::SystemConfig cfg_;
    flow::Fidelity fidelity_ = flow::Fidelity::Cycle;

    /**
     * Declared before every component so it outlives them all; the
     * worker threads only join in its destructor, by which point all
     * pooled objects have drained back to their owning arenas.
     */
    sim::ShardedEngine engine_;

    /**
     * Owns the per-shard trace buffers the engines point at. Destroyed
     * before engine_, which is safe: worker threads only append inside
     * runWindow(), and no component traces from its destructor.
     */
    std::unique_ptr<obs::TraceSink> traceSink_;

    vm::PageTable pageTable_;
    std::unique_ptr<noc::Network> network_;
    std::vector<GpuChip> chips_;
    std::vector<GpuLocal> gpuLocal_;

    /**
     * Invoked (from the retiring GPU's shard) on every wavefront
     * retirement. Set once before a run and cleared after it, never
     * mutated while shards execute.
     */
    std::function<void(GpuId, const WaveDesc &)> waveRetireHook_;
};

} // namespace netcrafter::gpu

#endif // NETCRAFTER_GPU_SYSTEM_HH
