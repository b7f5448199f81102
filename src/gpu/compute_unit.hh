/**
 * @file
 * Compute Unit model (Section 2.1): executes resident wavefronts'
 * memory-instruction streams. Each instruction is coalesced, its pages
 * translated through the per-CU L1 TLB, and its line accesses dispatched
 * to the per-CU L1 vector cache at the CU's issue rate. Compute between
 * memory instructions is abstracted as a per-instruction delay; latency
 * hiding comes from interleaving the resident wavefronts.
 */

#ifndef NETCRAFTER_GPU_COMPUTE_UNIT_HH
#define NETCRAFTER_GPU_COMPUTE_UNIT_HH

#include <cstdint>
#include <functional>
#include <list>
#include <vector>

#include "src/gpu/coalescer.hh"
#include "src/mem/l1_cache.hh"
#include "src/sim/ring.hh"
#include "src/sim/sim_object.hh"
#include "src/vm/tlb.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::gpu {

/** A wavefront handed to a CU for execution. */
struct WaveDesc
{
    const workloads::Kernel *kernel = nullptr;
    std::uint32_t cta = 0;
    std::uint32_t wave = 0;

    /** Seed from which the wavefront's private rng stream derives. */
    std::uint64_t seed = 0;

    /**
     * Serving-request id + 1 when this wave is an open-loop request
     * (see serve/session.hh); 0 for ordinary closed-loop kernel waves.
     */
    std::uint64_t serveTag = 0;
};

/** Static configuration of one CU. */
struct CuParams
{
    mem::L1Params l1;
    vm::TlbParams l1Tlb;
    std::uint32_t issueWidth = 1;
    std::uint32_t maxResidentWaves = 8;

    /**
     * Event-driven issue-port stalls: instead of re-polling the L1
     * every cycle while its MSHR file is full, park the dispatch loop
     * and let the L1's unblock hook wake it. Set by the GPU system at
     * flow/hybrid fidelity, where the polling events would dominate
     * the fast path; cycle fidelity keeps the classic per-cycle retry
     * so its event stream stays bit-identical.
     */
    bool wakeOnL1Unblock = false;
};

/** Per-CU compute model. */
class ComputeUnit : public sim::SimObject
{
  public:
    /**
     * @param fill L1 miss path (to local L2 or remote GPU).
     * @param tlb_miss L1 TLB miss path (to the shared L2 TLB).
     * @param wave_done called whenever a resident wavefront retires
     *        (with that wave's descriptor), letting the dispatcher
     *        refill the slot and the serving layer close requests.
     */
    ComputeUnit(sim::Engine &engine, std::string name,
                const CuParams &params, mem::L1Cache::FillFn fill,
                vm::Tlb::MissHandler tlb_miss,
                std::function<void(const WaveDesc &)> wave_done);
    ~ComputeUnit() override;

    /** True when another wavefront can be made resident. */
    bool
    hasFreeSlot() const
    {
        return waves_.size() < params_.maxResidentWaves;
    }

    /** Number of currently resident wavefronts. */
    std::size_t residentWaves() const { return waves_.size(); }

    /** Begin executing @p desc; requires hasFreeSlot(). */
    void startWavefront(const WaveDesc &desc);

    /** Wavefront memory instructions executed. */
    std::uint64_t instructions() const { return instructions_; }

    const mem::L1Cache &l1() const { return l1_; }
    const vm::Tlb &l1Tlb() const { return l1Tlb_; }

  private:
    struct WaveState
    {
        WaveDesc desc;
        Pcg32 rng;
        std::uint32_t nextInstr = 0;

        /** Accesses of the in-flight instruction, grouped by state. */
        std::uint32_t pendingTranslations = 0;
        std::uint32_t pendingLines = 0;
        std::uint32_t computeDelay = 0;

        /**
         * The in-flight instruction's line accesses, grouped by page in
         * ascending page order. Reused by every instruction of the wave,
         * and stable while its translations are outstanding.
         */
        std::vector<CoalescedAccess> accesses;

        explicit WaveState(const WaveDesc &d)
            : desc(d), rng(d.seed, (static_cast<std::uint64_t>(d.cta)
                                    << 20) ^ d.wave)
        {
            accesses.reserve(kWavefrontSize);
        }

        /** Restart as a fresh wave for @p d, keeping buffer storage. */
        void
        reset(const WaveDesc &d)
        {
            desc = d;
            rng = Pcg32(d.seed,
                        (static_cast<std::uint64_t>(d.cta) << 20) ^ d.wave);
            nextInstr = 0;
            pendingTranslations = 0;
            pendingLines = 0;
            computeDelay = 0;
        }
    };

    /** One translated line access awaiting dispatch to the L1. */
    struct PendingLine
    {
        WaveState *wave = nullptr;
        CoalescedAccess access;
    };

    void startInstruction(WaveState *wave);
    static void sortByPage(std::vector<CoalescedAccess> &acc);
    void enqueueLines(WaveState *wave, std::uint32_t begin,
                      std::uint32_t end);
    void lineDone(WaveState *wave);
    void maybeFinishInstruction(WaveState *wave);
    void retireWave(WaveState *wave);
    void scheduleDispatch();
    void dispatchCycle();

    /** Offer the dispatch queue's head to the L1; pop it if accepted. */
    bool issueHead();

    CuParams params_;
    mem::L1Cache l1_;
    vm::Tlb l1Tlb_;
    std::function<void(const WaveDesc &)> waveDone_;

    std::list<WaveState> waves_;

    /** Retired wave nodes, reused by startWavefront(). */
    std::list<WaveState> spareWaves_;
    sim::Ring<PendingLine> dispatchQueue_;

    /** Queued exactly while a dispatch cycle is pending. */
    sim::MemberEvent<ComputeUnit, &ComputeUnit::dispatchCycle>
        dispatchEvent_{this};

    /**
     * Lines popped off dispatchQueue_ so far: the head is the same
     * element for as long as this does not change.
     */
    std::uint64_t dispatchPops_ = 0;

    /**
     * dispatchPops_ and the L1 state epoch when the L1 last refused
     * the head. While both still match, offering the head again would
     * be refused again, so dispatch only counts the refusal.
     */
    std::uint64_t refusedAtPop_ = ~std::uint64_t{0};
    std::uint64_t refusedEpoch_ = 0;

    /** Parked on a full L1 awaiting the unblock hook (wakeOnL1Unblock). */
    bool stalled_ = false;

    std::uint64_t instructions_ = 0;
};

} // namespace netcrafter::gpu

#endif // NETCRAFTER_GPU_COMPUTE_UNIT_HH
