#include "src/gpu/compute_unit.hh"

#include "src/sim/logging.hh"

namespace netcrafter::gpu {

ComputeUnit::ComputeUnit(sim::Engine &engine, std::string name,
                         const CuParams &params,
                         mem::L1Cache::FillFn fill,
                         vm::Tlb::MissHandler tlb_miss,
                         std::function<void(const WaveDesc &)> wave_done)
    : SimObject(engine, std::move(name)), params_(params),
      waveDone_(std::move(wave_done))
{
    l1_ = std::make_unique<mem::L1Cache>(engine, this->name() + ".l1",
                                         params_.l1, std::move(fill));
    l1Tlb_ = std::make_unique<vm::Tlb>(engine, this->name() + ".l1tlb",
                                       params_.l1Tlb,
                                       std::move(tlb_miss));
    if (params_.wakeOnL1Unblock) {
        l1_->setUnblockHook([this] {
            if (stalled_) {
                stalled_ = false;
                scheduleDispatch();
            }
        });
    }
}

ComputeUnit::~ComputeUnit()
{
    // A run aborted at its cycle limit can leave a dispatch pending;
    // the engine outlives this CU and must not keep a dangling event.
    if (dispatchEvent_.scheduled())
        engine().deschedule(dispatchEvent_);
}

void
ComputeUnit::startWavefront(const WaveDesc &desc)
{
    NC_ASSERT(hasFreeSlot(), name(), ": no free wavefront slot");
    NC_ASSERT(desc.kernel != nullptr, "wavefront without kernel");
    if (spareWaves_.empty()) {
        waves_.emplace_back(desc);
    } else {
        // Recycle a retired wave's node and access buffers.
        waves_.splice(waves_.end(), spareWaves_, spareWaves_.begin());
        waves_.back().reset(desc);
    }
    WaveState *wave = &waves_.back();
    // Stagger wavefront starts slightly so they do not lockstep.
    schedule(1 + (waves_.size() % 4), [this, wave] {
        startInstruction(wave);
    });
}

void
ComputeUnit::startInstruction(WaveState *wave)
{
    workloads::Instruction instr;
    const bool has = wave->desc.kernel->generate(
        wave->desc.cta, wave->desc.wave, wave->nextInstr, wave->rng,
        instr);
    if (!has) {
        retireWave(wave);
        return;
    }
    ++wave->nextInstr;
    ++instructions_;

    coalesce(instr, wave->accesses);
    if (wave->accesses.empty()) {
        // A pure-compute step: just burn the delay.
        schedule(std::max<Tick>(1, instr.computeDelay),
                 [this, wave] { startInstruction(wave); });
        return;
    }

    wave->computeDelay = instr.computeDelay;
    wave->pendingLines = static_cast<std::uint32_t>(wave->accesses.size());

    // Each distinct page needs one translation before its lines can be
    // dispatched; pages translate in ascending page order.
    sortByPage(wave->accesses);
    const auto &acc = wave->accesses;
    std::uint32_t end = 0;
    for (std::uint32_t begin = 0; begin < acc.size(); begin = end) {
        const Addr vpn = acc[begin].line / kPageBytes;
        end = begin + 1;
        while (end < acc.size() && acc[end].line / kPageBytes == vpn)
            ++end;
        ++wave->pendingTranslations;
        l1Tlb_->access(vpn, [this, wave, begin, end](vm::Translation) {
            NC_ASSERT(wave->pendingTranslations > 0,
                      "translation underflow");
            --wave->pendingTranslations;
            enqueueLines(wave, begin, end);
        });
    }
}

void
ComputeUnit::sortByPage(std::vector<CoalescedAccess> &acc)
{
    // Stable insertion sort: at most kWavefrontSize accesses, each page
    // keeps its coalesced order, and unlike std::stable_sort nothing is
    // allocated.
    for (std::size_t i = 1; i < acc.size(); ++i) {
        const CoalescedAccess a = acc[i];
        std::size_t j = i;
        for (; j > 0 && acc[j - 1].line / kPageBytes > a.line / kPageBytes;
             --j)
            acc[j] = acc[j - 1];
        acc[j] = a;
    }
}

void
ComputeUnit::enqueueLines(WaveState *wave, std::uint32_t begin,
                          std::uint32_t end)
{
    for (std::uint32_t i = begin; i < end; ++i)
        dispatchQueue_.push_back(PendingLine{wave, wave->accesses[i]});
    scheduleDispatch();
}

void
ComputeUnit::scheduleDispatch()
{
    if (dispatchEvent_.scheduled() || dispatchQueue_.empty())
        return;
    engine().schedule(dispatchEvent_, 1);
}

void
ComputeUnit::dispatchCycle()
{
    std::uint32_t issued = 0;
    while (issued < params_.issueWidth && !dispatchQueue_.empty()) {
        PendingLine &pl = dispatchQueue_.front();
        WaveState *wave = pl.wave;
        const CoalescedAccess a = pl.access;
        bool accepted;
        if (dispatchPops_ == refusedAtPop_ &&
            l1_->stateEpoch() == refusedEpoch_) {
            // Same head, same L1 state: the L1 would refuse it again.
            l1_->countRepeatedRejection();
            accepted = false;
        } else if (a.isWrite) {
            accepted = l1_->access(a.line, a.offset, a.bytes, true,
                                   nullptr);
            if (accepted) {
                // Writes complete for the wavefront at acceptance; the
                // write-through ack only recycles the tracking slot.
                dispatchQueue_.pop_front();
                ++dispatchPops_;
                ++issued;
                lineDone(wave);
            }
        } else {
            accepted = l1_->access(a.line, a.offset, a.bytes, false,
                                   [this, wave] { lineDone(wave); });
            if (accepted) {
                dispatchQueue_.pop_front();
                ++dispatchPops_;
                ++issued;
            }
        }
        if (!accepted) {
            refusedAtPop_ = dispatchPops_;
            refusedEpoch_ = l1_->stateEpoch();
            if (params_.wakeOnL1Unblock) {
                stalled_ = true;
                return; // woken by the L1 unblock hook
            }
            break; // L1 MSHRs full: stall the issue port this cycle
        }
    }
    scheduleDispatch();
}

void
ComputeUnit::lineDone(WaveState *wave)
{
    NC_ASSERT(wave->pendingLines > 0, "line completion underflow");
    --wave->pendingLines;
    maybeFinishInstruction(wave);
}

void
ComputeUnit::maybeFinishInstruction(WaveState *wave)
{
    if (wave->pendingLines != 0 || wave->pendingTranslations != 0)
        return;
    schedule(std::max<Tick>(1, wave->computeDelay),
             [this, wave] { startInstruction(wave); });
}

void
ComputeUnit::retireWave(WaveState *wave)
{
    for (auto it = waves_.begin(); it != waves_.end(); ++it) {
        if (&*it == wave) {
            // Copy out the descriptor before recycling the node: the
            // callback needs it (serve retirement) and may start a new
            // wave in the same node.
            const WaveDesc desc = it->desc;
            spareWaves_.splice(spareWaves_.begin(), waves_, it);
            if (waveDone_)
                waveDone_(desc);
            return;
        }
    }
    NC_PANIC(name(), ": retired wavefront not resident");
}

} // namespace netcrafter::gpu
