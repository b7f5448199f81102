#include "src/gpu/compute_unit.hh"

#include <map>

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
    waves_.emplace_back(desc);
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

    auto accesses = coalesce(instr);
    if (accesses.empty()) {
        // A pure-compute step: just burn the delay.
        schedule(std::max<Tick>(1, instr.computeDelay),
                 [this, wave] { startInstruction(wave); });
        return;
    }

    wave->computeDelay = instr.computeDelay;
    wave->pendingLines = static_cast<std::uint32_t>(accesses.size());

    // Group the accesses by virtual page; each distinct page needs one
    // translation before its lines can be dispatched.
    std::map<Addr, std::vector<CoalescedAccess>> by_page;
    for (const auto &a : accesses)
        by_page[a.line / kPageBytes].push_back(a);

    wave->pendingTranslations =
        static_cast<std::uint32_t>(by_page.size());
    for (auto &[vpn, page_accesses] : by_page)
        issueTranslation(wave, vpn, std::move(page_accesses));
}

void
ComputeUnit::issueTranslation(WaveState *wave, Addr vpn,
                              std::vector<CoalescedAccess> accesses)
{
    l1Tlb_->access(vpn, [this, wave, accesses = std::move(accesses)](
                            vm::Translation) {
        NC_ASSERT(wave->pendingTranslations > 0,
                  "translation underflow");
        --wave->pendingTranslations;
        enqueueLines(wave, accesses);
    });
}

void
ComputeUnit::enqueueLines(WaveState *wave,
                          const std::vector<CoalescedAccess> &accesses)
{
    for (const auto &a : accesses)
        dispatchQueue_.push_back(PendingLine{wave, a});
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
            // Copy out the descriptor before erasing: the callback
            // needs it (serve retirement) and the state dies here.
            const WaveDesc desc = it->desc;
            waves_.erase(it);
            if (waveDone_)
                waveDone_(desc);
            return;
        }
    }
    NC_PANIC(name(), ": retired wavefront not resident");
}

} // namespace netcrafter::gpu
