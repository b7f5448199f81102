/** @file Unit tests for the CU wavefront execution model. */

#include <gtest/gtest.h>

#include <deque>

#include "src/gpu/compute_unit.hh"
#include "src/sim/engine.hh"

namespace netcrafter::gpu {
namespace {

/** A kernel issuing N adjacent read instructions per wavefront. */
struct StubKernel : workloads::Kernel
{
    std::uint32_t instrs = 3;
    mutable std::uint64_t generated = 0;

    workloads::KernelInfo
    info() const override
    {
        return workloads::KernelInfo{4, 2, instrs};
    }

    bool
    generate(std::uint32_t cta, std::uint32_t wave, std::uint32_t idx,
             Pcg32 &, workloads::Instruction &out) const override
    {
        if (idx >= instrs)
            return false;
        ++generated;
        out = workloads::Instruction();
        out.elemBytes = 4;
        out.computeDelay = 2;
        const Addr base = 0x1'0000'0000ull +
                          (static_cast<Addr>(cta) * 8 + wave) * 4096 +
                          idx * 256;
        for (std::uint32_t lane = 0; lane < kWavefrontSize; ++lane)
            out.addrs[lane] = base + lane * 4;
        return true;
    }
};

struct CuFixture : ::testing::Test
{
    sim::Engine engine;
    CuParams params;
    std::deque<mem::FillRequest> fills;
    int waveRetirements = 0;

    std::unique_ptr<ComputeUnit>
    makeCu()
    {
        params.maxResidentWaves = 4;
        return std::make_unique<ComputeUnit>(
            engine, "cu", params,
            [this](mem::FillRequest req) {
                fills.push_back(std::move(req));
            },
            [](Addr, vm::Tlb::Callback done) {
                // Instant translation (the L1 TLB still adds latency).
                done(vm::Translation{0});
            },
            [this](const WaveDesc &) { ++waveRetirements; });
    }

    void
    answerAll()
    {
        while (!fills.empty()) {
            auto req = std::move(fills.front());
            fills.pop_front();
            req.done(mem::fullMask(1));
        }
    }
};

TEST_F(CuFixture, ExecutesAllInstructionsAndRetires)
{
    auto cu = makeCu();
    StubKernel kernel;
    cu->startWavefront(WaveDesc{&kernel, 0, 0, 1});
    EXPECT_EQ(cu->residentWaves(), 1u);

    for (int round = 0; round < 50 && waveRetirements == 0; ++round) {
        engine.run();
        answerAll();
    }
    engine.run();
    EXPECT_EQ(waveRetirements, 1);
    EXPECT_EQ(cu->residentWaves(), 0u);
    EXPECT_EQ(cu->instructions(), 3u);
}

TEST_F(CuFixture, SlotsLimitResidency)
{
    auto cu = makeCu();
    StubKernel kernel;
    for (std::uint32_t w = 0; w < 4; ++w)
        cu->startWavefront(WaveDesc{&kernel, 0, w, 1});
    EXPECT_FALSE(cu->hasFreeSlot());
    EXPECT_DEATH(cu->startWavefront(WaveDesc{&kernel, 1, 0, 1}),
                 "no free wavefront slot");
}

TEST_F(CuFixture, L1CachesRepeatAccesses)
{
    auto cu = makeCu();
    StubKernel kernel;
    kernel.instrs = 1;
    cu->startWavefront(WaveDesc{&kernel, 0, 0, 1});
    for (int round = 0; round < 50 && waveRetirements == 0; ++round) {
        engine.run();
        answerAll();
    }
    const std::uint64_t first_misses = cu->l1().readMisses();
    EXPECT_GT(first_misses, 0u);

    // The same wavefront's addresses again: all hits.
    waveRetirements = 0;
    cu->startWavefront(WaveDesc{&kernel, 0, 0, 1});
    for (int round = 0; round < 50 && waveRetirements == 0; ++round) {
        engine.run();
        answerAll();
    }
    EXPECT_EQ(cu->l1().readMisses(), first_misses);
    EXPECT_GT(cu->l1().readHits(), 0u);
}

TEST_F(CuFixture, StalledDispatchCountsEveryRefusalAndUnlinksOnExit)
{
    // One MSHR: the first line's miss holds it and the instruction's
    // other lines wait at the dispatch head, refused once per cycle.
    params.l1.mshrEntries = 1;
    auto cu = makeCu();
    StubKernel kernel;
    kernel.instrs = 1;
    cu->startWavefront(WaveDesc{&kernel, 0, 0, 1});
    engine.run(200);
    ASSERT_EQ(fills.size(), 1u);
    const std::uint64_t refused = cu->l1().rejections();
    EXPECT_GT(refused, 100u);

    // Most of these polls repeat a refusal the L1 state cannot have
    // changed; each still counts.
    engine.run(300);
    EXPECT_EQ(cu->l1().rejections(), refused + 100);

    // Freeing the MSHR lets the head through on the next poll; its
    // miss goes below after the L1 lookup latency.
    answerAll();
    engine.run(301);
    EXPECT_EQ(cu->l1().readMisses(), 2u);
    engine.run(330);
    EXPECT_EQ(fills.size(), 1u);

    // Destroying the CU with a dispatch still queued unlinks it.
    engine.run(400);
    const std::size_t pending = engine.pendingEvents();
    cu.reset();
    EXPECT_EQ(engine.pendingEvents(), pending - 1);
}

TEST_F(CuFixture, MultipleWavesInterleave)
{
    auto cu = makeCu();
    StubKernel kernel;
    for (std::uint32_t w = 0; w < 4; ++w)
        cu->startWavefront(WaveDesc{&kernel, 0, w, 1});
    for (int round = 0; round < 200 && waveRetirements < 4; ++round) {
        engine.run();
        answerAll();
    }
    engine.run();
    EXPECT_EQ(waveRetirements, 4);
    EXPECT_EQ(cu->instructions(), 12u);
}

TEST_F(CuFixture, FillRequestsCarrySpans)
{
    auto cu = makeCu();
    StubKernel kernel;
    kernel.instrs = 1;
    cu->startWavefront(WaveDesc{&kernel, 0, 0, 1});
    engine.run();
    ASSERT_FALSE(fills.empty());
    for (const auto &req : fills) {
        EXPECT_EQ(req.line % kCacheLineBytes, 0u);
        EXPECT_GT(req.bytes, 0u);
        EXPECT_FALSE(req.isWrite);
    }
}

} // namespace
} // namespace netcrafter::gpu
