/** @file Unit tests for the GMMU, page walk cache, and walkers. */

#include <gtest/gtest.h>

#include <deque>

#include "src/sim/engine.hh"
#include "src/vm/gmmu.hh"

namespace netcrafter::vm {
namespace {

struct GmmuFixture : ::testing::Test
{
    sim::Engine engine;
    GmmuParams params;
    PageTable pt{4};
    std::deque<std::pair<WalkStep, sim::SmallFn>> fetches;

    Gmmu::PteFetchFn
    fetcher()
    {
        return [this](const WalkStep &s, sim::SmallFn done) {
            fetches.emplace_back(s, std::move(done));
        };
    }

    void
    answerAll()
    {
        while (!fetches.empty()) {
            auto [step, done] = std::move(fetches.front());
            fetches.pop_front();
            done();
        }
    }
};

TEST_F(GmmuFixture, ColdWalkTakesFourFetches)
{
    Gmmu gmmu(engine, "gmmu", params, pt, fetcher());
    bool done = false;
    gmmu.walk(0x100000, [&](Translation) { done = true; });
    engine.run();
    int fetched = 0;
    while (!done && fetched < 10) {
        ASSERT_FALSE(fetches.empty());
        answerAll();
        engine.run();
        ++fetched;
    }
    EXPECT_TRUE(done);
    EXPECT_EQ(gmmu.pteFetches(), 4u);
    EXPECT_DOUBLE_EQ(gmmu.meanWalkLength(), 4.0);
}

TEST_F(GmmuFixture, PwcShortensRepeatWalks)
{
    Gmmu gmmu(engine, "gmmu", params, pt, fetcher());
    bool done = false;
    gmmu.walk(0x100000, [&](Translation) { done = true; });
    for (int i = 0; i < 10 && !done; ++i) {
        engine.run();
        answerAll();
    }
    engine.run();
    ASSERT_TRUE(done);

    // A neighbouring page in the same 2MB region: levels 1-3 hit the
    // PWC; only the leaf PTE must be fetched.
    const std::uint64_t before = gmmu.pteFetches();
    done = false;
    gmmu.walk(0x100001, [&](Translation) { done = true; });
    for (int i = 0; i < 10 && !done; ++i) {
        engine.run();
        answerAll();
    }
    engine.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(gmmu.pteFetches() - before, 1u);
}

TEST_F(GmmuFixture, ConcurrentWalksForSameVpnMerge)
{
    Gmmu gmmu(engine, "gmmu", params, pt, fetcher());
    int done = 0;
    for (int i = 0; i < 3; ++i)
        gmmu.walk(0x200000, [&](Translation) { ++done; });
    for (int i = 0; i < 10 && done < 3; ++i) {
        engine.run();
        answerAll();
    }
    engine.run();
    EXPECT_EQ(done, 3);
    EXPECT_EQ(gmmu.walksStarted(), 1u);
}

TEST_F(GmmuFixture, WalkerPoolBoundsParallelism)
{
    params.walkers = 2;
    Gmmu gmmu(engine, "gmmu", params, pt, fetcher());
    int done = 0;
    // Distinct regions: no PWC sharing.
    for (int i = 0; i < 5; ++i) {
        gmmu.walk((0x100ull + i) << 21 >> 12,
                  [&](Translation) { ++done; });
    }
    engine.run();
    // Only two walks active: at most two outstanding fetches.
    EXPECT_LE(fetches.size(), 2u);
    for (int i = 0; i < 40 && done < 5; ++i) {
        answerAll();
        engine.run();
    }
    EXPECT_EQ(done, 5);
}

TEST_F(GmmuFixture, TranslationReturnsDataOwner)
{
    pt.place(0x1'0000'0000ull, 3);
    Gmmu gmmu(engine, "gmmu", params, pt, fetcher());
    GpuId owner = 99;
    gmmu.walk(0x1'0000'0000ull / kPageBytes,
              [&](Translation t) { owner = t.owner; });
    for (int i = 0; i < 10 && owner == 99; ++i) {
        engine.run();
        answerAll();
    }
    engine.run();
    EXPECT_EQ(owner, 3u);
}

TEST(PageWalkCache, LruEvictsOldEntries)
{
    PageWalkCache pwc(2);
    pwc.insert(3, 0x1ull << 21);
    pwc.insert(3, 0x2ull << 21);
    EXPECT_EQ(pwc.deepestMatch(0x1ull << 21), 3);
    // Insert a third: evicts the LRU (0x2 region, since 0x1 was just
    // touched by the lookup above).
    pwc.insert(3, 0x3ull << 21);
    EXPECT_EQ(pwc.deepestMatch(0x2ull << 21), 0);
    EXPECT_EQ(pwc.deepestMatch(0x1ull << 21), 3);
}

TEST(PageWalkCache, DeepestMatchPrefersLowerLevels)
{
    PageWalkCache pwc(8);
    const Addr va = 0x1'2345'6000ull;
    pwc.insert(1, va);
    EXPECT_EQ(pwc.deepestMatch(va), 1);
    pwc.insert(2, va);
    EXPECT_EQ(pwc.deepestMatch(va), 2);
    pwc.insert(3, va);
    EXPECT_EQ(pwc.deepestMatch(va), 3);
}

} // namespace
} // namespace netcrafter::vm
