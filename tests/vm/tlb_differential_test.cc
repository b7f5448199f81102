/**
 * @file
 * Differential test: the Tlb's contiguous vpn scan against the array of
 * 24-byte Way structs it replaced, kept here as the reference. Seeded
 * streams of hits, misses (answered by the miss handler) and direct
 * inserts must leave the same vpns resident, deliver the same
 * translations and evict in the same LRU order, on the L1 TLB (32
 * entries, fully associative), the L2 TLB (512 entries, 8 ways) and a
 * set count that is not a power of two.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/random.hh"
#include "src/vm/tlb.hh"

namespace netcrafter::vm {
namespace {

/** The former Tlb array: one Way struct per entry, scanned in order. */
class ReferenceTlbArray
{
  public:
    ReferenceTlbArray(std::uint32_t entries, std::uint32_t assoc)
        : assoc_(assoc), numSets_(entries / assoc), ways_(entries)
    {}

    /** The hit path of access(): the translation, touching LRU. */
    bool
    lookup(Addr vpn, Translation &out)
    {
        Way *way = findWay(vpn);
        if (way == nullptr)
            return false;
        way->lastUse = ++useClock_;
        out = way->t;
        return true;
    }

    bool contains(Addr vpn) { return findWay(vpn) != nullptr; }

    void
    insert(Addr vpn, Translation t)
    {
        ++useClock_;
        if (Way *way = findWay(vpn)) {
            way->t = t;
            way->lastUse = useClock_;
            return;
        }
        const std::size_t base =
            static_cast<std::size_t>(vpn % numSets_) * assoc_;
        Way *victim = &ways_[base];
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Way &way = ways_[base + w];
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lastUse < victim->lastUse)
                victim = &way;
        }
        victim->vpn = vpn;
        victim->t = t;
        victim->valid = true;
        victim->lastUse = useClock_;
    }

  private:
    struct Way
    {
        Addr vpn = kAddrInvalid;
        Translation t;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    Way *
    findWay(Addr vpn)
    {
        const std::size_t base =
            static_cast<std::size_t>(vpn % numSets_) * assoc_;
        for (std::uint32_t w = 0; w < assoc_; ++w) {
            Way &way = ways_[base + w];
            if (way.valid && way.vpn == vpn)
                return &way;
        }
        return nullptr;
    }

    std::uint32_t assoc_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;
};

struct TlbGeometry
{
    std::uint32_t entries;
    std::uint32_t assoc;
    const char *label;
};

void
PrintTo(const TlbGeometry &g, std::ostream *os)
{
    *os << g.label;
}

class TlbDifferential : public ::testing::TestWithParam<TlbGeometry>
{};

TEST_P(TlbDifferential, MatchesWayScanOnRandomStreams)
{
    const TlbGeometry &g = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        sim::Engine engine;
        TlbParams params;
        params.entries = g.entries;
        params.assoc = g.assoc;
        std::deque<std::pair<Addr, Tlb::Callback>> misses;
        Tlb tlb(engine, "tlb", params, [&](Addr vpn, Tlb::Callback done) {
            misses.emplace_back(vpn, std::move(done));
        });
        ReferenceTlbArray ref(g.entries, g.assoc);

        // Twice as many pages per set as ways, so sets overflow.
        const std::uint32_t sets = g.entries / g.assoc;
        const std::uint32_t pages = 2 * g.entries;
        Pcg32 rng(seed, 0x71b);
        for (int i = 0; i < 20000; ++i) {
            const Addr vpn = rng.below(pages);
            const Translation t{static_cast<GpuId>(rng.below(4))};
            if (rng.below(4) == 0) {
                tlb.insert(vpn, t);
                ref.insert(vpn, t);
            } else {
                GpuId got = 99;
                tlb.access(vpn, [&](Translation x) { got = x.owner; });
                engine.run();
                Translation want;
                if (ref.lookup(vpn, want)) {
                    ASSERT_TRUE(misses.empty()) << "op " << i;
                } else {
                    // Answer the miss: the Tlb installs it on return.
                    ASSERT_EQ(misses.size(), 1u) << "op " << i;
                    ASSERT_EQ(misses.front().first, vpn) << "op " << i;
                    Tlb::Callback done = std::move(misses.front().second);
                    misses.pop_front();
                    done(t);
                    engine.run();
                    ref.insert(vpn, t);
                    want = t;
                }
                ASSERT_EQ(got, want.owner) << "op " << i;
            }
            // Every page of the touched set agrees on residency.
            for (Addr p = vpn % sets; p < pages; p += sets)
                ASSERT_EQ(tlb.contains(p), ref.contains(p))
                    << "op " << i << " page " << p;
        }
        EXPECT_GT(tlb.hits(), 0u);
        EXPECT_GT(tlb.misses(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TlbDifferential,
    ::testing::Values(TlbGeometry{32, 32, "L1Tlb_fully_associative"},
                      TlbGeometry{512, 8, "L2Tlb_8way"},
                      TlbGeometry{48, 4, "Tlb_12sets"}),
    [](const ::testing::TestParamInfo<TlbGeometry> &info) {
        return std::string(info.param.label);
    });

} // namespace
} // namespace netcrafter::vm
