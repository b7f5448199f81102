/**
 * @file
 * Golden simulated counts: six short cycle-fidelity points (three Table
 * 3 apps x {baseline, full NetCrafter}, 2 clusters x 2 GPUs, seed 1,
 * scale 0.05) pinned to the exact event, cycle, cache, TLB and
 * inter-cluster counts the simulator produced before the memory
 * hierarchy moved to lazily materialized tag storage and the compute
 * units started skipping provably repeated L1 refusals. Host-speed
 * changes must leave every one of these numbers alone; a model change
 * that moves them has to re-record the table and say why.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "src/exp/figures.hh"
#include "src/gpu/system.hh"
#include "src/workloads/workload.hh"

namespace netcrafter {
namespace {

constexpr double kGoldenScale = 0.05;

struct GoldenPoint
{
    const char *app;
    bool full;
    std::uint64_t events;
    std::uint64_t cycles;
    std::uint64_t l1Reads;
    std::uint64_t l1Misses;
    std::uint64_t l1Rejections;
    std::uint64_t l2Hits;
    std::uint64_t l2Misses;
    std::uint64_t l2TlbMisses;
    std::uint64_t pageWalks;
    std::uint64_t interFlits;
    std::uint64_t interWireBytes;
};

// clang-format off
const GoldenPoint kGolden[] = {
    {"GUPS", false, 674786u, 28792u, 8555u, 8555u, 242504u, 946u, 18562u, 2029u, 2019u, 49294u, 788704u},
    {"GUPS", true, 535174u, 21604u, 8555u, 8555u, 161443u, 926u, 21321u, 2028u, 2019u, 32534u, 520544u},
    {"PR", false, 989124u, 37036u, 14693u, 14124u, 435418u, 6458u, 16895u, 1825u, 1711u, 63784u, 1020544u},
    {"PR", true, 1007192u, 28045u, 14819u, 14407u, 541042u, 6671u, 18219u, 1826u, 1711u, 39766u, 636256u},
    {"MM2", false, 231206u, 17058u, 6820u, 6103u, 38352u, 579u, 9319u, 1165u, 1137u, 21250u, 340000u},
    {"MM2", true, 184765u, 13379u, 6820u, 6102u, 31631u, 551u, 9518u, 1165u, 1137u, 11674u, 186784u},
};
// clang-format on

void
PrintTo(const GoldenPoint &p, std::ostream *os)
{
    *os << p.app << (p.full ? " full" : " baseline");
}

/** Sum of every counter whose name ends in @p suffix (all GPUs). */
std::uint64_t
sumSuffix(const stats::Registry &reg, const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, counter] : reg.counters()) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += counter.value();
    }
    return sum;
}

class GoldenCounts : public ::testing::TestWithParam<GoldenPoint>
{};

TEST_P(GoldenCounts, MatchRecordedCounts)
{
    const GoldenPoint &want = GetParam();
    config::SystemConfig cfg =
        want.full ? exp::fullNetcrafter() : config::baselineConfig();
    cfg.seed = 1;
    gpu::MultiGpuSystem system(cfg);
    auto wl = workloads::makeWorkload(want.app);
    system.run(*wl, kGoldenScale);
    const stats::Registry reg = system.collectStats();

    EXPECT_EQ(system.engine().eventsExecuted(), want.events);
    EXPECT_EQ(system.cycles(), want.cycles);
    EXPECT_EQ(system.l1ReadAccesses(), want.l1Reads);
    EXPECT_EQ(system.l1ReadMisses(), want.l1Misses);
    EXPECT_EQ(system.l1Rejections(), want.l1Rejections);
    EXPECT_EQ(sumSuffix(reg, ".l2.hits"), want.l2Hits);
    EXPECT_EQ(sumSuffix(reg, ".l2.misses"), want.l2Misses);
    EXPECT_EQ(sumSuffix(reg, ".l2tlb.misses"), want.l2TlbMisses);
    EXPECT_EQ(system.pageWalks(), want.pageWalks);
    EXPECT_EQ(system.network().interClusterFlits(), want.interFlits);
    EXPECT_EQ(system.network().interClusterWireBytes(),
              want.interWireBytes);
}

INSTANTIATE_TEST_SUITE_P(
    SeedOne, GoldenCounts, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenPoint> &info) {
        return std::string(info.param.app) +
               (info.param.full ? "_full" : "_base");
    });

} // namespace
} // namespace netcrafter
