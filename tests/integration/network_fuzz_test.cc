/**
 * @file
 * Randomized network fuzzing: thousands of random packets injected at
 * random endpoints under every mechanism combination must all be
 * delivered exactly once with their full byte counts, with no residual
 * state. Catches flow-control, stitching and reassembly corner cases
 * no directed test enumerates.
 */

#include <gtest/gtest.h>

#include <map>

#include "src/noc/network.hh"
#include "src/sim/engine.hh"
#include "src/sim/random.hh"

namespace netcrafter {
namespace {

struct FuzzCase
{
    const char *name;
    bool stitching;
    bool pooling;
    bool selective;
    bool trimming;
    config::SequencingMode sequencing;
    std::uint32_t flitBytes;
};

// Without this gtest prints the raw bytes of the struct, whose name
// pointer moves with address-space randomisation, so every listing
// would name the tests differently.
void
PrintTo(const FuzzCase &fc, std::ostream *os)
{
    *os << fc.name;
}

class NetworkFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(NetworkFuzz, AllPacketsDeliveredIntact)
{
    const FuzzCase &fc = GetParam();
    config::SystemConfig cfg = config::baselineConfig();
    cfg.flitBytes = fc.flitBytes;
    cfg.netcrafter.stitching = fc.stitching;
    cfg.netcrafter.flitPooling = fc.pooling;
    cfg.netcrafter.selectivePooling = fc.selective;
    cfg.netcrafter.trimming = fc.trimming;
    cfg.netcrafter.sequencing = fc.sequencing;
    if (fc.trimming)
        cfg.l1FillMode = config::L1FillMode::TrimInterCluster;

    sim::Engine engine;
    noc::Network net(engine, cfg);

    std::map<std::uint64_t, noc::PacketPtr> sent;
    std::map<std::uint64_t, int> delivered;
    for (GpuId g = 0; g < 4; ++g) {
        auto record = [&](noc::PacketPtr pkt) {
            ++delivered[pkt->id];
        };
        net.rdma(g).setRequestHandler(record);
        net.rdma(g).setResponseHandler(record);
    }

    Pcg32 rng(fc.flitBytes * 1000 + fc.stitching * 2 + fc.trimming);
    const noc::PacketType types[] = {
        noc::PacketType::ReadReq,      noc::PacketType::WriteReq,
        noc::PacketType::PageTableReq, noc::PacketType::ReadRsp,
        noc::PacketType::WriteRsp,     noc::PacketType::PageTableRsp,
    };

    const int kPackets = 2000;
    for (int i = 0; i < kPackets; ++i) {
        const GpuId src = rng.below(4);
        GpuId dst = rng.below(4);
        if (dst == src)
            dst = (dst + 1) % 4;
        auto pkt = noc::makePacket(types[rng.below(6)], src, dst,
                                   0x1'0000'0000ull + rng.below(1 << 20) * 64);
        pkt->latencyCritical = pkt->isPtw();
        if (pkt->type == noc::PacketType::ReadRsp && rng.chance(0.5)) {
            pkt->trimEligible = true;
            pkt->bytesNeeded = static_cast<std::uint8_t>(
                4 + 4 * rng.below(4));
            pkt->neededOffset =
                static_cast<std::uint8_t>(16 * rng.below(4));
        }
        sent[pkt->id] = pkt;
        net.sendPacket(pkt);
        // Occasionally let the network drain partially.
        if (rng.chance(0.05))
            engine.run(engine.now() + rng.below(500));
    }
    ASSERT_EQ(engine.run(50'000'000ull), sim::RunStatus::Drained)
        << "network failed to drain (deadlock?)";

    EXPECT_EQ(delivered.size(), sent.size());
    for (const auto &[id, count] : delivered)
        EXPECT_EQ(count, 1) << "packet " << id << " delivered " << count
                            << " times";
    for (const auto &[id, pkt] : sent)
        EXPECT_TRUE(delivered.count(id)) << pkt->toString();
}

INSTANTIATE_TEST_SUITE_P(
    Mechanisms, NetworkFuzz,
    ::testing::Values(
        FuzzCase{"plain16", false, false, false, false,
                 config::SequencingMode::Off, 16},
        FuzzCase{"stitch", true, false, false, false,
                 config::SequencingMode::Off, 16},
        FuzzCase{"stitch_pool", true, true, false, false,
                 config::SequencingMode::Off, 16},
        FuzzCase{"stitch_selpool", true, true, true, false,
                 config::SequencingMode::Off, 16},
        FuzzCase{"trim", false, false, false, true,
                 config::SequencingMode::Off, 16},
        FuzzCase{"seq", false, false, false, false,
                 config::SequencingMode::PrioritizePtw, 16},
        FuzzCase{"full", true, true, true, true,
                 config::SequencingMode::PrioritizePtw, 16},
        FuzzCase{"full8B", true, true, true, true,
                 config::SequencingMode::PrioritizePtw, 8}),
    [](const ::testing::TestParamInfo<FuzzCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace netcrafter
