/** @file Tests for system configuration presets and validation. */

#include <gtest/gtest.h>

#include "src/config/config_io.hh"
#include "src/config/system_config.hh"

namespace netcrafter::config {
namespace {

TEST(SystemConfig, Table2Defaults)
{
    SystemConfig cfg = baselineConfig();
    EXPECT_EQ(cfg.numGpus(), 4u);
    EXPECT_EQ(cfg.cusPerGpu, 64u);
    EXPECT_DOUBLE_EQ(cfg.intraClusterGBps, 128.0);
    EXPECT_DOUBLE_EQ(cfg.interClusterGBps, 16.0);
    EXPECT_EQ(cfg.flitBytes, 16u);
    EXPECT_EQ(cfg.switchLatency, 30u);
    EXPECT_EQ(cfg.switchBufferEntries, 1024u);
    EXPECT_EQ(cfg.l1Bytes, 64u * 1024);
    EXPECT_EQ(cfg.l1Latency, 20u);
    EXPECT_EQ(cfg.l1MshrEntries, 32u);
    EXPECT_EQ(cfg.l2BytesPerGpu, 4ull * 1024 * 1024);
    EXPECT_EQ(cfg.l2Banks, 16u);
    EXPECT_EQ(cfg.l2Latency, 100u);
    EXPECT_EQ(cfg.l1TlbEntries, 32u);
    EXPECT_EQ(cfg.l2TlbEntries, 512u);
    EXPECT_EQ(cfg.pageWalkers, 16u);
    EXPECT_EQ(cfg.pwcEntries, 32u);
    EXPECT_EQ(cfg.netcrafter.clusterQueueEntries, 1024u);
    EXPECT_FALSE(cfg.netcrafter.anyEnabled());
    cfg.validate(); // must not die
}

TEST(SystemConfig, ClusterMapping)
{
    SystemConfig cfg = baselineConfig();
    EXPECT_EQ(cfg.clusterOf(0), 0u);
    EXPECT_EQ(cfg.clusterOf(1), 0u);
    EXPECT_EQ(cfg.clusterOf(2), 1u);
    EXPECT_EQ(cfg.clusterOf(3), 1u);
}

TEST(SystemConfig, BandwidthToFlitsPerCycle)
{
    SystemConfig cfg = baselineConfig();
    // 16 GB/s at 1 GHz with 16B flits = 1 flit/cycle.
    EXPECT_EQ(cfg.interFlitsPerCycle(), 1u);
    EXPECT_EQ(cfg.intraFlitsPerCycle(), 8u);
    cfg.flitBytes = 8;
    EXPECT_EQ(cfg.interFlitsPerCycle(), 2u);
    EXPECT_EQ(cfg.intraFlitsPerCycle(), 16u);
    // Sub-flit bandwidth clamps to 1.
    cfg.flitBytes = 16;
    cfg.interClusterGBps = 4;
    EXPECT_EQ(cfg.interFlitsPerCycle(), 1u);
}

TEST(SystemConfig, IdealPreset)
{
    SystemConfig cfg = idealConfig();
    EXPECT_DOUBLE_EQ(cfg.interClusterGBps, cfg.intraClusterGBps);
    EXPECT_FALSE(cfg.netcrafter.anyEnabled());
}

TEST(SystemConfig, NetcrafterPresetEnablesEverything)
{
    SystemConfig cfg = netcrafterConfig();
    EXPECT_TRUE(cfg.netcrafter.stitching);
    EXPECT_TRUE(cfg.netcrafter.flitPooling);
    EXPECT_TRUE(cfg.netcrafter.selectivePooling);
    EXPECT_EQ(cfg.netcrafter.poolingWindow, 32u);
    EXPECT_TRUE(cfg.netcrafter.trimming);
    EXPECT_EQ(cfg.netcrafter.sequencing, SequencingMode::PrioritizePtw);
    EXPECT_EQ(cfg.l1FillMode, L1FillMode::TrimInterCluster);
    EXPECT_TRUE(cfg.netcrafter.anyEnabled());
    cfg.validate();
}

TEST(SystemConfig, StitchingPreset)
{
    SystemConfig cfg = stitchingConfig(true, true, 64);
    EXPECT_TRUE(cfg.netcrafter.stitching);
    EXPECT_TRUE(cfg.netcrafter.flitPooling);
    EXPECT_TRUE(cfg.netcrafter.selectivePooling);
    EXPECT_EQ(cfg.netcrafter.poolingWindow, 64u);
    EXPECT_FALSE(cfg.netcrafter.trimming);
    cfg.validate();

    SystemConfig no_pool = stitchingConfig(false);
    EXPECT_FALSE(no_pool.netcrafter.flitPooling);
    no_pool.validate();
}

TEST(SystemConfig, SectorCachePreset)
{
    SystemConfig cfg = sectorCacheConfig(16);
    EXPECT_EQ(cfg.l1FillMode, L1FillMode::SectorAlways);
    EXPECT_FALSE(cfg.netcrafter.anyEnabled());
    cfg.validate();
}

TEST(SystemConfigDeath, InvalidFlitSize)
{
    SystemConfig cfg = baselineConfig();
    cfg.flitBytes = 12;
    EXPECT_DEATH(cfg.validate(), "flit size");
}

TEST(SystemConfigDeath, PoolingWithoutStitching)
{
    SystemConfig cfg = baselineConfig();
    cfg.netcrafter.flitPooling = true;
    EXPECT_DEATH(cfg.validate(), "pooling");
}

TEST(SystemConfigDeath, TrimFillModeWithoutTrimming)
{
    SystemConfig cfg = baselineConfig();
    cfg.l1FillMode = L1FillMode::TrimInterCluster;
    EXPECT_DEATH(cfg.validate(), "TrimInterCluster");
}

TEST(SystemConfigDeath, BadTrimGranularity)
{
    SystemConfig cfg = baselineConfig();
    cfg.netcrafter.trimGranularity = 24;
    EXPECT_DEATH(cfg.validate(), "granularity");
}

TEST(SystemConfigDeath, L1SizeNotWholeSets)
{
    SystemConfig cfg = baselineConfig();
    cfg.l1Bytes = 64 * 1024 + 64; // 1025 lines over 4 ways
    EXPECT_DEATH(cfg.validate(), "l1.bytes 65600 is not a multiple");
}

TEST(SystemConfigDeath, L2SizeNotWholeSets)
{
    SystemConfig cfg = baselineConfig();
    cfg.l2BytesPerGpu = 3 * 1024 * 1024 + 512; // 8 lines, not 16 ways
    EXPECT_DEATH(cfg.validate(), "l2.bytes .* is not a multiple");
}

TEST(SystemConfigDeath, L2TlbEntriesNotWholeSets)
{
    SystemConfig cfg = baselineConfig();
    cfg.l2TlbEntries = 500; // 8 ways
    EXPECT_DEATH(cfg.validate(), "l2tlb.entries 500 is not a multiple");
}

TEST(SystemConfigDeath, ZeroCacheSize)
{
    SystemConfig cfg = baselineConfig();
    cfg.l1Bytes = 0;
    EXPECT_DEATH(cfg.validate(), "cache sizes must be positive");
    cfg = baselineConfig();
    cfg.l2BytesPerGpu = 0;
    EXPECT_DEATH(cfg.validate(), "cache sizes must be positive");
}

TEST(SystemConfigDeath, ZeroTlbSize)
{
    SystemConfig cfg = baselineConfig();
    cfg.l1TlbEntries = 0;
    EXPECT_DEATH(cfg.validate(), "TLB entries and ways must be positive");
    cfg = baselineConfig();
    cfg.l2TlbEntries = 0;
    EXPECT_DEATH(cfg.validate(), "TLB entries and ways must be positive");
    cfg = baselineConfig();
    cfg.l2TlbAssoc = 0;
    EXPECT_DEATH(cfg.validate(), "TLB entries and ways must be positive");
}

TEST(SystemConfigDeath, AssociativityAboveThirtyTwo)
{
    SystemConfig cfg = baselineConfig();
    cfg.l2Assoc = 64;
    EXPECT_DEATH(cfg.validate(), "above 32 ways");
}

TEST(ConfigDigest, EqualConfigsShareADigest)
{
    EXPECT_EQ(baselineConfig().digest(), baselineConfig().digest());
    EXPECT_EQ(netcrafterConfig().digest(), netcrafterConfig().digest());

    SystemConfig copy = baselineConfig();
    EXPECT_EQ(copy.digest(), baselineConfig().digest());
}

TEST(ConfigDigest, AnyFieldChangeChangesTheDigest)
{
    const std::uint64_t base = baselineConfig().digest();

    SystemConfig cfg = baselineConfig();
    cfg.interClusterGBps = 32.0;
    EXPECT_NE(cfg.digest(), base);

    cfg = baselineConfig();
    cfg.netcrafter.stitching = true;
    EXPECT_NE(cfg.digest(), base);

    cfg = baselineConfig();
    cfg.seed = 2;
    EXPECT_NE(cfg.digest(), base);

    cfg = baselineConfig();
    cfg.l1FillMode = L1FillMode::SectorAlways;
    EXPECT_NE(cfg.digest(), base);
}

TEST(ConfigDigest, DistinctPresetsAreDistinct)
{
    EXPECT_NE(baselineConfig().digest(), idealConfig().digest());
    EXPECT_NE(baselineConfig().digest(), netcrafterConfig().digest());
    EXPECT_NE(idealConfig().digest(), netcrafterConfig().digest());
}

TEST(ConfigDigest, HexFormIsFixedWidth)
{
    const std::string hex = digestHex(baselineConfig());
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(hex.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    // Small values zero-pad rather than shrink.
    EXPECT_EQ(digestHex(std::uint64_t{0x5}), "0000000000000005");
    EXPECT_EQ(digestHex(std::uint64_t{0}), "0000000000000000");
}

TEST(ConfigDigest, SurvivesSerializationRoundTrip)
{
    // digest() hashes the serialized form, so a parse round-trip must
    // preserve it.
    const SystemConfig cfg = netcrafterConfig();
    const SystemConfig reparsed =
        parseConfigString(configToString(cfg));
    EXPECT_EQ(cfg.digest(), reparsed.digest());
}

} // namespace
} // namespace netcrafter::config
