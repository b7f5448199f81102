#include "src/config/system_config.hh"

#include "src/sim/logging.hh"

namespace netcrafter::config {

void
SystemConfig::validate() const
{
    if (numClusters < 1)
        NC_FATAL("at least one cluster required");
    if (gpusPerCluster < 1)
        NC_FATAL("at least one GPU per cluster required");
    if (flitBytes != 8 && flitBytes != 16 && flitBytes != 32)
        NC_FATAL("unsupported flit size ", flitBytes,
                 " (expected 8, 16 or 32)");
    if (netcrafter.trimGranularity != 4 && netcrafter.trimGranularity != 8 &&
        netcrafter.trimGranularity != 16 &&
        netcrafter.trimGranularity != 32)
        NC_FATAL("unsupported trim granularity ",
                 netcrafter.trimGranularity);
    if (kCacheLineBytes % netcrafter.trimGranularity != 0)
        NC_FATAL("trim granularity must divide the cache line size");
    if (l1FillMode == L1FillMode::TrimInterCluster && !netcrafter.trimming)
        NC_FATAL("TrimInterCluster fill mode requires netcrafter.trimming");
    if (netcrafter.flitPooling && !netcrafter.stitching)
        NC_FATAL("flit pooling only makes sense with stitching enabled");
    if (l1Assoc == 0 || l2Assoc == 0 || l2Banks == 0)
        NC_FATAL("associativities and bank counts must be positive");
    // The tag arrays keep one dirty bit per way in a 32-bit word and
    // hold whole sets; TLB sets are whole too.
    if (l1Assoc > 32 || l2Assoc > 32)
        NC_FATAL("cache associativity above 32 ways");
    if (l1Bytes == 0 || l2BytesPerGpu == 0)
        NC_FATAL("cache sizes must be positive");
    if (l1Bytes % (std::uint64_t{l1Assoc} * kCacheLineBytes) != 0)
        NC_FATAL("l1.bytes ", l1Bytes, " is not a multiple of ", l1Assoc,
                 " ways x ", kCacheLineBytes, " B");
    if (l2BytesPerGpu % (std::uint64_t{l2Assoc} * kCacheLineBytes) != 0)
        NC_FATAL("l2.bytes ", l2BytesPerGpu, " is not a multiple of ",
                 l2Assoc, " ways x ", kCacheLineBytes, " B");
    if (l1TlbEntries == 0 || l2TlbEntries == 0 || l2TlbAssoc == 0)
        NC_FATAL("TLB entries and ways must be positive");
    if (l2TlbEntries % l2TlbAssoc != 0)
        NC_FATAL("l2tlb.entries ", l2TlbEntries,
                 " is not a multiple of l2tlb.assoc ", l2TlbAssoc);
    if (interLinkLatency < 1)
        NC_FATAL("inter-cluster link latency must be >= 1 cycle "
                 "(it is the sharded engine's conservative lookahead)");
}

SystemConfig
baselineConfig()
{
    return SystemConfig{};
}

SystemConfig
idealConfig()
{
    SystemConfig cfg;
    cfg.interClusterGBps = cfg.intraClusterGBps;
    return cfg;
}

SystemConfig
netcrafterConfig()
{
    SystemConfig cfg;
    cfg.netcrafter.stitching = true;
    cfg.netcrafter.flitPooling = true;
    cfg.netcrafter.selectivePooling = true;
    cfg.netcrafter.poolingWindow = 32;
    cfg.netcrafter.trimming = true;
    cfg.netcrafter.sequencing = SequencingMode::PrioritizePtw;
    cfg.l1FillMode = L1FillMode::TrimInterCluster;
    return cfg;
}

SystemConfig
stitchingConfig(bool pooling, bool selective, Tick window)
{
    SystemConfig cfg;
    cfg.netcrafter.stitching = true;
    cfg.netcrafter.flitPooling = pooling;
    cfg.netcrafter.selectivePooling = selective;
    cfg.netcrafter.poolingWindow = window;
    return cfg;
}

SystemConfig
sectorCacheConfig(std::uint32_t sector_bytes)
{
    SystemConfig cfg;
    cfg.l1FillMode = L1FillMode::SectorAlways;
    cfg.netcrafter.trimGranularity = sector_bytes;
    return cfg;
}

} // namespace netcrafter::config
