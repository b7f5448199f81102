#include "src/config/config_io.hh"

#include <functional>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "src/sim/logging.hh"

namespace netcrafter::config {

namespace {

/** Field registry: name -> (writer, parser). */
struct Field
{
    std::function<std::string(const SystemConfig &)> write;
    std::function<void(SystemConfig &, const std::string &)> parse;
};

template <typename T>
std::string
toStr(const T &v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

std::uint64_t
parseU64(const std::string &s)
{
    return std::stoull(s);
}

double
parseDouble(const std::string &s)
{
    return std::stod(s);
}

bool
parseBool(const std::string &s)
{
    if (s == "true" || s == "1")
        return true;
    if (s == "false" || s == "0")
        return false;
    NC_FATAL("bad boolean value '", s, "'");
}

SequencingMode
parseSequencing(const std::string &s)
{
    if (s == "off")
        return SequencingMode::Off;
    if (s == "ptw")
        return SequencingMode::PrioritizePtw;
    if (s == "data")
        return SequencingMode::PrioritizeData;
    NC_FATAL("bad sequencing mode '", s, "'");
}

L1FillMode
parseFillMode(const std::string &s)
{
    if (s == "full-line")
        return L1FillMode::FullLine;
    if (s == "trim-inter-cluster")
        return L1FillMode::TrimInterCluster;
    if (s == "sector-always")
        return L1FillMode::SectorAlways;
    NC_FATAL("bad L1 fill mode '", s, "'");
}

const std::map<std::string, Field> &
fields()
{
#define U64_FIELD(name, expr)                                            \
    {                                                                    \
        name,                                                            \
        {                                                                \
            [](const SystemConfig &c) { return toStr(c.expr); },         \
                [](SystemConfig &c, const std::string &v) {              \
                    c.expr = static_cast<decltype(c.expr)>(              \
                        parseU64(v));                                    \
                }                                                        \
        }                                                                \
    }
#define DBL_FIELD(name, expr)                                            \
    {                                                                    \
        name,                                                            \
        {                                                                \
            [](const SystemConfig &c) { return toStr(c.expr); },         \
                [](SystemConfig &c, const std::string &v) {              \
                    c.expr = parseDouble(v);                             \
                }                                                        \
        }                                                                \
    }
#define BOOL_FIELD(name, expr)                                           \
    {                                                                    \
        name,                                                            \
        {                                                                \
            [](const SystemConfig &c) {                                  \
                return std::string(c.expr ? "true" : "false");           \
            },                                                           \
                [](SystemConfig &c, const std::string &v) {              \
                    c.expr = parseBool(v);                               \
                }                                                        \
        }                                                                \
    }

    static const std::map<std::string, Field> registry = {
        U64_FIELD("topology.clusters", numClusters),
        U64_FIELD("topology.gpus_per_cluster", gpusPerCluster),
        DBL_FIELD("network.intra_gbps", intraClusterGBps),
        DBL_FIELD("network.inter_gbps", interClusterGBps),
        U64_FIELD("network.flit_bytes", flitBytes),
        U64_FIELD("network.switch_latency", switchLatency),
        U64_FIELD("network.inter_link_latency", interLinkLatency),
        U64_FIELD("network.switch_buffer", switchBufferEntries),
        U64_FIELD("network.rdma_buffer", rdmaBufferEntries),
        U64_FIELD("compute.cus_per_gpu", cusPerGpu),
        U64_FIELD("compute.waves_per_cu", maxWavesPerCu),
        U64_FIELD("compute.issue_width", cuIssueWidth),
        U64_FIELD("l1.bytes", l1Bytes),
        U64_FIELD("l1.assoc", l1Assoc),
        U64_FIELD("l1.latency", l1Latency),
        U64_FIELD("l1.mshrs", l1MshrEntries),
        U64_FIELD("l2.bytes", l2BytesPerGpu),
        U64_FIELD("l2.assoc", l2Assoc),
        U64_FIELD("l2.banks", l2Banks),
        U64_FIELD("l2.latency", l2Latency),
        U64_FIELD("l2.mshrs", l2MshrEntries),
        U64_FIELD("dram.latency", dramLatency),
        U64_FIELD("dram.bytes_per_cycle", dramBytesPerCycle),
        U64_FIELD("l1tlb.entries", l1TlbEntries),
        U64_FIELD("l1tlb.latency", l1TlbLatency),
        U64_FIELD("l1tlb.mshrs", l1TlbMshrEntries),
        U64_FIELD("l2tlb.entries", l2TlbEntries),
        U64_FIELD("l2tlb.assoc", l2TlbAssoc),
        U64_FIELD("l2tlb.latency", l2TlbLatency),
        U64_FIELD("l2tlb.mshrs", l2TlbMshrEntries),
        U64_FIELD("gmmu.pwc_entries", pwcEntries),
        U64_FIELD("gmmu.pwc_latency", pwcLatency),
        U64_FIELD("gmmu.walkers", pageWalkers),
        BOOL_FIELD("netcrafter.stitching", netcrafter.stitching),
        BOOL_FIELD("netcrafter.flit_pooling", netcrafter.flitPooling),
        BOOL_FIELD("netcrafter.selective_pooling",
                   netcrafter.selectivePooling),
        U64_FIELD("netcrafter.pooling_window", netcrafter.poolingWindow),
        BOOL_FIELD("netcrafter.trimming", netcrafter.trimming),
        U64_FIELD("netcrafter.trim_granularity",
                  netcrafter.trimGranularity),
        DBL_FIELD("netcrafter.priority_data_fraction",
                  netcrafter.priorityDataFraction),
        U64_FIELD("netcrafter.cluster_queue_entries",
                  netcrafter.clusterQueueEntries),
        U64_FIELD("netcrafter.stitch_search_depth",
                  netcrafter.stitchSearchDepth),
        BOOL_FIELD("netcrafter.force_controller",
                   netcrafter.forceController),
        U64_FIELD("seed", seed),
        {"netcrafter.sequencing",
         {[](const SystemConfig &c) {
              return std::string(
                  sequencingModeName(c.netcrafter.sequencing));
          },
          [](SystemConfig &c, const std::string &v) {
              c.netcrafter.sequencing = parseSequencing(v);
          }}},
        {"l1.fill_mode",
         {[](const SystemConfig &c) {
              return std::string(l1FillModeName(c.l1FillMode));
          },
          [](SystemConfig &c, const std::string &v) {
              c.l1FillMode = parseFillMode(v);
          }}},
    };
#undef U64_FIELD
#undef DBL_FIELD
#undef BOOL_FIELD
    return registry;
}

std::string
trim(const std::string &s)
{
    const auto begin = s.find_first_not_of(" \t\r");
    if (begin == std::string::npos)
        return "";
    const auto end = s.find_last_not_of(" \t\r");
    return s.substr(begin, end - begin + 1);
}

} // namespace

const char *
sequencingModeName(SequencingMode mode)
{
    switch (mode) {
      case SequencingMode::Off:
        return "off";
      case SequencingMode::PrioritizePtw:
        return "ptw";
      case SequencingMode::PrioritizeData:
        return "data";
    }
    return "?";
}

const char *
l1FillModeName(L1FillMode mode)
{
    switch (mode) {
      case L1FillMode::FullLine:
        return "full-line";
      case L1FillMode::TrimInterCluster:
        return "trim-inter-cluster";
      case L1FillMode::SectorAlways:
        return "sector-always";
    }
    return "?";
}

void
writeConfig(const SystemConfig &cfg, std::ostream &os)
{
    for (const auto &[name, field] : fields())
        os << name << " = " << field.write(cfg) << "\n";
}

std::string
configToString(const SystemConfig &cfg)
{
    std::ostringstream os;
    writeConfig(cfg, os);
    return os.str();
}

SystemConfig
parseConfig(std::istream &is, const SystemConfig &base)
{
    SystemConfig cfg = base;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos)
            NC_FATAL("config line ", line_no, ": expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        auto it = fields().find(key);
        if (it == fields().end())
            NC_FATAL("config line ", line_no, ": unknown key '", key,
                     "'");
        it->second.parse(cfg, value);
    }
    cfg.validate();
    return cfg;
}

SystemConfig
parseConfigString(const std::string &text, const SystemConfig &base)
{
    std::istringstream is(text);
    return parseConfig(is, base);
}

// Defined here rather than in system_config.cc because the serialized
// text form (the field registry above) is the canonical field
// enumeration: any field added to the registry automatically feeds the
// digest too.
std::uint64_t
SystemConfig::digest() const
{
    const std::string text = configToString(*this);
    std::uint64_t h = 0xcbf29ce484222325ull; // FNV-1a 64-bit
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
digestHex(const SystemConfig &cfg)
{
    return digestHex(cfg.digest());
}

std::string
digestHex(std::uint64_t digest)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << digest;
    return os.str();
}

} // namespace netcrafter::config
