#include "src/exp/export.hh"

#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/flow/fidelity.hh"

namespace netcrafter::exp {

namespace {

/** Render @p v with round-trip precision (no locale, no padding). */
std::string
num(double v)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

/** One exported column: name plus a value renderer. */
struct FieldDef
{
    const char *name;
    std::string (*value)(const ExportRecord &);
    bool quoted; // JSON: emit as string rather than number
};

#define STR_FIELD(name, expr)                                            \
    FieldDef                                                             \
    {                                                                    \
        name, [](const ExportRecord &r) { return std::string(expr); },   \
            true                                                         \
    }
#define NUM_FIELD(name, expr)                                            \
    FieldDef                                                             \
    {                                                                    \
        name, [](const ExportRecord &r) { return num(expr); }, false     \
    }

const std::vector<FieldDef> &
fields()
{
    static const std::vector<FieldDef> defs = {
        STR_FIELD("job", r.label),
        STR_FIELD("workload", r.result.workload),
        FieldDef{"config_digest",
                 [](const ExportRecord &r) {
                     return config::digestHex(r.configDigest);
                 },
                 true},
        NUM_FIELD("scale", r.scale),
        NUM_FIELD("cycles", static_cast<std::uint64_t>(r.result.cycles)),
        NUM_FIELD("events", r.result.events),
        NUM_FIELD("instructions", r.result.instructions),
        NUM_FIELD("l1_read_accesses", r.result.l1ReadAccesses),
        NUM_FIELD("l1_read_misses", r.result.l1ReadMisses),
        NUM_FIELD("l1_mpki", r.result.l1Mpki),
        NUM_FIELD("inter_flits", r.result.interFlits),
        NUM_FIELD("inter_wire_bytes", r.result.interWireBytes),
        NUM_FIELD("inter_useful_bytes", r.result.interUsefulBytes),
        NUM_FIELD("inter_utilization", r.result.interUtilization),
        NUM_FIELD("ptw_byte_fraction", r.result.ptwByteFraction),
        NUM_FIELD("padded_flit_fraction", r.result.paddedFlitFraction),
        NUM_FIELD("quarter_padded_fraction",
                  r.result.quarterPaddedFraction),
        NUM_FIELD("three_quarter_padded_fraction",
                  r.result.threeQuarterPaddedFraction),
        NUM_FIELD("stitched_fraction", r.result.stitchedFraction),
        NUM_FIELD("stitched_pieces", r.result.stitchedPieces),
        NUM_FIELD("trimmed_packets", r.result.trimmedPackets),
        NUM_FIELD("bytes_trimmed", r.result.bytesTrimmed),
        NUM_FIELD("pooling_arms", r.result.poolingArms),
        NUM_FIELD("avg_inter_read_latency", r.result.avgInterReadLatency),
        NUM_FIELD("inter_reads", r.result.interReads),
        NUM_FIELD("remote_reads", r.result.remoteReads),
        NUM_FIELD("local_reads", r.result.localReads),
        NUM_FIELD("page_walks", r.result.pageWalks),
        NUM_FIELD("mean_walk_length", r.result.meanWalkLength),
        NUM_FIELD("bytes_needed_le16", r.result.bytesNeededFrac[0]),
        NUM_FIELD("bytes_needed_le32", r.result.bytesNeededFrac[1]),
        NUM_FIELD("bytes_needed_le48", r.result.bytesNeededFrac[2]),
        NUM_FIELD("bytes_needed_lt64", r.result.bytesNeededFrac[3]),
        NUM_FIELD("bytes_needed_64", r.result.bytesNeededFrac[4]),
        NUM_FIELD("wall_seconds", r.result.wallSeconds),
        // Hot-path census columns are appended at the end so existing
        // consumers keyed on the header prefix keep working.
        NUM_FIELD("events_per_second", r.result.eventsPerSecond),
        NUM_FIELD("near_events", r.result.nearEvents),
        NUM_FIELD("far_events", r.result.farEvents),
        NUM_FIELD("callback_pool_high_water",
                  r.result.callbackPoolHighWater),
        NUM_FIELD("callback_arena_bytes", r.result.callbackArenaBytes),
        NUM_FIELD("packet_pool_high_water", r.result.packetPoolHighWater),
        NUM_FIELD("flit_pool_high_water", r.result.flitPoolHighWater),
        NUM_FIELD("pool_arena_bytes", r.result.poolArenaBytes),
        NUM_FIELD("smallfn_heap_allocs", r.result.smallFnHeapAllocs),
        // Sharded-execution diagnostics (all zero/one when serial).
        NUM_FIELD("shards", std::uint64_t{r.result.shards}),
        NUM_FIELD("quanta_executed", r.result.quantaExecuted),
        NUM_FIELD("barrier_stall_ticks", r.result.barrierStallTicks),
        NUM_FIELD("cross_shard_flits", r.result.crossShardFlits),
        NUM_FIELD("max_ingress_depth", r.result.maxIngressDepth),
        NUM_FIELD("barrier_rounds_skipped", r.result.barrierRoundsSkipped),
        NUM_FIELD("idle_parks", r.result.idleParks),
        NUM_FIELD("work_threads", std::uint64_t{r.result.workThreads}),
        NUM_FIELD("covered_stall_ticks", r.result.coveredStallTicks),
        NUM_FIELD("residual_stall_ticks", r.result.residualStallTicks),
        NUM_FIELD("adaptive_window_samples",
                  r.result.adaptiveWindowSamples),
        NUM_FIELD("adaptive_window_ticks_mean",
                  r.result.adaptiveWindowMean),
        NUM_FIELD("adaptive_window_ticks_max", r.result.adaptiveWindowMax),
        // Observability diagnostics (all zero with tracing off).
        NUM_FIELD("trace_records", r.result.traceRecords),
        NUM_FIELD("trace_dropped", r.result.traceDropped),
        NUM_FIELD("sample_rows", r.result.sampleRows),
        // Open-loop serving measurements (all zero for closed-loop
        // jobs); latencies in cycles, classes indexed read/write/ptw
        // with "all" the merged aggregate.
        NUM_FIELD("offered_load", r.result.offeredLoad),
        NUM_FIELD("serve_injected", r.result.serveInjected),
        NUM_FIELD("serve_measured", r.result.serveMeasured),
        NUM_FIELD("serve_completed", r.result.serveCompleted),
        NUM_FIELD("serve_peak_inflight", r.result.servePeakInflight),
        NUM_FIELD("serve_throughput", r.result.serveThroughput),
        NUM_FIELD("serve_read_measured", r.result.serveClasses[0].measured),
        NUM_FIELD("serve_read_mean", r.result.serveClasses[0].meanLatency),
        NUM_FIELD("serve_read_p50", r.result.serveClasses[0].p50),
        NUM_FIELD("serve_read_p95", r.result.serveClasses[0].p95),
        NUM_FIELD("serve_read_p99", r.result.serveClasses[0].p99),
        NUM_FIELD("serve_read_p999", r.result.serveClasses[0].p999),
        NUM_FIELD("serve_write_measured",
                  r.result.serveClasses[1].measured),
        NUM_FIELD("serve_write_mean", r.result.serveClasses[1].meanLatency),
        NUM_FIELD("serve_write_p50", r.result.serveClasses[1].p50),
        NUM_FIELD("serve_write_p95", r.result.serveClasses[1].p95),
        NUM_FIELD("serve_write_p99", r.result.serveClasses[1].p99),
        NUM_FIELD("serve_write_p999", r.result.serveClasses[1].p999),
        NUM_FIELD("serve_ptw_measured", r.result.serveClasses[2].measured),
        NUM_FIELD("serve_ptw_mean", r.result.serveClasses[2].meanLatency),
        NUM_FIELD("serve_ptw_p50", r.result.serveClasses[2].p50),
        NUM_FIELD("serve_ptw_p95", r.result.serveClasses[2].p95),
        NUM_FIELD("serve_ptw_p99", r.result.serveClasses[2].p99),
        NUM_FIELD("serve_ptw_p999", r.result.serveClasses[2].p999),
        NUM_FIELD("serve_all_measured", r.result.serveClasses[3].measured),
        NUM_FIELD("serve_all_mean", r.result.serveClasses[3].meanLatency),
        NUM_FIELD("serve_all_p50", r.result.serveClasses[3].p50),
        NUM_FIELD("serve_all_p95", r.result.serveClasses[3].p95),
        NUM_FIELD("serve_all_p99", r.result.serveClasses[3].p99),
        NUM_FIELD("serve_all_p999", r.result.serveClasses[3].p999),
        // Flow-lane fidelity: the fidelity the run executed at, plus
        // the lane census (all zero at cycle fidelity). The packet and
        // byte pairs are exact-conservation invariants after a drained
        // run; the wait splits decompose flow-lane network latency.
        STR_FIELD("fidelity", flow::fidelityName(r.result.fidelity)),
        NUM_FIELD("flow_packets", r.result.flowPackets),
        NUM_FIELD("flow_cycle_packets", r.result.flowCyclePackets),
        NUM_FIELD("flow_packets_delivered",
                  r.result.flowPacketsDelivered),
        NUM_FIELD("flow_bytes_injected", r.result.flowBytesInjected),
        NUM_FIELD("flow_bytes_delivered", r.result.flowBytesDelivered),
        NUM_FIELD("flow_epochs_closed", r.result.flowEpochsClosed),
        NUM_FIELD("flow_lane_activations", r.result.flowLaneActivations),
        NUM_FIELD("flow_lane_escalations", r.result.flowLaneEscalations),
        NUM_FIELD("flow_recomputes", r.result.flowRecomputes),
        NUM_FIELD("flow_md1_wait_ticks", r.result.flowMd1WaitTicks),
        NUM_FIELD("flow_fifo_wait_ticks", r.result.flowFifoWaitTicks),
        // Host-time self-profiling phase split (all zero unless the
        // run was traced, NETCRAFTER_PROFILE was set, or live
        // telemetry was on) plus the suppressed-warning tally.
        NUM_FIELD("warnings_suppressed", r.result.warningsSuppressed),
        NUM_FIELD("phase_execute_seconds", r.result.phaseExecuteSeconds),
        NUM_FIELD("phase_barrier_wait_seconds",
                  r.result.phaseBarrierWaitSeconds),
        NUM_FIELD("phase_ingress_seconds", r.result.phaseIngressSeconds),
        NUM_FIELD("phase_export_seconds", r.result.phaseExportSeconds),
        // Wire-head conservation check: equals the inter-cluster
        // flit and wire-byte census after a drained cycle run.
        NUM_FIELD("wire_flits_delivered", r.result.wireFlitsDelivered),
        NUM_FIELD("wire_bytes_delivered", r.result.wireBytesDelivered),
    };
    return defs;
}

#undef STR_FIELD
#undef NUM_FIELD

/** CSV-quote @p s only when it contains a delimiter or quote. */
std::string
csvCell(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::vector<ExportRecord>
recordsFromSweep(const SweepSpec &spec, const SweepResult &result)
{
    std::vector<ExportRecord> out;
    out.reserve(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        const Job &job = spec.jobs()[i];
        out.push_back(ExportRecord{job.name, job.config.digest(),
                                   job.scale, result.results.at(i)});
    }
    return out;
}

std::vector<ExportRecord>
recordsFromScheduler(const Scheduler &scheduler)
{
    std::vector<ExportRecord> out;
    out.reserve(scheduler.history().size());
    for (const auto &[job, result] : scheduler.history())
        out.push_back(ExportRecord{job.name, job.config.digest(),
                                   job.scale, result});
    return out;
}

std::vector<ExportRecord>
recordsFromCache(const ResultCache &cache)
{
    std::vector<ExportRecord> out;
    for (auto &[key, result] : cache.snapshot()) {
        out.push_back(
            ExportRecord{"", key.configDigest, key.scale, result});
    }
    return out;
}

void
writeCsv(const std::vector<ExportRecord> &records, std::ostream &os)
{
    const auto &defs = fields();
    for (std::size_t i = 0; i < defs.size(); ++i)
        os << (i ? "," : "") << defs[i].name;
    os << "\n";
    for (const auto &r : records) {
        for (std::size_t i = 0; i < defs.size(); ++i)
            os << (i ? "," : "") << csvCell(defs[i].value(r));
        os << "\n";
    }
}

void
writeJson(const std::vector<ExportRecord> &records, std::ostream &os)
{
    const auto &defs = fields();
    os << "{\n  \"results\": [";
    for (std::size_t r = 0; r < records.size(); ++r) {
        os << (r ? ",\n    {" : "\n    {");
        for (std::size_t i = 0; i < defs.size(); ++i) {
            const std::string v = defs[i].value(records[r]);
            os << (i ? ", " : "") << "\"" << defs[i].name << "\": ";
            if (defs[i].quoted)
                os << "\"" << jsonEscape(v) << "\"";
            else
                os << v;
        }
        for (const auto &[kind, events] : records[r].result.eventLedger)
            os << ", \"sim.events." << jsonEscape(kind) << "\": " << events;
        os << "}";
    }
    os << "\n  ]\n}\n";
}

void
writeRegistryJson(const stats::Registry &registry, std::ostream &os)
{
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : registry.counters()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << c.value();
        first = false;
    }
    os << "\n  },\n  \"averages\": {";
    first = true;
    for (const auto &[name, a] : registry.averages()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"mean\": " << num(a.mean())
           << ", \"min\": " << num(a.min())
           << ", \"max\": " << num(a.max())
           << ", \"count\": " << a.count() << "}";
        first = false;
    }
    os << "\n  },\n  \"distributions\": {";
    first = true;
    for (const auto &[name, d] : registry.distributions()) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"total\": " << d.total() << ", \"bounds\": [";
        for (std::size_t i = 0; i < d.bounds().size(); ++i)
            os << (i ? ", " : "") << num(d.bounds()[i]);
        os << "], \"counts\": [";
        for (std::size_t i = 0; i < d.bounds().size() + 1; ++i)
            os << (i ? ", " : "") << d.bucket(i);
        os << "]}";
        first = false;
    }
    os << "\n  }\n}\n";
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace netcrafter::exp
