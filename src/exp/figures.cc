#include "src/exp/figures.hh"

#include <string>
#include <vector>

#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "src/noc/flit.hh"
#include "src/noc/packet.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::exp {

namespace {

using harness::Table;

std::vector<std::string>
apps()
{
    return workloads::workloadNames();
}

/** Run every app of @p app_names under every config of @p configs as
 *  one sweep named @p name; jobs are "<label>/<app>". */
SweepResult
runGrid(FigureContext &ctx, const std::string &name,
        const std::vector<ConfigPoint> &configs,
        const std::vector<std::string> &app_names = apps())
{
    SweepSpec spec(name);
    spec.addGrid(app_names, configs);
    return ctx.scheduler.run(spec);
}

/** Baseline plus Trimming alone (sector fills only for inter-cluster
 *  responses). */
config::SystemConfig
trimOnly(std::uint32_t granularity = 16)
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.netcrafter.trimming = true;
    cfg.netcrafter.trimGranularity = granularity;
    cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
    return cfg;
}

// --- Table 1: 16B flit census -------------------------------------------

// Purely structural: segments one packet of each type and reports
// occupied / required / padded bytes and flit counts, which must match
// the paper exactly.
void
runTable1(FigureContext &ctx)
{
    banner(ctx.out, "Table 1", "16B flit census by packet type");

    Table table({"Request Type", "Bytes Occupied", "Bytes Required",
                 "Bytes Padded", "Flits Occupied"});
    const noc::PacketType types[] = {
        noc::PacketType::ReadReq,      noc::PacketType::WriteReq,
        noc::PacketType::PageTableReq, noc::PacketType::ReadRsp,
        noc::PacketType::WriteRsp,     noc::PacketType::PageTableRsp,
    };
    for (noc::PacketType type : types) {
        auto pkt = noc::makePacket(type, 0, 1, 0x1000);
        auto flits = noc::segmentPacket(pkt, noc::kDefaultFlitBytes);
        std::uint32_t occupied = 0;
        const std::uint32_t required = pkt->totalBytes();
        for (const auto &f : flits)
            occupied += f->capacity;
        table.addRow({noc::packetTypeName(type), std::to_string(occupied),
                      std::to_string(required),
                      std::to_string(occupied - required),
                      std::to_string(flits.size())});
    }
    table.print(ctx.out);
    ctx.out << "\nPaper reference: ReadReq 16/12/4/1, WriteReq "
               "80/76/4/5, PTReq 16/12/4/1,\nReadRsp 80/68/12/5, "
               "WriteRsp 16/4/12/1, PTRsp 16/12/4/1.\n";
}

// --- Table 3: evaluated applications -------------------------------------

void
runTable3(FigureContext &ctx)
{
    banner(ctx.out, "Table 3", "evaluated applications");

    struct NullPlacement : workloads::PlacementDirectory
    {
        void place(Addr, GpuId) override {}
    } placement;
    Table table({"Abbr.", "Access Pattern", "Kernels"});
    for (const auto &name : apps()) {
        auto wl = workloads::makeWorkload(name);
        workloads::BuildContext build;
        build.placement = &placement;
        wl->build(build);
        table.addRow({wl->name(), wl->pattern(),
                      std::to_string(wl->kernels().size())});
    }
    table.print(ctx.out);
}

// --- Figure 3: ideal vs baseline --------------------------------------

void
runFig03(FigureContext &ctx)
{
    banner(ctx.out, "Figure 3",
           "ideal (all-high-bandwidth) speedup over baseline");

    const SweepResult res =
        runGrid(ctx, "fig03", {{"base", config::baselineConfig()},
                               {"ideal", config::idealConfig()}});

    Table table(
        {"app", "baseline cycles", "ideal cycles", "ideal speedup"});
    std::vector<double> speedups;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        const auto &ideal = res.at("ideal/" + app);
        const double s = speedup(base, ideal);
        speedups.push_back(s);
        table.addRow({app, std::to_string(base.cycles),
                      std::to_string(ideal.cycles), Table::fmt(s)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean ideal speedup: "
            << Table::fmt(harness::geomean(speedups))
            << "x   (paper: ~1.5x average)\n";
}

// --- Figure 4: inter-cluster network utilization ---------------------

void
runFig04(FigureContext &ctx)
{
    banner(ctx.out, "Figure 4",
           "inter-cluster network utilization, baseline vs ideal");

    const SweepResult res =
        runGrid(ctx, "fig04", {{"base", config::baselineConfig()},
                               {"ideal", config::idealConfig()}});

    Table table({"app", "non-uniform util", "ideal util"});
    double sum_base = 0, sum_ideal = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        const auto &ideal = res.at("ideal/" + app);
        sum_base += base.interUtilization;
        sum_ideal += ideal.interUtilization;
        table.addRow({app, Table::pct(base.interUtilization),
                      Table::pct(ideal.interUtilization)});
    }
    table.print(ctx.out);
    const double n = static_cast<double>(apps().size());
    ctx.out << "\nmean utilization: non-uniform "
            << Table::pct(sum_base / n) << ", ideal "
            << Table::pct(sum_ideal / n)
            << "  (paper: high on lower-bandwidth links, low when "
               "bandwidth is plentiful)\n";
}

// --- Figure 5: inter-cluster latency, ideal vs baseline ----------------

void
runFig05(FigureContext &ctx)
{
    banner(ctx.out, "Figure 5",
           "inter-cluster read latency, ideal normalized to "
           "non-uniform");

    const SweepResult res =
        runGrid(ctx, "fig05", {{"base", config::baselineConfig()},
                               {"ideal", config::idealConfig()}});

    Table table({"app", "baseline (cyc)", "ideal (cyc)",
                 "ideal / baseline"});
    std::vector<double> ratios;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        const auto &ideal = res.at("ideal/" + app);
        if (base.interReads == 0) {
            table.addRow({app, "-", "-", "- (no inter-cluster reads)"});
            continue;
        }
        const double ratio =
            ideal.avgInterReadLatency / base.avgInterReadLatency;
        ratios.push_back(ratio);
        table.addRow({app, Table::fmt(base.avgInterReadLatency, 0),
                      Table::fmt(ideal.avgInterReadLatency, 0),
                      Table::fmt(ratio)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean latency ratio: "
            << Table::fmt(harness::geomean(ratios))
            << "  (paper: well below 1 for congested apps)\n";
}

// --- Figure 6: flit padding census --------------------------------------

void
runFig06(FigureContext &ctx)
{
    banner(ctx.out, "Figure 6",
           "flits with ~25% / ~75% padding on the inter-cluster "
           "network (baseline)");

    const SweepResult res =
        runGrid(ctx, "fig06", {{"base", config::baselineConfig()}});

    Table table({"app", "~25% padded", "~75% padded", "25%+75% total"});
    double sum = 0;
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interFlits == 0) {
            table.addRow({app, "-", "-", "- (no inter-cluster flits)"});
            continue;
        }
        sum += base.paddedFlitFraction;
        ++n;
        table.addRow({app, Table::pct(base.quarterPaddedFraction),
                      Table::pct(base.threeQuarterPaddedFraction),
                      Table::pct(base.paddedFlitFraction)});
    }
    table.print(ctx.out);
    if (n > 0) {
        ctx.out << "\nmean fraction of flits 25%- or 75%-padded: "
                << Table::pct(sum / n) << "  (paper: ~42% average)\n";
    }
}

// --- Figure 7: cache-line bytes needed ----------------------------------

void
runFig07(FigureContext &ctx)
{
    banner(ctx.out, "Figure 7",
           "inter-cluster read requests by bytes needed from the 64B "
           "line (baseline)");

    const SweepResult res =
        runGrid(ctx, "fig07", {{"base", config::baselineConfig()}});

    Table table({"app", "<=16B", "17-32B", "33-48B", "49-63B", "64B"});
    double sum16 = 0;
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interReads == 0 && base.bytesNeededFrac[0] == 0 &&
            base.bytesNeededFrac[4] == 0) {
            table.addRow({app, "-", "-", "-", "-", "-"});
            continue;
        }
        sum16 += base.bytesNeededFrac[0];
        ++n;
        std::vector<std::string> row{app};
        for (double f : base.bytesNeededFrac)
            row.push_back(Table::pct(f));
        table.addRow(std::move(row));
    }
    table.print(ctx.out);
    if (n > 0) {
        ctx.out << "\nmean fraction of requests needing <=16B: "
                << Table::pct(sum16 / n)
                << "  (paper: large for random/gather/scatter apps, "
                   "near zero for adjacent/DNN)\n";
    }
}

// --- Figure 8: PTW vs data prioritization -------------------------------

void
runFig08(FigureContext &ctx)
{
    banner(ctx.out, "Figure 8",
           "prioritizing PTW-related vs an equal share of data "
           "accesses");

    // Reference: the plain baseline whose inter-cluster egress is a
    // FIFO output buffer, as in the paper's characterization.
    config::SystemConfig ptw_cfg = config::baselineConfig();
    ptw_cfg.netcrafter.sequencing = config::SequencingMode::PrioritizePtw;
    const SweepResult res = runGrid(
        ctx, "fig08", {{"base", config::baselineConfig()}, {"ptw", ptw_cfg}});

    // Data prioritization gets the "same fraction" as each app's
    // baseline PTW traffic, so its sweep follows the first.
    SweepSpec data_spec("fig08-data");
    for (const auto &app : apps()) {
        config::SystemConfig data_cfg = config::baselineConfig();
        data_cfg.netcrafter.sequencing =
            config::SequencingMode::PrioritizeData;
        data_cfg.netcrafter.priorityDataFraction =
            res.at("base/" + app).ptwByteFraction;
        data_spec.add("data/" + app, app, data_cfg);
    }
    const SweepResult data_res = ctx.scheduler.run(data_spec);

    Table table({"app", "prioritize PTW", "prioritize data"});
    std::vector<double> ptw_speedups, data_speedups;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        ptw_speedups.push_back(speedup(base, res.at("ptw/" + app)));
        data_speedups.push_back(
            speedup(base, data_res.at("data/" + app)));
        table.addRow({app, Table::fmt(ptw_speedups.back(), 3),
                      Table::fmt(data_speedups.back(), 3)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean: prioritize-PTW "
            << Table::fmt(harness::geomean(ptw_speedups), 3)
            << "x, prioritize-data "
            << Table::fmt(harness::geomean(data_speedups), 3)
            << "x  (paper: PTW > 1 > data)\n";
}

// --- Figure 9: PTW vs data traffic share -------------------------------

void
runFig09(FigureContext &ctx)
{
    banner(ctx.out, "Figure 9",
           "PTW-related vs data bytes on the inter-cluster "
           "network (baseline)");

    const SweepResult res =
        runGrid(ctx, "fig09", {{"base", config::baselineConfig()}});

    Table table({"app", "PTW share", "data share"});
    double sum = 0;
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interUsefulBytes == 0) {
            table.addRow({app, "-", "-"});
            continue;
        }
        sum += base.ptwByteFraction;
        ++n;
        table.addRow({app, Table::pct(base.ptwByteFraction),
                      Table::pct(1.0 - base.ptwByteFraction)});
    }
    table.print(ctx.out);
    if (n > 0) {
        ctx.out << "\nmean PTW share: " << Table::pct(sum / n)
                << "  (paper: ~13% average)\n";
    }
}

// --- Figure 12: stitched-flit rate -------------------------------------

void
runFig12(FigureContext &ctx)
{
    banner(ctx.out, "Figure 12",
           "flits stitched: Stitching alone vs + Flit Pooling");

    const SweepResult res = runGrid(
        ctx, "fig12",
        {{"alone", config::stitchingConfig(false)},
         {"pooled", config::stitchingConfig(true, false, 32)}});

    Table table({"app", "stitch only", "stitch + pooling(32)"});
    double sum_alone = 0, sum_pool = 0;
    int n = 0;
    for (const auto &app : apps()) {
        const auto &alone = res.at("alone/" + app);
        const auto &pooled = res.at("pooled/" + app);
        if (alone.interFlits == 0) {
            table.addRow({app, "-", "-"});
            continue;
        }
        sum_alone += alone.stitchedFraction;
        sum_pool += pooled.stitchedFraction;
        ++n;
        table.addRow({app, Table::pct(alone.stitchedFraction),
                      Table::pct(pooled.stitchedFraction)});
    }
    table.print(ctx.out);
    if (n > 0) {
        ctx.out << "\nmean stitched fraction: alone "
                << Table::pct(sum_alone / n) << ", + pooling "
                << Table::pct(sum_pool / n)
                << "  (paper: pooling significantly raises the "
                   "stitched share)\n";
    }
}

// --- Figure 14: overall performance (headline) -------------------------

void
runFig14(FigureContext &ctx)
{
    banner(ctx.out, "Figure 14",
           "speedup over the non-uniform baseline (cumulative "
           "mechanisms)");

    const SweepResult res = runGrid(ctx, "fig14", fig14Configs());

    Table table({"app", "Stitching", "+Trimming",
                 "+Sequencing (NetCrafter)", "SectorCache16B"});
    std::vector<double> s1, s2, s3, s4;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        s1.push_back(speedup(base, res.at("stitch/" + app)));
        s2.push_back(speedup(base, res.at("trim/" + app)));
        s3.push_back(speedup(base, res.at("full/" + app)));
        s4.push_back(speedup(base, res.at("sector/" + app)));
        table.addRow({app, Table::fmt(s1.back()), Table::fmt(s2.back()),
                      Table::fmt(s3.back()), Table::fmt(s4.back())});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean speedup: stitching "
            << Table::fmt(harness::geomean(s1)) << "x, +trimming "
            << Table::fmt(harness::geomean(s2))
            << "x, full NetCrafter "
            << Table::fmt(harness::geomean(s3)) << "x, sector-cache "
            << Table::fmt(harness::geomean(s4)) << "x\n"
            << "(paper: full NetCrafter up to 1.64x, avg 1.16x; "
               "sector cache helps <=16B apps, hurts coarse-grained "
               "ones)\n";
}

// --- Figure 15: NetCrafter inter-cluster latency -----------------------

void
runFig15(FigureContext &ctx)
{
    banner(ctx.out, "Figure 15",
           "inter-cluster read latency: baseline vs NetCrafter");

    const SweepResult res =
        runGrid(ctx, "fig15", {{"base", config::baselineConfig()},
                               {"full", fullNetcrafter()}});

    Table table({"app", "baseline (cyc)", "NetCrafter (cyc)", "ratio"});
    std::vector<double> ratios;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        const auto &nc = res.at("full/" + app);
        if (base.interReads == 0) {
            table.addRow({app, "-", "-", "-"});
            continue;
        }
        const double ratio =
            nc.avgInterReadLatency / base.avgInterReadLatency;
        ratios.push_back(ratio);
        table.addRow({app, Table::fmt(base.avgInterReadLatency, 0),
                      Table::fmt(nc.avgInterReadLatency, 0),
                      Table::fmt(ratio)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean latency ratio (NetCrafter / baseline): "
            << Table::fmt(harness::geomean(ratios))
            << "  (paper: below 1 for bandwidth-bound apps)\n";
}

// --- Figure 16: L1 MPKI, Trimming vs sector cache ----------------------

void
runFig16(FigureContext &ctx)
{
    banner(ctx.out, "Figure 16",
           "L1 MPKI: baseline vs Trimming vs 16B sector cache");

    const SweepResult res =
        runGrid(ctx, "fig16", {{"base", config::baselineConfig()},
                               {"trim", trimOnly()},
                               {"sector", config::sectorCacheConfig(16)}});

    Table table({"app", "baseline", "Trimming", "SectorCache16B"});
    for (const auto &app : apps()) {
        table.addRow({app, Table::fmt(res.at("base/" + app).l1Mpki, 1),
                      Table::fmt(res.at("trim/" + app).l1Mpki, 1),
                      Table::fmt(res.at("sector/" + app).l1Mpki, 1)});
    }
    table.print(ctx.out);
    ctx.out << "\n(paper: sector cache's MPKI exceeds Trimming's for "
               "apps with coarse-grained reuse, since Trimming only "
               "sectors inter-cluster fills)\n";
}

// --- Figure 17: GEMM MPKI vs granularity --------------------------------

void
runFig17(FigureContext &ctx)
{
    banner(ctx.out, "Figure 17", "GEMM L1 MPKI vs trim/sector granularity");

    const std::vector<std::uint32_t> granularities = {4, 8, 16};
    std::vector<ConfigPoint> configs = {{"base", config::baselineConfig()}};
    for (std::uint32_t g : granularities) {
        configs.push_back({"trim" + std::to_string(g), trimOnly(g)});
        configs.push_back(
            {"sector" + std::to_string(g), config::sectorCacheConfig(g)});
    }
    const SweepResult res = runGrid(ctx, "fig17", configs, {"GEMM"});

    Table table({"granularity", "Trimming (NetCrafter)",
                 "All-trimming (sector cache)"});
    for (std::uint32_t g : granularities) {
        const std::string n = std::to_string(g);
        table.addRow({n + "B",
                      Table::fmt(res.at("trim" + n + "/GEMM").l1Mpki, 1),
                      Table::fmt(res.at("sector" + n + "/GEMM").l1Mpki,
                                 1)});
    }
    table.print(ctx.out);
    ctx.out << "\nbaseline (full-line) MPKI: "
            << Table::fmt(res.at("base/GEMM").l1Mpki, 1)
            << "\n(paper: Trimming's MPKI stays below all-trimming at "
               "every granularity; both rise as sectors shrink)\n";
}

// --- Figures 18 and 19: pooling-window sweeps ---------------------------

/**
 * Speedup over the baseline of Stitching alone and of Stitching +
 * (selective, when @p selective) Flit Pooling at 32-128 cycle windows,
 * one row per app, then the geomean line (without its paper note).
 */
void
poolingSweep(FigureContext &ctx, const std::string &name, bool selective)
{
    const std::vector<Tick> windows = {32, 64, 96, 128};
    const std::string label = selective ? "selpool" : "pool";
    std::vector<ConfigPoint> configs = {
        {"base", config::baselineConfig()},
        {"stitch", config::stitchingConfig(false)}};
    for (Tick w : windows) {
        configs.push_back({label + std::to_string(w),
                           config::stitchingConfig(true, selective, w)});
    }
    const SweepResult res = runGrid(ctx, name, configs);

    std::vector<std::string> headers = {"app", "stitch only"};
    for (Tick w : windows)
        headers.push_back(label + " " + std::to_string(w));
    Table table(headers);

    std::vector<std::vector<double>> speedups(windows.size() + 1);
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        std::vector<std::string> row{app};
        speedups[0].push_back(speedup(base, res.at("stitch/" + app)));
        row.push_back(Table::fmt(speedups[0].back(), 3));
        for (std::size_t i = 0; i < windows.size(); ++i) {
            const auto &pooled = res.at(
                label + std::to_string(windows[i]) + "/" + app);
            speedups[i + 1].push_back(speedup(base, pooled));
            row.push_back(Table::fmt(speedups[i + 1].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    ctx.out << "\ngeomean: stitch-only "
            << Table::fmt(harness::geomean(speedups[0]), 3);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        ctx.out << ", " << label << "-" << windows[i] << " "
                << Table::fmt(harness::geomean(speedups[i + 1]), 3);
    }
}

void
runFig18(FigureContext &ctx)
{
    banner(ctx.out, "Figure 18",
           "Stitching + Flit Pooling sweep (non-selective)");
    poolingSweep(ctx, "fig18", false);
    ctx.out << "\n(paper: 32 cycles is the sweet spot; larger windows "
               "add latency for no stitching gain)\n";
}

void
runFig19(FigureContext &ctx)
{
    banner(ctx.out, "Figure 19",
           "Stitching + Selective Flit Pooling sweep");
    poolingSweep(ctx, "fig19", true);
    ctx.out << "\n(paper: selective pooling at 32 cycles performs "
               "best and removes the Figure 18 degradations)\n";
}

// --- Figure 20: wire-byte reduction ------------------------------------

void
runFig20(FigureContext &ctx)
{
    banner(ctx.out, "Figure 20",
           "inter-cluster wire bytes, normalized to baseline");

    const std::vector<Tick> windows = {32, 64, 96, 128};
    std::vector<ConfigPoint> configs = {
        {"base", config::baselineConfig()},
        {"stitch", config::stitchingConfig(false)}};
    for (Tick w : windows) {
        configs.push_back({"selpool" + std::to_string(w),
                           config::stitchingConfig(true, true, w)});
    }
    const SweepResult res = runGrid(ctx, "fig20", configs);

    std::vector<std::string> headers = {"app", "stitch only"};
    for (Tick w : windows)
        headers.push_back("selpool " + std::to_string(w));
    Table table(headers);

    std::vector<double> sums(windows.size() + 1, 0.0);
    int n = 0;
    for (const auto &app : apps()) {
        const auto &base = res.at("base/" + app);
        if (base.interWireBytes == 0) {
            table.addRow({app, "-"});
            continue;
        }
        ++n;
        std::vector<std::string> row{app};

        const auto &alone = res.at("stitch/" + app);
        double ratio = static_cast<double>(alone.interWireBytes) /
                       static_cast<double>(base.interWireBytes);
        sums[0] += ratio;
        row.push_back(Table::fmt(ratio, 3));

        for (std::size_t i = 0; i < windows.size(); ++i) {
            const auto &pooled = res.at(
                "selpool" + std::to_string(windows[i]) + "/" + app);
            ratio = static_cast<double>(pooled.interWireBytes) /
                    static_cast<double>(base.interWireBytes);
            sums[i + 1] += ratio;
            row.push_back(Table::fmt(ratio, 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    if (n > 0) {
        ctx.out << "\nmean byte ratio: stitch-only "
                << Table::fmt(sums[0] / n, 3);
        for (std::size_t i = 0; i < windows.size(); ++i) {
            ctx.out << ", selpool-" << windows[i] << " "
                    << Table::fmt(sums[i + 1] / n, 3);
        }
        ctx.out << "\n(paper: pooling deepens savings; the curve "
                   "flattens past a 32-cycle window)\n";
    }
}

// --- Figure 21: 8B vs 16B flits ----------------------------------------

void
runFig21(FigureContext &ctx)
{
    banner(ctx.out, "Figure 21",
           "Stitching + Selective Flit Pooling: 8B vs 16B flits");

    // Each flit size gets its own baseline: flit size changes the
    // baseline too (segmentation differs).
    config::SystemConfig base8 = config::baselineConfig();
    base8.flitBytes = 8;
    config::SystemConfig nc8 = stitchSelective32();
    nc8.flitBytes = 8;
    const SweepResult res =
        runGrid(ctx, "fig21", {{"base16", config::baselineConfig()},
                               {"nc16", stitchSelective32()},
                               {"base8", base8},
                               {"nc8", nc8}});

    Table table({"app", "16B flits", "8B flits"});
    std::vector<double> s16, s8;
    for (const auto &app : apps()) {
        s16.push_back(
            speedup(res.at("base16/" + app), res.at("nc16/" + app)));
        s8.push_back(speedup(res.at("base8/" + app), res.at("nc8/" + app)));
        table.addRow({app, Table::fmt(s16.back(), 3),
                      Table::fmt(s8.back(), 3)});
    }
    table.print(ctx.out);
    ctx.out << "\ngeomean: 16B " << Table::fmt(harness::geomean(s16), 3)
            << "x, 8B " << Table::fmt(harness::geomean(s8), 3)
            << "x  (paper: smaller flits shrink but do not erase the "
               "benefit)\n";
}

// --- Figure 22: bandwidth sweep ----------------------------------------

struct BwPoint
{
    const char *label;
    double intra;
    double inter;
};

const std::vector<BwPoint> &
bwPoints()
{
    static const std::vector<BwPoint> points = {
        {"128:16 (8:1, baseline)", 128, 16},
        {"256:32 (8:1)", 256, 32},
        {"512:64 (8:1)", 512, 64},
        {"128:32 (4:1)", 128, 32},
        {"128:64 (2:1)", 128, 64},
        {"32:32 (homogeneous)", 32, 32},
    };
    return points;
}

void
runFig22(FigureContext &ctx)
{
    banner(ctx.out, "Figure 22",
           "NetCrafter speedup across bandwidth configurations");

    const auto &points = bwPoints();
    std::vector<ConfigPoint> configs;
    for (std::size_t i = 0; i < points.size(); ++i) {
        config::SystemConfig base = config::baselineConfig();
        base.intraClusterGBps = points[i].intra;
        base.interClusterGBps = points[i].inter;
        config::SystemConfig nc = fullNetcrafter();
        nc.intraClusterGBps = points[i].intra;
        nc.interClusterGBps = points[i].inter;
        configs.push_back({"base" + std::to_string(i), base});
        configs.push_back({"nc" + std::to_string(i), nc});
    }
    const SweepResult res = runGrid(ctx, "fig22", configs);

    std::vector<std::string> headers = {"app"};
    for (const auto &p : points)
        headers.push_back(p.label);
    Table table(headers);

    std::vector<std::vector<double>> speedups(points.size());
    for (const auto &app : apps()) {
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < points.size(); ++i) {
            const auto &b = res.at("base" + std::to_string(i) + "/" + app);
            const auto &v = res.at("nc" + std::to_string(i) + "/" + app);
            speedups[i].push_back(speedup(b, v));
            row.push_back(Table::fmt(speedups[i].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    ctx.out << "\ngeomean per configuration:";
    for (std::size_t i = 0; i < points.size(); ++i) {
        ctx.out << "  [" << points[i].label << "] "
                << Table::fmt(harness::geomean(speedups[i]), 3);
    }
    ctx.out << "\n(paper: consistent gains across every ratio, "
               "largest under the tightest bandwidth)\n";
}

// --- Ablation: mechanism combinations -----------------------------------

// Each mechanism alone, pairs, the full stack, and the two
// implementation-level choices DESIGN.md documents (candidate search
// depth, Cluster Queue size), on a representative app subset.
void
runAblation(FigureContext &ctx)
{
    banner(ctx.out, "Ablation",
           "mechanism combinations and implementation knobs");

    config::SystemConfig seq = config::baselineConfig();
    seq.netcrafter.sequencing = config::SequencingMode::PrioritizePtw;
    config::SystemConfig trim_seq = trimOnly();
    trim_seq.netcrafter.sequencing = config::SequencingMode::PrioritizePtw;
    config::SystemConfig shallow = fullNetcrafter();
    shallow.netcrafter.stitchSearchDepth = 4;
    config::SystemConfig small_cq = fullNetcrafter();
    small_cq.netcrafter.clusterQueueEntries = 128;
    const std::vector<ConfigPoint> points = {
        {"stitch", config::stitchingConfig(false)},
        {"trim", trimOnly()},
        {"seq", seq},
        {"trim+seq", trim_seq},
        {"full", fullNetcrafter()},
        {"full,depth4", shallow},
        {"full,CQ128", small_cq},
    };
    const std::vector<std::string> subset = {"GUPS", "MT", "SPMV",
                                             "SYR2K", "VGG16"};
    std::vector<ConfigPoint> configs = {{"base", config::baselineConfig()}};
    configs.insert(configs.end(), points.begin(), points.end());
    const SweepResult res = runGrid(ctx, "ablation", configs, subset);

    std::vector<std::string> headers = {"app"};
    for (const auto &p : points)
        headers.push_back(p.label);
    Table table(headers);

    std::vector<std::vector<double>> speedups(points.size());
    for (const auto &app : subset) {
        const auto &base = res.at("base/" + app);
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < points.size(); ++i) {
            speedups[i].push_back(
                speedup(base, res.at(points[i].label + "/" + app)));
            row.push_back(Table::fmt(speedups[i].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(ctx.out);

    ctx.out << "\ngeomean:";
    for (std::size_t i = 0; i < points.size(); ++i) {
        ctx.out << "  " << points[i].label << " "
                << Table::fmt(harness::geomean(speedups[i]), 3);
    }
    ctx.out << "\nNotes: trimming dominates for <=16B apps; "
               "sequencing composes with it; a shallow candidate "
               "search or a small Cluster Queue erodes stitching.\n";
}

} // namespace

const std::vector<Figure> &
figureRegistry()
{
    static const std::vector<Figure> figures = {
        {"table1", "16B flit census by packet type", runTable1},
        {"fig03", "ideal (all-high-bandwidth) speedup over baseline",
         runFig03},
        {"fig04", "inter-cluster network utilization, baseline vs ideal",
         runFig04},
        {"fig05", "inter-cluster read latency, ideal vs baseline",
         runFig05},
        {"fig06", "flits with ~25% / ~75% padding (baseline)", runFig06},
        {"fig07", "inter-cluster reads by bytes needed (baseline)",
         runFig07},
        {"fig08", "prioritizing PTW-related vs data accesses", runFig08},
        {"fig09",
         "PTW-related vs data bytes on the inter-cluster network",
         runFig09},
        {"fig12", "flits stitched: Stitching alone vs + Flit Pooling",
         runFig12},
        {"table3", "evaluated applications", runTable3},
        {"fig14",
         "overall speedup of NetCrafter's cumulative mechanisms",
         runFig14},
        {"fig15", "inter-cluster read latency: baseline vs NetCrafter",
         runFig15},
        {"fig16", "L1 MPKI: baseline vs Trimming vs 16B sector cache",
         runFig16},
        {"fig17", "GEMM L1 MPKI vs trim/sector granularity", runFig17},
        {"fig18", "Stitching + Flit Pooling window sweep", runFig18},
        {"fig19", "Stitching + Selective Flit Pooling window sweep",
         runFig19},
        {"fig20", "inter-cluster wire bytes, normalized to baseline",
         runFig20},
        {"fig21", "Stitching + Selective Flit Pooling: 8B vs 16B flits",
         runFig21},
        {"fig22", "NetCrafter speedup across bandwidth configurations",
         runFig22},
        {"ablation", "mechanism combinations and implementation knobs",
         runAblation},
    };
    return figures;
}

const Figure *
findFigure(const std::string &name)
{
    for (const auto &fig : figureRegistry()) {
        if (name == fig.name)
            return &fig;
    }
    return nullptr;
}

config::SystemConfig
stitchSelective32()
{
    return config::stitchingConfig(true, true, 32);
}

config::SystemConfig
stitchTrim()
{
    config::SystemConfig cfg = stitchSelective32();
    cfg.netcrafter.trimming = true;
    cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
    return cfg;
}

config::SystemConfig
fullNetcrafter()
{
    return config::netcrafterConfig();
}

std::vector<ConfigPoint>
fig14Configs()
{
    return {{"base", config::baselineConfig()},
            {"stitch", stitchSelective32()},
            {"trim", stitchTrim()},
            {"full", fullNetcrafter()},
            {"sector", config::sectorCacheConfig(16)}};
}

void
banner(std::ostream &os, const std::string &fig,
       const std::string &caption)
{
    os << "==============================================\n"
       << fig << " - " << caption << "\n"
       << "==============================================\n";
}

double
speedup(const harness::RunResult &base, const harness::RunResult &v)
{
    return static_cast<double>(base.cycles) /
           static_cast<double>(v.cycles);
}

} // namespace netcrafter::exp
