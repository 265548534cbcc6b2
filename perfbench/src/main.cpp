/**
 * @file
 * perfbench: the repo benchmark's measuring program.
 *
 *   perfbench --workload sweep|fuzz|serve|frame --seed N --seconds S
 *             --trace 0|1 [--trace-out PATH] [--commit ID]
 *
 * Prints the host record, the workload's figures under the names the
 * benchmark documents, with --trace 1 the per-layer table, and as the
 * last line one JSON object {correct, attempted, failed, metrics}.
 * Every unknown or malformed flag is a usage error (exit 2).
 */
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <sys/resource.h>

#include "core/kernels.h"
#include "core/simd.h"
#include "perfbench.h"

using namespace perfbench;

namespace {

const Clock::time_point kProcessStart = Clock::now();

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(
        stderr,
        "perfbench: %s\n"
        "usage: perfbench --workload sweep|fuzz|serve|frame --seed N "
        "--seconds S --trace 0|1 [--trace-out PATH] [--commit ID]\n",
        why.c_str());
    std::exit(2);
}

double
parseDouble(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d))
        usage("bad number for " + key + ": '" + v + "'");
    return d;
}

std::uint64_t
parseU64(const std::string &key, const std::string &v)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || v[0] == '-')
        usage("bad integer for " + key + ": '" + v + "'");
    return n;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    opt.start = kProcessStart;
    opt.build_type = PERFBENCH_BUILD_TYPE;
    const std::map<std::string, std::function<void(const std::string &)>>
        flags = {
            {"--workload", [&](const std::string &v) { opt.workload = v; }},
            {"--seed", [&](const std::string &v) {
                 opt.seed = parseU64("--seed", v);
             }},
            {"--seconds", [&](const std::string &v) {
                 opt.seconds = parseDouble("--seconds", v);
             }},
            {"--trace", [&](const std::string &v) {
                 if (v != "0" && v != "1")
                     usage("--trace takes 0 or 1");
                 opt.trace = v == "1";
             }},
            {"--trace-out", [&](const std::string &v) { opt.trace_out = v; }},
            {"--commit", [&](const std::string &v) { opt.commit = v; }},
        };
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        const auto it = flags.find(key);
        if (it == flags.end())
            usage("unknown argument '" + key + "'");
        if (i + 1 >= argc)
            usage("missing value for " + key);
        it->second(argv[++i]);
    }
    if (opt.workload != "sweep" && opt.workload != "fuzz" &&
        opt.workload != "serve" && opt.workload != "frame")
        usage("unknown workload '" + opt.workload + "'");
    if (opt.seconds <= 0.0)
        usage("--seconds must be positive");
    return opt;
}

/** What a per-layer metric should move, and where it should not. */
struct LayerDoc
{
    const char *metric;
    const char *moves;     //!< end-to-end figure @ workload
    const char *flat_on;   //!< workloads whose figures should not move
};

constexpr LayerDoc kLayerDocs[] = {
    {"fleet.scenario_ms_p50", "scenarios_per_s@sweep,fuzz; job_ms_p50@serve", "frame"},
    {"fleet.scenario_ms_p90", "scenarios_per_s@sweep,fuzz; job_ms_p50@serve", "frame"},
    {"fleet.host_ns_per_physics_step", "scenarios_per_s@sweep,fuzz", "frame"},
    {"fleet.parallel_eff", "scenarios_per_s@sweep,fuzz; max_jobs_per_s@serve", "frame"},
    {"fleet.supervised_over_bare", "scenarios_per_s@sweep,fuzz", "frame"},
    {"fleet.merge_us_per_row", "job_ms_p99@serve", "frame"},
    {"world.build_us", "job_ms_p50@serve", "frame"},
    {"world.advance_us_per_tick", "scenarios_per_s@fuzz; job_ms_p50@serve", "sweep"},
    {"world.raycast_ns", "scenarios_per_s@sweep,fuzz; job_ms_p50@serve", "frame"},
    {"world.obstacles_near_ns", "scenarios_per_s@sweep,fuzz; job_ms_p50@serve", "frame"},
    {"world.box_distance_ns", "scenarios_per_s@sweep,fuzz; job_ms_p50@serve", "frame"},
    {"sensors.radar_nearest_ns", "scenarios_per_s@sweep,fuzz", "frame"},
    {"planning.first_collision_us", "scenarios_per_s@sweep,fuzz", "frame"},
    {"planning.mpc_plan_us", "scenarios_per_s@sweep,fuzz; frame_ms_p50@frame", "-"},
    {"runtime.host_us_per_frame", "scenarios_per_s@sweep,fuzz", "frame"},
    {"runtime.exec_overhead_us", "frame_ms_p50@frame", "sweep"},
    {"serve.submit_us_p90", "ttfr_ms_p99@serve", "sweep, fuzz, frame"},
    {"serve.status_us_p90", "ttfr_ms_p99@serve", "sweep, fuzz, frame"},
    {"serve.rows_us_p90", "ttfr_ms_p99@serve", "sweep, fuzz, frame"},
    {"serve.cache_hit_ratio", "job_ms_p50; max_jobs_per_s@serve", "sweep, fuzz"},
    {"serve.queued_shards_max", "max_jobs_per_s@serve", "-"},
    {"serve.gen_lag_ms_p90", "- (validity check)@serve", "-"},
    {"sensors.render_ms", "setup_s@frame", "-"},
    {"sensors.lidar_scan_ms", "setup_s@frame", "-"},
    {"vision.stereo_ms", "frame_ms_p50@frame", "sweep, fuzz, serve"},
    {"vision.detect_ms", "frame_ms_p50@frame", "sweep, fuzz, serve"},
    {"vision.kcf_us", "frame_ms_p50, frame_ms_p90@frame", "sweep, fuzz, serve"},
    {"pointcloud.icp_ms", "frame_ms_p90@frame", "sweep, fuzz, serve"},
    {"trace.overhead_frac", "- (traced vs untraced, interleaved)", "-"},
};

void
printLayerTable(const SpanRecorder &rec)
{
    const std::vector<LayerRow> rows = selfTimes(rec.spans(), rec.names());
    double total = 0.0;
    for (const LayerRow &r : rows)
        total += r.self_ns;
    std::printf("\nper-span host time (self = span minus its children):\n");
    std::printf("%-28s %9s %12s %14s %7s\n", "span", "calls", "self_ms",
                "self_ns/call", "share");
    for (const LayerRow &r : rows) {
        std::printf("%-28s %9zu %12.3f %14.1f %6.2f%%\n", r.name.c_str(),
                    r.calls, r.self_ns / 1e6,
                    r.self_ns / static_cast<double>(r.calls),
                    total > 0.0 ? 100.0 * r.self_ns / total : 0.0);
    }
}

/** The per-layer metrics with the figure each should move. */
void
printLayerMetrics(const std::map<std::string, Metric> &metrics)
{
    if (metrics.size() != std::size(kLayerDocs)) {
        std::fprintf(stderr, "perfbench: %zu per-layer metrics, %zu documented\n",
                     metrics.size(), std::size(kLayerDocs));
        std::exit(3);
    }
    std::printf("\nper-layer metrics:\n");
    std::printf("%-32s %14s %-6s %-44s %s\n", "metric", "value", "unit",
                "should move (figure@workload)", "flat on");
    for (const LayerDoc &doc : kLayerDocs) {
        const auto it = metrics.find(doc.metric);
        if (it == metrics.end()) {
            std::fprintf(stderr, "perfbench: per-layer metric %s missing\n",
                         doc.metric);
            std::exit(3);
        }
        std::printf("%-32s %14.4f %-6s %-44s %s\n", doc.metric,
                    it->second.value, it->second.unit.c_str(), doc.moves,
                    doc.flat_on);
    }
}

/** (steal, total) jiffies of the host CPU line of /proc/stat; zeros
 *  where the file is unavailable. */
std::pair<double, double>
cpuJiffies()
{
    std::FILE *f = std::fopen("/proc/stat", "r");
    if (!f)
        return {0.0, 0.0};
    double v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    const int n = std::fscanf(f, "cpu %lf %lf %lf %lf %lf %lf %lf %lf", &v[0],
                              &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                              &v[7]);
    std::fclose(f);
    if (n != 8)
        return {0.0, 0.0};
    double total = 0.0;
    for (double x : v)
        total += x;
    return {v[7], total};
}

double
peakRssMb()
{
    struct rusage usage_info;
    getrusage(RUSAGE_SELF, &usage_info);
    return static_cast<double>(usage_info.ru_maxrss) / 1024.0; // KiB -> MiB
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    std::printf("== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::printf("host: nproc=%zu simd=%s build=%s compiler=%s backend=%s "
                "seed=%llu commit=%s\n",
                hostThreads(), sov::simdLevelName(sov::detectSimdLevel()),
                opt.build_type.c_str(), __VERSION__,
                sov::kernelBackendName(sov::defaultKernelBackend()),
                static_cast<unsigned long long>(opt.seed),
                opt.commit.empty() ? "unknown" : opt.commit.c_str());
    std::fflush(stdout);

    SpanRecorder rec(opt.trace);
    const auto [steal0, total0] = cpuJiffies();
    Outcome o;
    if (opt.workload == "sweep")
        o = runSweep(opt, rec);
    else if (opt.workload == "fuzz")
        o = runFuzz(opt, rec);
    else if (opt.workload == "serve")
        o = runServe(opt, rec);
    else
        o = runFrame(opt, rec);

    const double rss = peakRssMb();
    const auto [steal1, total1] = cpuJiffies();
    // Time the hypervisor ran other guests on this machine's CPUs: the
    // one interference a run can see, and a reason figures may drift.
    o.notes.push_back("host CPU steal during the run: " +
                      std::to_string(total1 > total0
                                         ? 100.0 * (steal1 - steal0) /
                                               (total1 - total0)
                                         : 0.0) +
                      "%");
    for (const std::string &note : o.notes)
        std::printf("  %s\n", note.c_str());
    std::printf("\nend-to-end (%s):\n",
                opt.trace ? "untraced part of the window" : "untraced");
    for (const auto &[name, m] : o.report)
        std::printf("  %-32s %14.4f %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-32s %14.4f %s\n", "failed_frac",
                o.attempted ? static_cast<double>(o.failed) /
                                  static_cast<double>(o.attempted)
                            : 0.0,
                "ratio");
    std::printf("  %-32s %14.4f %s\n", "peak_rss_mb", rss, "MB");
    if (!opt.trace)
        o.metrics["peak_rss_mb"] = {rss, "MB"};

    if (opt.trace) {
        printLayerTable(rec);
        printLayerMetrics(o.metrics);
        if (!opt.trace_out.empty()) {
            if (writeChromeTrace(opt.trace_out, rec, "perfbench"))
                std::printf("chrome trace: %s\n", opt.trace_out.c_str());
            else
                std::fprintf(stderr, "perfbench: cannot write %s\n",
                             opt.trace_out.c_str());
        }
    }
    if (!o.valid) {
        std::fprintf(stderr, "perfbench: run invalid (see notes)\n");
        return 4;
    }

    std::printf("\n");
    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (o.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << o.attempted << ", \"failed\": "
         << o.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : o.metrics) {
        json << (first ? "" : ", ") << '"' << name << "\": {\"value\": "
             << m.value << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    return 0;
}
