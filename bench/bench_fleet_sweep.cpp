/**
 * @file
 * Fleet-scale scenario sweep: the repo's headline throughput number.
 *
 * Enumerates a scenario matrix (worlds x Sec. III-C fault presets x
 * bare/supervised stacks x seeds — >= 500 scenarios by default), runs
 * it on the FleetRunner at 1, 2 and 4 threads and at max_threads
 * (default: the hardware concurrency), skipping any count above
 * max_threads, and reports scenarios/sec per thread count, then host
 * time per physics step for each world at one thread. The hard gate is
 * the fleet determinism contract: every thread count must produce a
 * bit-identical FleetReport (compared by fingerprint); any mismatch
 * exits nonzero. Speedup is reported but not gated — it depends on the
 * machine's core count.
 *
 * Usage:
 *   bench_fleet_sweep [smoke=1] [seed=1] [seeds=4] [horizon_s=40]
 *                     [max_threads=N] [out=BENCH_fleet.json]
 *
 * smoke=1 runs the reduced (~40 scenario) matrix for CI; max_threads=1
 * runs everything on one thread. max_threads outside [1, 1024] or
 * seeds < 1 prints the usage line and exits 2.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <vector>

#include "core/config.h"
#include "core/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "harness.h"

using namespace sov;
using namespace sov::fleet;

namespace {

ScenarioMatrix
buildMatrix(bool smoke, std::uint64_t seed, std::size_t seeds,
            double horizon_s)
{
    ScenarioMatrix matrix;
    for (double wall_x : {30.0, 40.0, 50.0})
        matrix.addWorld(suddenWallWorld(wall_x));
    matrix.addWorld(openRoadWorld());
    matrix.addWorld(crossingPedestrianWorld(150.0, 0.5));
    matrix.addWorld(trafficWorld(6));
    matrix.addFaults(faultMatrixPresets());
    matrix.addStack(bareStack());
    matrix.addStack(supervisedStack());
    if (smoke) {
        matrix.smokeOnly();
        matrix.addSeed(seed);
    } else {
        matrix.addSeeds(seed, seeds);
    }
    // Apply the horizon override to every world axis entry.
    ScenarioMatrix out;
    for (WorldPreset w : matrix.worlds()) {
        w.horizon_s = horizon_s;
        out.addWorld(std::move(w));
    }
    out.addFaults(matrix.faults());
    for (const StackPreset &s : matrix.stacks())
        out.addStack(s);
    for (std::uint64_t s : matrix.seeds())
        out.addSeed(s);
    return out;
}

/** One world's share of a single-thread pass over the matrix. */
struct WorldCost
{
    std::string world;
    std::size_t scenarios = 0;
    double physics_steps = 0.0;
    double wall_s = 0.0;
};

/** Run every scenario on one thread, timing each, grouped by world in
 *  matrix order. */
std::vector<WorldCost>
worldCosts(const std::vector<ScenarioSpec> &scenarios, std::uint64_t seed)
{
    using Clock = std::chrono::steady_clock;
    const FleetRunner runner(FleetConfig{1, seed});
    std::vector<WorldCost> costs;
    for (const ScenarioSpec &spec : scenarios) {
        auto it = std::find_if(costs.begin(), costs.end(),
                               [&spec](const WorldCost &c) {
                                   return c.world == spec.world.name;
                               });
        if (it == costs.end())
            it = costs.insert(costs.end(), WorldCost{spec.world.name});
        const Clock::time_point t0 = Clock::now();
        const ScenarioOutcome row = runner.runScenario(spec);
        it->wall_s +=
            std::chrono::duration<double>(Clock::now() - t0).count();
        it->physics_steps +=
            row.sim_elapsed_s * spec.stack.loop.physics_rate_hz;
        ++it->scenarios;
    }
    return costs;
}

struct ThreadResult
{
    std::size_t threads;
    double wall_s;
    double scen_per_s;
    std::uint64_t fingerprint;
};

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const auto seed = static_cast<std::uint64_t>(config.getInt("seed", 1));
    const std::int64_t seeds = config.getInt("seeds", smoke ? 1 : 4);
    const double horizon_s = config.getDouble("horizon_s", 40.0);
    const std::size_t hw = ThreadPool::defaultThreads();
    const std::vector<std::size_t> thread_counts = bench::threadLadder(
        config.getInt("max_threads",
                      std::min(static_cast<std::int64_t>(hw),
                               bench::kMaxBenchThreads)));
    const std::string out_path =
        config.getString("out", "BENCH_fleet.json");
    const std::string usage =
        "usage: bench_fleet_sweep [smoke=1] [seed=1] [seeds>=1] "
        "[horizon_s=40] [max_threads=1.." +
        std::to_string(bench::kMaxBenchThreads) + "] [out=BENCH_fleet.json]";
    config.rejectUnread(usage);
    if (thread_counts.empty() || seeds < 1) {
        std::fprintf(stderr, "%s\n", usage.c_str());
        return 2;
    }
    const std::size_t max_threads = thread_counts.back();

    const ScenarioMatrix matrix = buildMatrix(
        smoke, seed, static_cast<std::size_t>(seeds), horizon_s);
    const std::vector<ScenarioSpec> scenarios = matrix.enumerate();

    std::printf("=== Fleet sweep: %zu scenarios (%zu worlds x %zu faults "
                "x %zu stacks x %zu seeds)%s ===\n",
                scenarios.size(), matrix.worlds().size(),
                matrix.faults().size(), matrix.stacks().size(),
                matrix.seeds().size(), smoke ? " [smoke]" : "");
    std::printf("hardware concurrency: %zu\n\n", hw);
    if (hw < 4) {
        std::printf("note: <4 hardware threads — speedups above %zux "
                    "are not expected on this machine\n\n", hw);
    }

    std::printf("%8s %12s %16s %10s  %s\n", "threads", "wall [s]",
                "scenarios/sec", "speedup", "fingerprint");

    std::vector<ThreadResult> results;
    FleetReport reference;
    obs::MetricRegistry reference_metrics;
    bool deterministic = true;
    for (std::size_t threads : thread_counts) {
        FleetRunner runner(FleetConfig{threads, seed});
        FleetReport report = runner.run(scenarios);
        const FleetTiming &t = runner.lastTiming();
        ThreadResult r{threads, t.wall_seconds, t.scenarios_per_second,
                       report.fingerprint()};
        const double speedup =
            results.empty() ? 1.0 : results.front().scen_per_s > 0.0
                ? r.scen_per_s / results.front().scen_per_s
                : 0.0;
        std::printf("%8zu %12.3f %16.1f %9.2fx  %016llx\n", threads,
                    r.wall_s, r.scen_per_s, speedup,
                    static_cast<unsigned long long>(r.fingerprint));
        if (results.empty()) {
            reference = std::move(report);
            reference_metrics = runner.mergedMetrics();
        } else if (r.fingerprint != results.front().fingerprint) {
            deterministic = false;
        }
        results.push_back(r);
    }

    const FleetAggregate &a = reference.aggregate();
    std::printf("\naggregate: %llu collisions, %llu stops, %llu cruises; "
                "availability p50 %.1f%%; min-gap p10 %.2f m; "
                "pipeline mean-latency p50 %.1f ms\n",
                static_cast<unsigned long long>(a.collisions),
                static_cast<unsigned long long>(a.stops),
                static_cast<unsigned long long>(a.cruises),
                100.0 * a.availability_digest.quantile(0.50),
                a.min_gap_digest.quantile(0.10),
                a.pipeline_mean_ms_digest.quantile(0.50));
    std::printf("determinism: %s\n",
                deterministic ? "bit-identical across all thread counts"
                              : "FINGERPRINT MISMATCH");

    bench::BenchReport report_out("fleet_sweep");
    report_out.setSmoke(smoke);
    report_out.meta("scenarios", scenarios.size());
    report_out.meta("deterministic", deterministic);
    for (const ThreadResult &r : results) {
        const double speedup = results.front().scen_per_s > 0.0
            ? r.scen_per_s / results.front().scen_per_s
            : 0.0;
        report_out.addRow("runs")
            .set("threads", r.threads)
            .set("wall_s", r.wall_s)
            .set("scenarios_per_sec", r.scen_per_s)
            .set("speedup", speedup)
            .set("fingerprint", bench::hex(r.fingerprint));
    }
    {
        std::ostringstream agg;
        agg << "{\"collisions\": " << a.collisions
            << ", \"stops\": " << a.stops
            << ", \"cruises\": " << a.cruises
            << ", \"availability_p50\": "
            << a.availability_digest.quantile(0.50)
            << ", \"min_gap_p10\": " << a.min_gap_digest.quantile(0.10)
            << "}";
        report_out.extra("aggregate", agg.str());
    }
    report_out.attachMetrics(reference_metrics);

    // ---- per-world host cost at 1 thread ----------------------------
    // Where the single-thread host time goes, world by world: host ns
    // per 200 Hz physics step (obstacle count drives the world-query
    // and gap-check cost of each step).
    const std::vector<WorldCost> costs = worldCosts(scenarios, seed);
    double total_wall_s = 0.0;
    for (const WorldCost &c : costs)
        total_wall_s += c.wall_s;
    std::printf("\n%-22s %10s %14s %10s %14s %8s\n", "world (1 thread)",
                "scenarios", "physics steps", "host [s]", "host ns/step",
                "share");
    for (const WorldCost &c : costs) {
        const double ns_per_step =
            c.physics_steps > 0.0 ? c.wall_s * 1e9 / c.physics_steps : 0.0;
        const double share =
            total_wall_s > 0.0 ? c.wall_s / total_wall_s : 0.0;
        std::printf("%-22s %10zu %14.0f %10.3f %14.1f %7.1f%%\n",
                    c.world.c_str(), c.scenarios, c.physics_steps, c.wall_s,
                    ns_per_step, 100.0 * share);
        report_out.addRow("worlds")
            .set("world", c.world)
            .set("scenarios", c.scenarios)
            .set("physics_steps", c.physics_steps)
            .set("wall_s", c.wall_s)
            .set("wall_ns_per_physics_step", ns_per_step)
            .set("wall_share", share);
    }

    // ---- pipeline modes: sync window (1 frame) vs async overlap -----
    // The same scenario slice under the supervised stack with the
    // pipeline admission window forced to 1 (every overlapping frame
    // is shed) and at its async default of 3 (cross-frame overlap).
    std::printf("\n%-14s %16s %14s %14s %12s\n", "pipeline", "scenarios/sec",
                "frames_drop", "latency p50", "avail p50");
    for (const StackPreset &stack :
         {syncPipelineStack(), supervisedStack()}) {
        ScenarioMatrix modes;
        for (const WorldPreset &w : matrix.worlds())
            modes.addWorld(w);
        modes.addFault(noFaultPreset());
        modes.addStack(stack);
        modes.addSeed(seed);
        FleetRunner runner(FleetConfig{max_threads, seed});
        const FleetReport mode_report = runner.run(modes.enumerate());
        const FleetTiming &t = runner.lastTiming();
        const FleetAggregate &ma = mode_report.aggregate();
        const char *mode =
            stack.loop.max_frames_in_flight == 1 ? "sync" : "async";
        const double latency_p50 =
            ma.pipeline_mean_ms_digest.quantile(0.50);
        const double avail_p50 =
            100.0 * ma.availability_digest.quantile(0.50);
        std::printf("%-14s %16.1f %14llu %11.1f ms %11.1f%%\n", mode,
                    t.scenarios_per_second,
                    static_cast<unsigned long long>(ma.frames_dropped),
                    latency_p50, avail_p50);
        report_out.addRow("pipeline_modes")
            .set("mode", mode)
            .set("stack", stack.name)
            .set("max_frames_in_flight",
                 stack.loop.max_frames_in_flight)
            .set("scenarios_per_sec", t.scenarios_per_second)
            .set("frames_dropped", ma.frames_dropped)
            .set("collisions", ma.collisions)
            .set("latency_p50_ms", latency_p50)
            .set("availability_p50", avail_p50);
    }

    // The sweep's hard gate is determinism, not speedup: scaling is a
    // property of the machine, bit-identical aggregation is ours.
    report_out.gate("deterministic", deterministic,
                    deterministic ? "" : "fingerprint mismatch across "
                                         "thread counts");
    return report_out.write(out_path);
}
