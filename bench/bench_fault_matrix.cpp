/**
 * @file
 * Fault matrix: fault scenarios (Sec. III-C) x degradation policy x
 * pipeline mode, in closed loop against the Sec. IV sudden wall.
 *
 * The matrix rows are the named fleet presets
 * (fleet::faultMatrixPresets()) crossed with the bare and supervised
 * stack presets in both pipeline modes (sync load shedding vs async
 * backpressure deferral), executed by the FleetRunner — the same sweep
 * engine bench_fleet_sweep scales up — instead of a hand-rolled loop.
 * Every stack faces bit-identical world and fault streams (the runner
 * forks scenario Rngs from the environment only), so the columns are a
 * controlled experiment. Each cell injects one fault class into the
 * full proactive+reactive stack, reporting collision, minimum gap,
 * proactive availability, the worst degradation level reached, and the
 * fault-layer counters.
 *
 * The matrix is the repo's robustness headline, now in both modes:
 * every scenario must end without collision when supervision is on
 * (sync AND async), and the async supervised column must match the
 * sync supervised column on collision outcome and availability — the
 * async runtime survives everything the sync runtime survives.
 *
 * Usage:
 *   bench_fault_matrix [smoke=1] [horizon_s=40] [wall_x=40] [seed=1]
 *                      [threads=N] [out=BENCH_fault_matrix.json]
 *
 * smoke=1 runs a reduced matrix (the smoke fault presets, shorter
 * horizon) for CI. Exit is nonzero if a supervised cell collided or
 * the async supervised column diverged: CI runs the matrix as a hard
 * robustness gate. threads outside [0, 1024] (0 = one per hardware
 * thread), a horizon_s that is not a positive finite number, or a
 * non-finite wall_x prints the usage line and exits 2.
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/config.h"
#include "fleet/fleet_runner.h"
#include "harness.h"

using namespace sov;
using namespace sov::fleet;

namespace {

void
printRow(const ScenarioOutcome &o, const std::string &policy,
         const char *mode, const std::string &fault_name)
{
    std::printf("%-24s %-11s %-6s %-9s gap=%6.2f  avail=%5.1f%%  "
                "worst=%-13s failed=%-3llu canlost=%-3llu drop=%llu\n",
                fault_name.c_str(), policy.c_str(), mode,
                o.collided ? "COLLIDED" : o.stopped ? "stopped" : "cruise",
                o.min_gap,
                100.0 * o.availability,
                toString(o.worst_level),
                static_cast<unsigned long long>(o.pipeline_frames_failed),
                static_cast<unsigned long long>(o.can_frames_lost),
                static_cast<unsigned long long>(o.sensor_dropouts));
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const double horizon_s =
        config.getDouble("horizon_s", smoke ? 20.0 : 40.0);
    const double wall_x = config.getDouble("wall_x", 40.0);
    const auto seed = static_cast<std::uint64_t>(config.getInt("seed", 1));
    const std::int64_t threads_arg = config.getInt("threads", 0);
    const std::string out_path =
        config.getString("out", "BENCH_fault_matrix.json");
    const std::string usage =
        "usage: bench_fault_matrix [smoke=1] [horizon_s>0] [wall_x=40] "
        "[seed=1] [threads=0.." +
        std::to_string(bench::kMaxBenchThreads) +
        "] [out=BENCH_fault_matrix.json]";
    config.rejectUnread(usage);
    if (threads_arg < 0 || threads_arg > bench::kMaxBenchThreads ||
        !std::isfinite(horizon_s) || horizon_s <= 0.0 ||
        !std::isfinite(wall_x)) {
        std::fprintf(stderr, "%s\n", usage.c_str());
        return 2;
    }
    const auto threads = static_cast<std::size_t>(threads_arg);

    std::vector<FaultPreset> presets = faultMatrixPresets();
    if (smoke) {
        std::vector<FaultPreset> kept;
        for (FaultPreset &p : presets)
            if (p.smoke)
                kept.push_back(std::move(p));
        presets = std::move(kept);
    }

    WorldPreset world = suddenWallWorld(wall_x);
    world.horizon_s = horizon_s;

    // Stack axis order fixes the row layout: per fault preset, the two
    // sync columns then the two async columns.
    struct Column
    {
        const char *policy;
        const char *mode;
        bool supervised;
    };
    const Column columns[4] = {{"bare", "sync", false},
                               {"supervised", "sync", true},
                               {"bare", "async", false},
                               {"supervised", "async", true}};
    ScenarioMatrix matrix;
    matrix.addWorld(world)
        .addFaults(presets)
        .addStack(bareStack())
        .addStack(supervisedStack())
        .addStack(bareAsyncStack())
        .addStack(supervisedAsyncStack())
        .addSeed(seed);

    std::printf("=== Fault matrix: Sec. III-C scenarios x degradation "
                "policy x pipeline mode ===\n");
    std::printf("wall at %.0f m, horizon %.0f s, seed %llu%s\n\n",
                wall_x, horizon_s,
                static_cast<unsigned long long>(seed),
                smoke ? " [smoke]" : "");
    std::printf("%-24s %-11s %-6s %-9s %s\n", "scenario", "policy", "mode",
                "outcome", "metrics");

    FleetRunner runner(FleetConfig{threads, seed});
    const FleetReport report = runner.run(matrix);

    const std::vector<ScenarioOutcome> &rows = report.outcomes();
    bench::BenchReport report_out("fault_matrix");
    report_out.setSmoke(smoke);
    const auto addCell = [&report_out](const ScenarioOutcome &o,
                                       const Column &col,
                                       const std::string &fault_name) {
        report_out.addRow("cells")
            .set("fault", fault_name)
            .set("policy", col.policy)
            .set("mode", col.mode)
            .set("outcome", o.collided   ? "collided"
                            : o.stopped ? "stopped"
                                        : "cruise")
            .set("min_gap_m", o.min_gap)
            .set("availability", o.availability)
            .set("worst_level", toString(o.worst_level))
            .set("frames_failed", o.pipeline_frames_failed)
            .set("frames_dropped", o.frames_dropped)
            .set("can_frames_lost", o.can_frames_lost)
            .set("sensor_dropouts", o.sensor_dropouts);
    };
    int collisions_supervised = 0;
    int async_mismatches = 0;
    for (std::size_t f = 0; f < presets.size(); ++f) {
        const ScenarioOutcome *cells[4];
        for (std::size_t c = 0; c < 4; ++c) {
            cells[c] = &rows.at(4 * f + c);
            printRow(*cells[c], columns[c].policy, columns[c].mode,
                     presets[f].name);
            addCell(*cells[c], columns[c], presets[f].name);
            if (columns[c].supervised && cells[c]->collided)
                ++collisions_supervised;
        }
        // The async supervised cell must survive exactly what the sync
        // supervised cell survives, and — since backpressure deferral
        // admits frames that load shedding would drop — must never be
        // *worse* on availability (a small tolerance absorbs the
        // different fault-draw sequences the extra frames consume).
        const ScenarioOutcome &sync_sup = *cells[1];
        const ScenarioOutcome &async_sup = *cells[3];
        if (async_sup.collided != sync_sup.collided ||
            async_sup.availability < sync_sup.availability - 0.02) {
            ++async_mismatches;
            std::printf("  !! async/sync divergence on %s: collided "
                        "%d/%d, avail %.3f/%.3f\n",
                        presets[f].name.c_str(), async_sup.collided,
                        sync_sup.collided, async_sup.availability,
                        sync_sup.availability);
        }
        std::printf("\n");
    }

    const FleetTiming &timing = runner.lastTiming();
    std::printf("%zu scenarios x 4 cells; %d collisions under "
                "supervision (expected 0); %d async/sync mismatches "
                "(expected 0); %.3f s wall on %zu threads "
                "(%.0f scenarios/sec)\n",
                presets.size(), collisions_supervised, async_mismatches,
                timing.wall_seconds, timing.threads,
                timing.scenarios_per_second);

    report_out.meta("wall_x", wall_x);
    report_out.meta("horizon_s", horizon_s);
    report_out.meta("threads", timing.threads);
    report_out.meta("wall_s", timing.wall_seconds);
    report_out.meta("scenarios_per_sec", timing.scenarios_per_second);
    report_out.meta("collisions_supervised", collisions_supervised);
    report_out.meta("async_mismatches", async_mismatches);
    report_out.extra("report", report.toJson());
    report_out.attachMetrics(runner.mergedMetrics());
    // Exit nonzero on a supervised collision (either mode) or an
    // async/sync divergence: CI runs the matrix as a robustness gate.
    report_out.gate("no_supervised_collisions", collisions_supervised == 0,
                    collisions_supervised == 0
                        ? ""
                        : "a supervised stack collided");
    report_out.gate("async_matches_sync", async_mismatches == 0,
                    async_mismatches == 0
                        ? ""
                        : "async supervised diverged from sync supervised");
    return report_out.write(out_path);
}
