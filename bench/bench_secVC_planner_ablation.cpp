/**
 * @file
 * Reproduces the Sec. V-C planner comparison: the lane-level MPC
 * (~3 ms on the paper's CPU) vs the Baidu-Apollo-style EM motion
 * planner (~100 ms, 33x). The bench times the real compute of both
 * implementations on this host; the ratio — not the absolute
 * numbers — is the reproduced result.
 *
 * Each row is a fixed batch of plan() calls, and the rows are timed
 * interleaved, best of N (bench::interleavedBestNs); a row's ns per
 * call is its best sample divided by its batch.
 *
 * Usage:
 *   bench_secVC_planner_ablation [smoke=1] [reps>=1]
 */
#include <cmath>
#include <cstdio>
#include <iterator>

#include "core/config.h"
#include "harness.h"
#include "planning/em_planner.h"
#include "planning/mpc.h"

using namespace sov;

namespace {

PlannerInput
busyIntersection()
{
    PlannerInput in;
    in.now = Timestamp::origin();
    Polyline2 path;
    for (int i = 0; i <= 60; ++i)
        path.append(Vec2(i * 1.0, 6.0 * std::sin(i / 18.0)));
    in.reference_path = path;
    in.ego_pose = Pose2{Vec2(2.0, 0.3), 0.1};
    in.ego_speed = 5.0;
    in.speed_limit = 5.6;
    for (int i = 0; i < 4; ++i) {
        FusedObject o;
        o.track_id = static_cast<std::uint32_t>(i);
        o.position = Vec2(12.0 + 9.0 * i, (i % 2) ? 1.0 : -0.8);
        o.velocity = Vec2(0.0, (i % 2) ? -0.4 : 0.3);
        in.objects.push_back(o);
    }
    return in;
}

EmPlannerConfig
lateralSamples(std::size_t n)
{
    EmPlannerConfig cfg;
    cfg.lateral_samples = n;
    return cfg;
}

/** A row's name and its plan() calls per timed sample (about a
 *  millisecond of work each on a 2 GHz Xeon). */
struct Micro
{
    const char *name;
    int batch;
};

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const std::int64_t reps = config.getInt("reps", smoke ? 3 : 20);
    const char *const usage =
        "usage: bench_secVC_planner_ablation [smoke=1] [reps>=1]";
    config.rejectUnread(usage);
    if (reps < 1) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }

    std::printf("=== Sec. V-C: planner cost comparison ===\n");
    std::printf("paper: lane-level MPC ~3 ms; EM-style planner ~100 ms "
                "(33x).\nThe reproduced result is the *ratio* of the "
                "first two rows below.\n\n");

    const PlannerInput in = busyIntersection();
    const MpcPlanner mpc;
    // Centimeter-granularity settings (the Apollo EM planner's whole
    // point, Sec. V-C): 0.25 m stations, 41 lateral samples, 24-speed
    // grid — versus the lane-granularity MPC.
    EmPlannerConfig fine;
    fine.station_step = 0.25;
    fine.lateral_samples = 41;
    fine.speed_samples = 24;
    const EmPlanner em(fine);
    // Ablation: EM planner cost vs lateral grid resolution — why
    // centimeter-granularity planning is expensive.
    const EmPlanner em7(lateralSamples(7)), em13(lateralSamples(13)),
        em25(lateralSamples(25)), em51(lateralSamples(51));

    const Micro micro[] = {{"BM_LaneLevelMpc", 64},
                           {"BM_EmStylePlanner", 1},
                           {"BM_EmStyleDpResolutionSweep/7", 8},
                           {"BM_EmStyleDpResolutionSweep/13", 8},
                           {"BM_EmStyleDpResolutionSweep/25", 4},
                           {"BM_EmStyleDpResolutionSweep/51", 2}};
    const auto batch = [&in](int calls, const auto &planner) {
        return [calls, &planner, &in] {
            for (int i = 0; i < calls; ++i)
                planner.plan(in);
        };
    };
    const auto best = bench::interleavedBestNs(
        reps, batch(micro[0].batch, mpc), batch(micro[1].batch, em),
        batch(micro[2].batch, em7), batch(micro[3].batch, em13),
        batch(micro[4].batch, em25), batch(micro[5].batch, em51));
    static_assert(std::size(micro) == best.size());

    bench::BenchReport report("secVC_planner_ablation");
    report.setSmoke(smoke);
    std::printf("%-32s %14s %10s\n", "row", "ns per call", "calls");
    double ns[std::size(micro)];
    for (std::size_t i = 0; i < std::size(micro); ++i) {
        ns[i] = best[i] / micro[i].batch;
        const std::int64_t calls = reps * micro[i].batch;
        std::printf("%-32s %14.0f %10lld\n", micro[i].name, ns[i],
                    static_cast<long long>(calls));
        report.addRow("micro")
            .set("name", micro[i].name)
            .set("real_ns_per_iter", ns[i])
            .set("iterations", calls);
    }
    report.meta("em_over_mpc", ns[1] / ns[0]);
    report.gate("em_costlier_than_mpc", ns[1] > ns[0],
                "paper: EM-style planner ~33x the lane-level MPC");
    return report.write();
}
