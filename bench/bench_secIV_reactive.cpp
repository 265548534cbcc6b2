/**
 * @file
 * Reproduces the Sec. IV safety results in closed loop: the hybrid
 * proactive-reactive design.
 *
 *  - Proactive path (sensing->perception->planning, mean 164 ms):
 *    avoids obstacles first sensed >= ~5 m away.
 *  - Reactive path (radar -> ECU, ~30 ms): stops for obstacles that
 *    appear at ~4.2 m, near the 3.9 m braking-distance limit.
 *  - Inside the braking envelope nothing helps (physics).
 *
 * Also reports the fraction of time spent proactive on a normal
 * route (paper: > 90%).
 */
#include <cstdio>

#include "core/config.h"
#include "harness.h"
#include "sovpipe/closed_loop.h"

using namespace sov;

namespace {

Obstacle
wallAt(double x)
{
    Obstacle o;
    o.footprint = OrientedBox2{Pose2{Vec2(x, 0.0), 0.0}, 0.5, 2.5};
    o.height = 2.0;
    return o;
}

struct Row
{
    double appear_distance;
    bool proactive;
    bool reactive;
};

ClosedLoopResult
runRow(const Row &row, std::uint64_t seed, bench::BenchReport &report)
{
    World world;
    world.addObstacle(wallAt(row.appear_distance));
    ClosedLoopConfig cfg;
    cfg.enable_proactive = row.proactive;
    cfg.enable_reactive = row.reactive;
    ClosedLoopSim sim(world, Polyline2({Vec2(0, 0), Vec2(300, 0)}), cfg,
                      SovPipelineConfig{}, Rng(seed));
    const auto result = sim.run(Duration::seconds(40.0));
    const char *outcome = result.collided  ? "COLLIDED"
                          : result.stopped ? "stopped"
                                           : "cruise";
    std::printf("%10.1f m   %-10s %-10s %-10s gap=%6.2f m  "
                "reactive-triggers=%llu\n",
                row.appear_distance,
                row.proactive ? "on" : "off",
                row.reactive ? "on" : "off", outcome, result.min_gap,
                static_cast<unsigned long long>(
                    result.reactive_triggers));
    report.addRow("rows")
        .set("appear_distance_m", row.appear_distance)
        .set("proactive", row.proactive)
        .set("reactive", row.reactive)
        .set("outcome", outcome)
        .set("min_gap_m", result.min_gap)
        .set("reactive_triggers", result.reactive_triggers);
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    Config::fromArgs(argc, argv).rejectUnread(
        "usage: bench_secIV_reactive (takes no flags)");
    std::printf("=== Sec. IV: proactive + reactive safety, closed "
                "loop ===\n");
    std::printf("vehicle at 5.6 m/s; braking distance 3.9 m; obstacle "
                "center at the listed distance\n\n");
    std::printf("%12s   %-10s %-10s %-10s\n", "obstacle", "proactive",
                "reactive", "outcome");

    bench::BenchReport report("secIV_reactive");
    // Far obstacle: proactive alone handles it smoothly.
    const auto far = runRow({60.0, true, false}, 1, report);
    // Mid-distance: still proactive territory.
    runRow({20.0, true, false}, 2, report);
    // Sudden appearance at ~6 m: proactive alone is marginal (mean
    // 164 ms latency); the reactive path saves it.
    const auto sudden = runRow({6.0, false, true}, 3, report);
    runRow({6.0, true, true}, 4, report);
    // Inside the braking envelope: physically unavoidable.
    runRow({2.5, true, true}, 5, report);

    // Normal operations: fraction of time proactive.
    {
        World world;
        Obstacle ped;
        ped.cls = ObjectClass::Pedestrian;
        ped.footprint =
            OrientedBox2{Pose2{Vec2(150.0, -8.0), 0.0}, 0.3, 0.3};
        ped.velocity = Vec2(0.0, 0.5);
        world.addObstacle(ped);
        ClosedLoopConfig cfg;
        ClosedLoopSim sim(world, Polyline2({Vec2(0, 0), Vec2(300, 0)}),
                          cfg, SovPipelineConfig{}, Rng(6));
        const auto result = sim.run(Duration::seconds(80.0));
        std::printf("\nnormal route: %.1f%% of cycles proactive "
                    "(paper: > 90%%), %.0f m driven, %s\n",
                    100.0 * (1.0 - result.reactive_fraction),
                    result.distance_travelled,
                    result.collided ? "COLLIDED" : "no incident");
        report.meta("normal_proactive_fraction",
                    1.0 - result.reactive_fraction);
        report.meta("normal_distance_m", result.distance_travelled);
        report.gate("normal_mostly_proactive",
                    1.0 - result.reactive_fraction > 0.9,
                    "paper: > 90% of cycles proactive on a normal route");
    }

    std::printf("\nlatency ladder (Sec. IV): reactive path 30 ms -> "
                "objects at ~4.2 m;\nproactive best-case 149 ms -> ~5 m;"
                " braking distance 3.9 m is the floor.\n");
    report.gate("proactive_handles_far", !far.collided,
                "obstacle sensed 60 m out must be avoided proactively");
    report.gate("reactive_saves_sudden", !sudden.collided,
                "30 ms reactive path must stop for a 6 m appearance");
    return report.write();
}
