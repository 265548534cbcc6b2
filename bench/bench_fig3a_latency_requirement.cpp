/**
 * @file
 * Reproduces Fig. 2 / Fig. 3a: the end-to-end latency model (Eq. 1)
 * and the computing-latency requirement as a function of the distance
 * at which an object is sensed.
 *
 * Expected shape (paper): the budget tightens as the object gets
 * closer; 164 ms mean T_comp covers objects >= ~5 m; 740 ms worst case
 * needs >= 8.3 m; the braking distance (~4 m) is the hard floor.
 *
 * Usage:
 *   bench_fig3a_latency_requirement [speed=5.6] [decel=4.0]
 *                                   [out=BENCH_fig3a_latency_requirement.json]
 *
 * A speed (m/s) or decel (m/s^2) that is not a finite number in
 * [0.1, 100] prints the usage line and exits 2: the model divides by
 * both, and the budgets must stay representable as durations.
 */
#include <cmath>
#include <cstdio>

#include "analysis/latency_model.h"
#include "core/config.h"
#include "harness.h"

using namespace sov;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromArgs(argc, argv);
    const double speed = cfg.getDouble("speed", 5.6);
    const double decel = cfg.getDouble("decel", 4.0);
    const auto in_range = [](double x) {
        return std::isfinite(x) && x >= 0.1 && x <= 100.0;
    };
    if (!in_range(speed) || !in_range(decel)) {
        std::fprintf(stderr,
                     "usage: bench_fig3a_latency_requirement "
                     "[speed in 0.1..100] [decel in 0.1..100] "
                     "[out=BENCH_fig3a_latency_requirement.json]\n");
        return 2;
    }
    LatencyModelParams params;
    params.speed = Speed::metersPerSecond(speed);
    params.brake_decel = decel;

    bench::BenchReport report("fig3a_latency_requirement");
    report.meta("speed_mps", params.speed.toMetersPerSecond());
    report.meta("brake_decel", params.brake_decel);
    report.meta("braking_distance_m", brakingDistance(params));
    report.meta("stopping_time_s", stoppingTime(params).toSeconds());

    std::printf("=== Fig. 2 / Eq. 1: end-to-end latency model ===\n");
    std::printf("v = %.2f m/s, a = %.1f m/s^2, T_data = %.0f ms, "
                "T_mech = %.0f ms\n",
                params.speed.toMetersPerSecond(), params.brake_decel,
                params.t_data.toMillis(), params.t_mech.toMillis());
    std::printf("braking distance (floor) : %.2f m\n",
                brakingDistance(params));
    std::printf("stopping time            : %.2f s\n\n",
                stoppingTime(params).toSeconds());

    std::printf("=== Fig. 3a: T_comp requirement vs object distance ===\n");
    std::printf("%-14s %-22s\n", "distance (m)", "T_comp budget (ms)");
    double prev_budget_ms = -1e30;
    bool budget_monotone = true;
    for (double d = 4.0; d <= 9.01; d += 0.25) {
        const Duration budget = computeLatencyBudget(params, d);
        const bool avoidable = budget >= Duration::zero();
        if (!avoidable) {
            std::printf("%-14.2f %-22s\n", d, "unavoidable");
        } else {
            std::printf("%-14.2f %-22.1f\n", d, budget.toMillis());
        }
        report.addRow("budget")
            .set("distance_m", d)
            .set("budget_ms", budget.toMillis())
            .set("avoidable", avoidable);
        if (budget.toMillis() < prev_budget_ms)
            budget_monotone = false;
        prev_budget_ms = budget.toMillis();
    }

    std::printf("\n=== Paper reference points ===\n");
    std::printf("mean T_comp 164 ms  -> min avoidable distance %.2f m "
                "(paper: ~5 m)\n",
                minimumAvoidableDistance(params, Duration::millisF(164)));
    std::printf("worst T_comp 740 ms -> min avoidable distance %.2f m "
                "(paper: 8.3 m)\n",
                minimumAvoidableDistance(params, Duration::millisF(740)));
    std::printf("reactive path 30 ms -> min avoidable distance %.2f m "
                "(paper: 4.1 m)\n",
                brakingDistance(params) +
                    0.030 * params.speed.toMetersPerSecond());

    report.meta("min_avoidable_mean_m",
                minimumAvoidableDistance(params, Duration::millisF(164)));
    report.meta("min_avoidable_worst_m",
                minimumAvoidableDistance(params, Duration::millisF(740)));
    report.gate("budget_monotone_in_distance", budget_monotone,
                "farther objects must leave a larger compute budget");
    return report.write(cfg.getString("out", report.defaultPath()));
}
