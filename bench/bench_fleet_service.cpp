/**
 * @file
 * Saturation bench of the sov::serve scenario service.
 *
 * Four phases over a live ScenarioService:
 *
 *   calibrate   — direct FleetRunner cost of one scenario on this
 *                 machine/build (per_scenario_ms); every later gate
 *                 bound is derived from it, so the bench is meaningful
 *                 under sanitizers and on slow CI machines alike.
 *   saturation  — a flood tenant parks a 2x-overload backlog; a probe
 *                 tenant then submits single-scenario jobs and the
 *                 bench gates the probe's p99 time-to-first-result
 *                 against a small multiple of the calibrated scenario
 *                 cost. Under fair-share scheduling TTFR is O(one
 *                 scenario); under FIFO it would be O(backlog).
 *   fairness    — 4 equal-weight tenants each submit an identical
 *                 saturating job; at a mid-flight threshold the bench
 *                 computes the Jain index over per-tenant completions
 *                 (gate: >= 0.9).
 *   cache       — the same job cold then warm on a 1-worker service;
 *                 gates: every warm row is a cache hit, the warm
 *                 report is fingerprint-identical, and the warm job is
 *                 >= 5x faster end to end.
 *   determinism — the same job at 1/2/8 workers must produce
 *                 fingerprint-identical reports (the fleet contract,
 *                 carried through the serving layer).
 *
 * Usage:
 *   bench_fleet_service [smoke=1] [seed=1] [horizon_s=2] [workers=N]
 *                       [probes=N] [out=BENCH_fleet_service.json]
 *
 * workers outside [1, 1024], probes < 1, or a horizon_s that is not a
 * positive finite number prints the usage line and exits 2.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/thread_pool.h"
#include "fleet/fleet_runner.h"
#include "harness.h"
#include "serve/service.h"

using namespace sov;
using namespace sov::serve;

namespace {

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** @p count distinct short scenarios starting at @p seed_base. */
std::vector<fleet::ScenarioSpec>
makeScenarios(std::size_t count, std::uint64_t seed_base,
              double horizon_s)
{
    fleet::WorldPreset wall = fleet::suddenWallWorld(40.0);
    wall.horizon_s = horizon_s;
    fleet::WorldPreset open = fleet::openRoadWorld();
    open.horizon_s = horizon_s;
    fleet::ScenarioMatrix m;
    m.addWorld(wall)
        .addWorld(open)
        .addFault(fleet::noFaultPreset())
        .addStack(fleet::bareStack())
        .addSeeds(seed_base, (count + 1) / 2);
    auto specs = m.enumerate();
    specs.resize(count);
    return specs;
}

TenantConfig
generousTenant(std::string name)
{
    TenantConfig t;
    t.name = std::move(name);
    t.rate_scenarios_per_s = 1e9;
    t.burst_scenarios = 1e9;
    t.max_queued_scenarios = 100000000;
    t.weight = 1;
    return t;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
}

/** Jain fairness index: (sum x)^2 / (n * sum x^2); 1 = perfectly fair. */
double
jainIndex(const std::vector<double> &xs)
{
    double sum = 0.0, sumsq = 0.0;
    for (double x : xs) {
        sum += x;
        sumsq += x * x;
    }
    if (sumsq <= 0.0)
        return 0.0;
    return sum * sum /
           (static_cast<double>(xs.size()) * sumsq);
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const auto seed = static_cast<std::uint64_t>(config.getInt("seed", 1));
    const double horizon_s = config.getDouble("horizon_s", 2.0);
    const std::size_t hw = ThreadPool::defaultThreads();
    const std::int64_t workers_arg = config.getInt(
        "workers",
        std::min(static_cast<std::int64_t>(hw), bench::kMaxBenchThreads));
    const std::int64_t probes_arg = config.getInt("probes", smoke ? 6 : 16);
    if (workers_arg < 1 || workers_arg > bench::kMaxBenchThreads ||
        probes_arg < 1 || !std::isfinite(horizon_s) || horizon_s <= 0.0) {
        std::fprintf(stderr,
                     "usage: bench_fleet_service [smoke=1] [seed=1] "
                     "[horizon_s>0] [workers=1..%lld] [probes>=1] "
                     "[out=BENCH_fleet_service.json]\n",
                     static_cast<long long>(bench::kMaxBenchThreads));
        return 2;
    }
    const auto workers = static_cast<std::size_t>(workers_arg);
    const auto probes = static_cast<std::size_t>(probes_arg);
    const std::string out_path =
        config.getString("out", "BENCH_fleet_service.json");

    bench::BenchReport report("fleet_service");
    report.setSmoke(smoke);
    report.meta("workers", workers);
    report.meta("horizon_s", horizon_s);

    // ---- calibrate: direct per-scenario cost on this machine --------
    const auto calib_specs = makeScenarios(4, seed + 1000, horizon_s);
    fleet::FleetRunner calib_runner(fleet::FleetConfig{1, seed});
    const double calib_t0 = nowMs();
    for (const auto &spec : calib_specs)
        calib_runner.runScenario(spec);
    const double per_scenario_ms =
        (nowMs() - calib_t0) / static_cast<double>(calib_specs.size());
    report.meta("per_scenario_ms", per_scenario_ms);
    std::printf("=== Fleet service bench (%zu workers%s) ===\n", workers,
                smoke ? ", smoke" : "");
    std::printf("calibration: %.2f ms per scenario\n\n", per_scenario_ms);

    // ---- saturation: probe TTFR under a 2x-overload flood ----------
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.master_seed = seed;
        cfg.cache_capacity = 0; // measure simulation, not replay
        cfg.tenants = {generousTenant("flood"), generousTenant("probe")};
        ScenarioService service(cfg);

        // 2x overload: twice the scenario backlog the pool can finish
        // within the probe window, split over a few jobs.
        const std::size_t flood_n = 2 * workers * probes;
        const std::size_t flood_jobs = 4;
        std::vector<JobId> flood_ids;
        const double submit_t0 = nowMs();
        for (std::size_t j = 0; j < flood_jobs; ++j) {
            const auto r = service.submit(JobRequest{
                "flood", "flood",
                makeScenarios((flood_n + flood_jobs - 1) / flood_jobs,
                              seed + 2000 + j * 1000, horizon_s),
                std::nullopt});
            if (r.admitted)
                flood_ids.push_back(r.id);
        }
        const double submit_wall_ms = nowMs() - submit_t0;
        const double submit_rate =
            submit_wall_ms > 0.0
                ? 1000.0 * static_cast<double>(flood_jobs) / submit_wall_ms
                : 0.0;

        std::vector<double> ttfrs;
        const double window_t0 = nowMs();
        for (std::size_t p = 0; p < probes; ++p) {
            const auto r = service.submit(JobRequest{
                "probe", "probe",
                makeScenarios(1, seed + 9000 + p, horizon_s),
                std::nullopt});
            if (!r.admitted)
                continue;
            const auto done = service.wait(r.id);
            if (done && done->ttfr_ms >= 0.0)
                ttfrs.push_back(done->ttfr_ms);
        }
        const double window_ms = nowMs() - window_t0;
        const auto metrics = service.metricsSnapshot();
        const double scen_per_s =
            window_ms > 0.0
                ? 1000.0 *
                      static_cast<double>(
                          metrics.counter("serve.scenarios_completed")) /
                      window_ms
                : 0.0;
        for (JobId id : flood_ids)
            service.cancel(id);

        const double ttfr_p50 = percentile(ttfrs, 50.0);
        const double ttfr_p99 = percentile(ttfrs, 99.0);
        // Fair share makes probe TTFR O(one scenario): its shard is
        // dispatched within roughly one in-flight generation. FIFO
        // would pay the whole flood backlog (~2*probes scenarios per
        // worker). The bound sits well above the former, well below
        // the latter, scaled by the calibrated cost.
        const double ttfr_bound_ms =
            std::max(250.0, 8.0 * per_scenario_ms);
        std::printf("saturation: backlog %zu scen, probe TTFR p50 %.1f "
                    "ms p99 %.1f ms (bound %.1f ms), %.1f scen/s, "
                    "%.0f submits/s\n",
                    flood_n, ttfr_p50, ttfr_p99, ttfr_bound_ms,
                    scen_per_s, submit_rate);

        report.addRow("saturation")
            .set("tenant", std::string("probe"))
            .set("backlog_scenarios", flood_n)
            .set("probes", ttfrs.size())
            .set("ttfr_p50_ms", ttfr_p50)
            .set("ttfr_p99_ms", ttfr_p99)
            .set("ttfr_bound_ms", ttfr_bound_ms)
            .set("scenarios_per_sec", scen_per_s)
            .set("submit_jobs_per_sec", submit_rate);
        report.gate("ttfr_p99_bounded",
                    !ttfrs.empty() && ttfr_p99 <= ttfr_bound_ms,
                    "probe p99 TTFR under 2x overload vs calibrated "
                    "bound");
    }

    // ---- fairness: 4 equal tenants, Jain index mid-contention ------
    {
        ServiceConfig cfg;
        cfg.workers = workers;
        cfg.master_seed = seed;
        cfg.cache_capacity = 0;
        const std::size_t n_tenants = 4;
        for (std::size_t t = 0; t < n_tenants; ++t)
            cfg.tenants.push_back(
                generousTenant("t" + std::to_string(t)));
        ScenarioService service(cfg);

        const std::size_t per_tenant = (smoke ? 8 : 16) * workers;
        std::vector<JobId> ids;
        for (std::size_t t = 0; t < n_tenants; ++t) {
            const auto r = service.submit(JobRequest{
                "t" + std::to_string(t), "fair",
                makeScenarios(per_tenant, seed + 20000 + t * 1000,
                              horizon_s),
                std::nullopt});
            if (r.admitted)
                ids.push_back(r.id);
        }
        // Sample the per-tenant counters mid-contention: once half the
        // threshold window has completed, every tenant is still
        // backlogged, so the counts measure scheduling, not job size.
        const std::uint64_t threshold = 2 * workers * n_tenants;
        obs::MetricRegistry metrics;
        for (;;) {
            metrics = service.metricsSnapshot();
            if (metrics.counter("serve.scenarios_completed") >= threshold)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::vector<double> completions;
        for (std::size_t t = 0; t < n_tenants; ++t)
            completions.push_back(static_cast<double>(metrics.counter(
                "serve.tenant.t" + std::to_string(t) + ".completed")));
        for (JobId id : ids)
            service.cancel(id);

        const double jain = jainIndex(completions);
        std::printf("fairness: completions");
        for (std::size_t t = 0; t < n_tenants; ++t)
            std::printf(" t%zu=%.0f", t, completions[t]);
        std::printf(", Jain %.3f\n", jain);
        for (std::size_t t = 0; t < n_tenants; ++t) {
            report.addRow("tenants")
                .set("tenant", "t" + std::to_string(t))
                .set("completed_mid_window", completions[t])
                .set("fairness_jain", jain);
        }
        report.gate("fairness_jain", jain >= 0.9,
                    "Jain index across 4 equal tenants >= 0.9");
    }

    // ---- cache: cold vs warm replay on one worker ------------------
    {
        ServiceConfig cfg;
        cfg.workers = 1; // per-scenario comparison, no parallel masking
        cfg.master_seed = seed;
        cfg.cache_capacity = 4096;
        cfg.tenants = {generousTenant("t0")};
        ScenarioService service(cfg);

        const auto specs =
            makeScenarios(smoke ? 8 : 16, seed + 30000, horizon_s);
        const auto cold = service.submit(
            JobRequest{"t0", "cold", specs, std::nullopt});
        const auto cold_done = service.wait(cold.id);
        const auto warm = service.submit(
            JobRequest{"t0", "warm", specs, std::nullopt});
        const auto warm_done = service.wait(warm.id);

        const bool ok = cold_done && warm_done;
        const double cold_ms = ok ? cold_done->wall_ms : 0.0;
        const double warm_ms = ok ? warm_done->wall_ms : 1.0;
        const double speedup =
            warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
        const bool all_hits =
            ok && warm_done->cache_hits == specs.size();
        const bool bit_identical =
            ok && warm_done->fingerprint == cold_done->fingerprint &&
            warm_done->fingerprint != 0;
        std::printf("cache: cold %.1f ms, warm %.1f ms (%.1fx), "
                    "hits %zu/%zu, %s\n",
                    cold_ms, warm_ms, speedup,
                    ok ? warm_done->cache_hits : 0, specs.size(),
                    bit_identical ? "bit-identical" : "MISMATCH");

        report.addRow("cache")
            .set("scenarios", specs.size())
            .set("cold_wall_ms", cold_ms)
            .set("warm_wall_ms", warm_ms)
            .set("hit_speedup", speedup)
            .set("cache_hits", ok ? warm_done->cache_hits : 0)
            .set("bit_identical", bit_identical);
        report.gate("cache_all_hits", all_hits,
                    "every warm row replayed from the cache");
        report.gate("cache_bit_identical", bit_identical,
                    "warm report fingerprint equals cold");
        report.gate("cache_hit_speedup", speedup >= 5.0,
                    "warm job >= 5x faster end to end");
        report.attachMetrics(service.metricsSnapshot());
    }

    // ---- determinism: worker count must not change the report ------
    {
        const auto specs = makeScenarios(8, seed + 40000, horizon_s);
        std::uint64_t first = 0;
        bool deterministic = true;
        for (const std::size_t w : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
            ServiceConfig cfg;
            cfg.workers = w;
            cfg.master_seed = seed;
            cfg.tenants = {generousTenant("t0")};
            ScenarioService service(cfg);
            const auto r = service.submit(
                JobRequest{"t0", "", specs, std::nullopt});
            const auto done = service.wait(r.id);
            const std::uint64_t fp = done ? done->fingerprint : 0;
            report.addRow("determinism")
                .set("name", "workers_" + std::to_string(w))
                .set("workers", w)
                .set("fingerprint", bench::hex(fp));
            if (first == 0)
                first = fp;
            else if (fp != first)
                deterministic = false;
        }
        std::printf("determinism: %s\n",
                    deterministic
                        ? "bit-identical at 1/2/8 workers"
                        : "FINGERPRINT MISMATCH");
        report.gate("deterministic_across_workers",
                    deterministic && first != 0,
                    "same job fingerprint at 1/2/8 workers");
    }

    return report.write(out_path);
}
