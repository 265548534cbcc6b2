/**
 * @file
 * Procedural scenario fuzzing with near-miss triage: the coverage
 * bench of the agent-driven world layer.
 *
 * Samples N agent-populated worlds from seed-forked generators
 * (fleet/fuzzer.h), runs them through the FleetRunner under the bare
 * stack at 1, 2, and 8 worker threads, and mines the results for
 * collisions and near misses (fleet/triage.h). Three hard gates:
 *
 *  - cv_bit_identity: a stepped world holding only constant-velocity
 *    obstacles publishes rows byte-identical to the legacy analytic
 *    model, before and after advanceTo — the contract that keeps every
 *    pre-existing preset, fingerprint and BENCH baseline valid.
 *  - fleet_deterministic: the FleetReport fingerprint is bit-identical
 *    across all thread counts.
 *  - triage_deterministic: so is the triage fingerprint, even though
 *    triage rows are fed from a concurrent per-scenario hook.
 *
 * Usage:
 *   bench_scenario_fuzz [smoke=1] [worlds=200] [seed=1]
 *                       [horizon_s=20] [out=BENCH_scenario_fuzz.json]
 *
 * smoke=1 drops to 12 worlds for CI. worlds < 1, or a horizon_s that
 * is not a positive finite number, prints the usage line and exits 2.
 * Every triage row carries the fuzz seed that rebuilds its world via
 * fuzzWorldPreset(seed) — the one-seed repro for any incident in the
 * table.
 */
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "core/config.h"
#include "fleet/fleet_runner.h"
#include "fleet/fuzzer.h"
#include "fleet/triage.h"
#include "harness.h"
#include "world/world.h"

using namespace sov;
using namespace sov::fleet;

namespace {

bool
sameBox(const OrientedBox2 &a, const OrientedBox2 &b)
{
    return a.pose.position.x() == b.pose.position.x()
        && a.pose.position.y() == b.pose.position.y()
        && a.pose.heading == b.pose.heading
        && a.half_length == b.half_length && a.half_width == b.half_width;
}

/**
 * The legacy-compatibility gate: constant-velocity obstacles in a
 * stepped world must serve the exact closed form the analytic World
 * served, bitwise, at any query time and regardless of how often the
 * timeline has been advanced.
 */
bool
cvBitIdentity()
{
    World world;
    Rng rng(7);
    std::vector<Obstacle> spawned;
    for (int i = 0; i < 6; ++i) {
        Obstacle o;
        o.cls = (i % 2) ? ObjectClass::Car : ObjectClass::Pedestrian;
        o.footprint = OrientedBox2{
            Pose2{Vec2(rng.uniform(5.0, 120.0), rng.uniform(-5.0, 5.0)),
                  rng.uniform(0.0, 3.1)},
            rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.0)};
        o.velocity = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0));
        o.id = world.addObstacle(o);
        spawned.push_back(o);
    }

    const Pose2 ego{Vec2(0.0, 0.0), 0.0};
    const std::vector<Timestamp> queries{
        Timestamp::origin(), Timestamp::seconds(0.05),
        Timestamp::seconds(3.33), Timestamp::seconds(11.0)};

    auto identical = [&]() {
        const auto &rows = world.obstacles();
        if (rows.size() != spawned.size())
            return false;
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Obstacle &got = rows[i];
            const Obstacle &want = spawned[i];
            if (got.id != want.id || got.cls != want.cls)
                return false;
            if (got.velocity.x() != want.velocity.x()
                || got.velocity.y() != want.velocity.y())
                return false;
            if (!sameBox(got.footprint, want.footprint))
                return false;
            for (Timestamp t : queries)
                if (!sameBox(got.footprintAt(t), want.footprintAt(t)))
                    return false;
        }
        return true;
    };

    if (!identical())
        return false;
    // Step the timeline in uneven chunks; CV rows must not move.
    world.advanceTo(Timestamp::seconds(1.23), ego, 5.0);
    if (!identical())
        return false;
    world.advanceTo(Timestamp::seconds(7.9), ego, 5.0);
    return identical();
}

std::uint64_t
fuzzSeedOf(const std::string &world_name)
{
    // World names are "fuzz-<seed>" (fuzzWorldPreset).
    const auto dash = world_name.rfind('-');
    if (dash == std::string::npos)
        return 0;
    return std::stoull(world_name.substr(dash + 1));
}

struct SweepResult
{
    std::size_t threads = 0;
    double wall_s = 0.0;
    double scen_per_s = 0.0;
    std::uint64_t fleet_fingerprint = 0;
    std::uint64_t triage_fingerprint = 0;
    FleetReport report;
    TriageReport triage;
};

SweepResult
runSweep(const std::vector<ScenarioSpec> &scenarios, std::size_t threads,
         std::uint64_t master_seed)
{
    SweepResult out;
    out.threads = threads;

    // Per-index triage slots: the hook runs on worker threads, so it
    // writes by scenario index and the report is folded afterwards in
    // index order — same discipline as the runner's outcome rows.
    std::vector<TriageRow> slots(scenarios.size());
    FleetConfig cfg;
    cfg.threads = threads;
    cfg.master_seed = master_seed;
    cfg.scenario_hook = [&slots](const ScenarioSpec &spec,
                                 const ClosedLoopResult &r) {
        TriageRow row;
        row.scenario = spec.name;
        row.index = spec.index;
        row.fuzz_seed = fuzzSeedOf(spec.world.name);
        row.collided = r.collided;
        row.min_gap = r.min_gap;
        row.min_ttc = r.min_ttc;
        row.offender = r.nearest_obstacle;
        slots[spec.index] = std::move(row);
    };

    FleetRunner runner(cfg);
    out.report = runner.run(scenarios);
    const FleetTiming &t = runner.lastTiming();
    out.wall_s = t.wall_seconds;
    out.scen_per_s = t.scenarios_per_second;
    for (TriageRow &row : slots)
        out.triage.addRow(std::move(row));
    out.fleet_fingerprint = out.report.fingerprint();
    out.triage_fingerprint = out.triage.fingerprint();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Config config = Config::fromArgs(argc, argv);
    const bool smoke = config.getBool("smoke", false);
    const std::int64_t worlds_arg = config.getInt("worlds", smoke ? 12 : 200);
    const auto seed = static_cast<std::uint64_t>(config.getInt("seed", 1));
    const double horizon_s = config.getDouble("horizon_s", 20.0);
    const std::string out_path =
        config.getString("out", "BENCH_scenario_fuzz.json");
    const char *const usage =
        "usage: bench_scenario_fuzz [smoke=1] [worlds>=1] [seed=1] "
        "[horizon_s>0] [out=BENCH_scenario_fuzz.json]";
    config.rejectUnread(usage);
    if (worlds_arg < 1 || !std::isfinite(horizon_s) || horizon_s <= 0.0) {
        std::fprintf(stderr, "%s\n", usage);
        return 2;
    }
    const auto worlds = static_cast<std::size_t>(worlds_arg);

    const bool cv_ok = cvBitIdentity();
    std::printf("cv bit-identity (stepped vs analytic): %s\n",
                cv_ok ? "IDENTICAL" : "MISMATCH");

    FuzzConfig fuzz;
    fuzz.base_seed = seed;
    fuzz.worlds = worlds;
    fuzz.horizon_s = horizon_s;

    ScenarioMatrix matrix;
    for (WorldPreset &w : fuzzWorlds(fuzz))
        matrix.addWorld(std::move(w));
    matrix.addFault(noFaultPreset());
    matrix.addStack(bareStack());
    matrix.addSeed(seed);
    const std::vector<ScenarioSpec> scenarios = matrix.enumerate();

    std::printf("\n=== Scenario fuzz: %zu worlds, horizon %.0f s%s ===\n",
                worlds, horizon_s, smoke ? " [smoke]" : "");
    std::printf("%8s %12s %16s  %-18s %s\n", "threads", "wall [s]",
                "scenarios/sec", "fleet fp", "triage fp");

    std::vector<SweepResult> sweeps;
    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
        SweepResult r = runSweep(scenarios, threads, seed);
        std::printf("%8zu %12.3f %16.1f  %s %s\n", r.threads, r.wall_s,
                    r.scen_per_s, bench::hex(r.fleet_fingerprint).c_str(),
                    bench::hex(r.triage_fingerprint).c_str());
        sweeps.push_back(std::move(r));
    }

    bool fleet_deterministic = true;
    bool triage_deterministic = true;
    for (const SweepResult &r : sweeps) {
        fleet_deterministic &=
            r.fleet_fingerprint == sweeps.front().fleet_fingerprint;
        triage_deterministic &=
            r.triage_fingerprint == sweeps.front().triage_fingerprint;
    }

    const TriageReport &triage = sweeps.front().triage;
    const TriageSummary summary = triage.summarize();
    const std::vector<TriageRow> incidents = triage.incidents();
    std::printf("\ntriage: %llu scenarios, %llu collisions, "
                "%llu near misses; min-gap p10 %.2f m p50 %.2f m; "
                "ttc p10 %.2f s p50 %.2f s\n",
                static_cast<unsigned long long>(summary.scenarios),
                static_cast<unsigned long long>(summary.collisions),
                static_cast<unsigned long long>(summary.near_misses),
                summary.min_gap_digest.quantile(0.10),
                summary.min_gap_digest.quantile(0.50),
                summary.min_ttc_digest.quantile(0.10),
                summary.min_ttc_digest.quantile(0.50));

    const std::size_t shortlist =
        incidents.size() < 20 ? incidents.size() : 20;
    if (shortlist > 0)
        std::printf("\n%-28s %10s %9s %10s %9s %9s\n", "incident",
                    "fuzz seed", "collided", "min gap", "min ttc",
                    "offender");
    for (std::size_t i = 0; i < shortlist; ++i) {
        const TriageRow &r = incidents[i];
        std::printf("%-28s %10llu %9s %8.2fm %8.2fs %9llu\n",
                    r.scenario.c_str(),
                    static_cast<unsigned long long>(r.fuzz_seed),
                    r.collided ? "yes" : "no", r.min_gap,
                    r.min_ttc < 1e17 ? r.min_ttc : -1.0,
                    static_cast<unsigned long long>(r.offender));
    }

    bench::BenchReport report("scenario_fuzz");
    report.setSmoke(smoke);
    report.meta("worlds", worlds);
    report.meta("base_seed", seed);
    report.meta("horizon_s", horizon_s);
    for (const SweepResult &r : sweeps) {
        report.addRow("runs")
            .set("threads", r.threads)
            .set("wall_s", r.wall_s)
            .set("scenarios_per_sec", r.scen_per_s)
            .set("fleet_fingerprint", bench::hex(r.fleet_fingerprint))
            .set("triage_fingerprint", bench::hex(r.triage_fingerprint));
    }
    report.addRow("triage_summary")
        .set("scenarios", summary.scenarios)
        .set("collisions", summary.collisions)
        .set("near_misses", summary.near_misses)
        .set("min_gap_p10", summary.min_gap_digest.quantile(0.10))
        .set("min_gap_p50", summary.min_gap_digest.quantile(0.50))
        .set("min_ttc_p10", summary.min_ttc_digest.quantile(0.10))
        .set("min_ttc_p50", summary.min_ttc_digest.quantile(0.50));
    for (std::size_t i = 0; i < shortlist; ++i) {
        const TriageRow &r = incidents[i];
        report.addRow("incidents")
            .set("scenario", r.scenario)
            .set("fuzz_seed", r.fuzz_seed)
            .set("collided", r.collided)
            .set("min_gap", r.min_gap)
            .set("min_ttc", r.min_ttc)
            .set("offender", static_cast<std::uint64_t>(r.offender));
    }

    report.gate("cv_bit_identity", cv_ok,
                cv_ok ? "" : "stepped CV world diverged from the "
                             "analytic closed form");
    report.gate("fleet_deterministic", fleet_deterministic,
                fleet_deterministic ? "" : "FleetReport fingerprint "
                                           "varies with thread count");
    report.gate("triage_deterministic", triage_deterministic,
                triage_deterministic ? "" : "triage fingerprint varies "
                                            "with thread count");
    return report.write(out_path);
}
