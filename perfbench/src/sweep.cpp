/**
 * @file
 * The batch workloads: one scenario list submitted at once to
 * FleetRunner at min(nproc, 4) threads, repeatedly for the measured
 * seconds. Every repetition's report fingerprint is checked against a
 * reference folded from per-scenario runs outside the runner.
 *
 * - sweep: the bench_fleet_sweep matrix (6 static or constant-velocity
 *   worlds x 11 Sec. III-C fault presets x bare / supervised stacks x
 *   4 seeds, 40 s horizon). No obstacle is ever republished, so the
 *   world layer only answers queries.
 * - fuzz: fuzzed agent worlds drawn from the seed (bare / supervised
 *   stacks, no fault, 5 s horizon). Agents republish their rows every
 *   100 ms tick, so the world layer writes beside its reads.
 */
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

#include "fleet/fleet_runner.h"
#include "fleet/fuzzer.h"
#include "perfbench.h"

using namespace sov;
using namespace sov::fleet;

namespace perfbench {

namespace {

constexpr std::size_t kMatrixSeeds = 4;
constexpr double kSweepHorizonS = 40.0;
// Many short drives rather than few long ones: the campaign is drawn
// from the seed, and a large one keeps the batch's cost from following
// the draw of a few busy worlds.
constexpr std::size_t kFuzzWorlds = 800;
constexpr double kFuzzHorizonS = 5.0;
/** Worlds the query probe replays: the first of the workload's. */
constexpr std::size_t kProbeWorlds = 6;

std::vector<WorldPreset>
sweepWorlds()
{
    std::vector<WorldPreset> worlds;
    for (double wall_x : {30.0, 40.0, 50.0})
        worlds.push_back(suddenWallWorld(wall_x));
    worlds.push_back(openRoadWorld());
    worlds.push_back(crossingPedestrianWorld(150.0, 0.5));
    worlds.push_back(trafficWorld(6));
    for (WorldPreset &w : worlds)
        w.horizon_s = kSweepHorizonS;
    return worlds;
}

std::vector<ScenarioSpec>
sweepScenarios(const std::vector<WorldPreset> &worlds)
{
    ScenarioMatrix m;
    for (const WorldPreset &w : worlds)
        m.addWorld(w);
    m.addFaults(faultMatrixPresets());
    m.addStack(bareStack());
    m.addStack(supervisedStack());
    m.addSeeds(1, kMatrixSeeds);
    return m.enumerate();
}

/** The fuzz campaign of @p seed, the source of every fuzz input. */
std::vector<WorldPreset>
fuzzCampaign(std::uint64_t seed)
{
    FuzzConfig cfg;
    cfg.base_seed = seed * 1000003ull;
    cfg.worlds = kFuzzWorlds;
    cfg.horizon_s = kFuzzHorizonS;
    return fuzzWorlds(cfg);
}

std::vector<ScenarioSpec>
fuzzScenarios(const std::vector<WorldPreset> &worlds)
{
    ScenarioMatrix m;
    for (const WorldPreset &w : worlds)
        m.addWorld(w);
    m.addFault(noFaultPreset());
    m.addStack(bareStack());
    m.addStack(supervisedStack());
    return m.enumerate();
}

/** Per-scenario wall time inside a batch: the interval between
 *  consecutive scenario completions on one worker (the first one of a
 *  batch is timed from the batch start). */
class BatchClock
{
  public:
    explicit BatchClock(std::size_t scenarios) : ms_(scenarios, 0.0) {}

    void
    start()
    {
        // Process-wide, so a worker's thread-local mark can never
        // match the epoch of a different batch.
        static std::atomic<std::uint64_t> next_epoch{0};
        epoch_ = ++next_epoch;
        batch_start_ = Clock::now();
    }

    void
    complete(std::size_t index)
    {
        thread_local std::uint64_t tl_epoch = 0;
        thread_local Clock::time_point tl_last;
        const Clock::time_point now = Clock::now();
        if (tl_epoch != epoch_) {
            tl_epoch = epoch_;
            tl_last = batch_start_;
        }
        ms_[index] = msBetween(tl_last, now);
        tl_last = now;
    }

    const std::vector<double> &ms() const { return ms_; }

  private:
    std::vector<double> ms_;
    Clock::time_point batch_start_;
    std::uint64_t epoch_ = 0; //!< written before workers start
};

/** Fold per-scenario runs on plain threads (no FleetRunner pool, no
 *  runner-side aggregation) into the reference report. */
FleetReport
referenceReport(const std::vector<ScenarioSpec> &scenarios,
                std::uint64_t master_seed, std::size_t threads)
{
    const FleetRunner runner(FleetConfig{1, master_seed});
    std::vector<ScenarioOutcome> rows(scenarios.size());
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            for (std::size_t i = t; i < scenarios.size(); i += threads)
                rows[i] = runner.runScenario(scenarios[i]);
        });
    }
    for (std::thread &w : workers)
        w.join();
    return FleetReport::fromOutcomes(std::move(rows));
}

/** Scenarios of @p got whose row differs from the reference. */
std::size_t
mismatchedRows(const FleetReport &got, const FleetReport &ref)
{
    if (got.fingerprint() == ref.fingerprint())
        return 0;
    const auto &a = got.outcomes();
    const auto &b = ref.outcomes();
    if (a.size() != b.size())
        return std::max(a.size(), b.size());
    std::size_t bad = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (FleetReport::fromOutcomes({a[i]}).fingerprint() !=
            FleetReport::fromOutcomes({b[i]}).fingerprint())
            ++bad;
    return bad == 0 ? a.size() : bad;
}

struct SweepWindow
{
    std::vector<double> rep_rates;    //!< scenarios/s, untraced repetitions
    std::vector<double> traced_rates; //!< scenarios/s, traced repetitions
    std::vector<double> scenario_ms;  //!< per-scenario wall, untraced
    std::vector<FleetReport> reports; //!< one per repetition
};

/**
 * Repeat the batch for @p seconds. With @p rec enabled every other
 * repetition is spanned, so traced and untraced repetitions share one
 * window and their difference is the tracing overhead, not the host's
 * drift between two windows.
 */
SweepWindow
runWindow(const std::vector<ScenarioSpec> &scenarios, std::uint64_t seed,
          std::size_t threads, double seconds, SpanRecorder &rec)
{
    SweepWindow w;
    BatchClock clock(scenarios.size());
    FleetConfig cfg{threads, seed};
    cfg.scenario_hook = [&clock](const ScenarioSpec &spec,
                                 const ClosedLoopResult &) {
        clock.complete(spec.index);
    };
    const std::uint32_t n_run = rec.intern("fleet.run");
    // At least two untraced repetitions so every window has a median.
    const std::size_t min_reps = rec.enabled() ? 4 : 2;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    while (w.reports.size() < min_reps || Clock::now() < deadline) {
        const bool traced = rec.enabled() && w.reports.size() % 2 == 1;
        FleetRunner runner(cfg);
        clock.start();
        const Clock::time_point t0 = Clock::now();
        std::optional<SpanScope> span;
        if (traced)
            span.emplace(rec, n_run, w.reports.size());
        FleetReport report = runner.run(scenarios);
        span.reset();
        const double rate = static_cast<double>(scenarios.size()) /
                            secondsBetween(t0, Clock::now());
        if (traced) {
            w.traced_rates.push_back(rate);
        } else {
            w.rep_rates.push_back(rate);
            w.scenario_ms.insert(w.scenario_ms.end(), clock.ms().begin(),
                                 clock.ms().end());
        }
        w.reports.push_back(std::move(report));
    }
    return w;
}

using MakeScenarios =
    std::vector<ScenarioSpec> (*)(const std::vector<WorldPreset> &);

/** One batch workload over @p worlds; @p make builds its scenario list
 *  during set-up, @p label describes it in the report. */
Outcome
runBatch(const Options &opt, SpanRecorder &rec,
         const std::vector<WorldPreset> &worlds, MakeScenarios make,
         const std::string &label)
{
    Outcome o;
    const std::size_t threads = std::min<std::size_t>(hostThreads(), 4);
    std::vector<ScenarioSpec> scenarios;
    // Set-up: the scenario list, warmed by its first sixth through a
    // runner at the measured thread count.
    const double setup_s = timedSetups(opt, o, [&] {
        scenarios = make(worlds);
        const std::vector<ScenarioSpec> slice(
            scenarios.begin(),
            scenarios.begin() +
                static_cast<std::ptrdiff_t>(scenarios.size() / 6));
        FleetRunner(FleetConfig{threads, opt.seed}).run(slice);
    });
    o.notes.push_back("matrix: " + std::to_string(scenarios.size()) +
                      " scenarios (" + label + ") at " +
                      std::to_string(threads) + " threads");

    const SweepWindow w =
        runWindow(scenarios, opt.seed, threads, opt.seconds, rec);

    // Output check: every repetition against the reference for this
    // seed and list, folded from per-scenario runs outside the runner.
    const FleetReport ref = referenceReport(scenarios, opt.seed, threads);
    for (const FleetReport &r : w.reports) {
        o.attempted += scenarios.size();
        o.failed += mismatchedRows(r, ref);
    }
    char fp[32];
    std::snprintf(fp, sizeof(fp), "%016llx",
                  static_cast<unsigned long long>(ref.fingerprint()));
    o.notes.push_back(std::string("reference fingerprint ") + fp + ", " +
                      std::to_string(w.reports.size()) +
                      " repetitions checked");

    const double rate = median(w.rep_rates);
    const Percentile p50 = percentile(w.scenario_ms, 50.0);
    const Percentile p90 = percentile(w.scenario_ms, 90.0);
    const Percentile p99 = percentile(w.scenario_ms, 99.0);
    report(o, "setup_s", setup_s, "s");
    report(o, "scenarios_per_s", rate, "scenarios/s");
    report(o, "scenario_ms_p50 (in batch)", p50.value, "ms");
    report(o, "scenario_ms_p90 (in batch)", p90.value, "ms");
    report(o, "scenario_ms_p99 (in batch)", p99.value, "ms");
    const auto [lo, hi] =
        std::minmax_element(w.rep_rates.begin(), w.rep_rates.end());
    o.notes.push_back("scenarios_per_s is the median of " +
                      std::to_string(w.rep_rates.size()) +
                      " untraced repetitions (min " + std::to_string(*lo) +
                      ", max " + std::to_string(*hi) + "); scenario_ms over " +
                      std::to_string(p50.samples) + " scenarios" +
                      (p99.valid ? "" : " (p99 refused: too few samples)"));
    const FleetAggregate &a = ref.aggregate();
    o.notes.push_back("outcomes (model time, not failures): " +
                      std::to_string(a.collisions) + " collisions, " +
                      std::to_string(a.stops) + " stops, " +
                      std::to_string(a.cruises) + " cruises");

    if (!opt.trace) {
        o.metrics["setup_s"] = {setup_s, "s"};
        o.metrics["throughput_per_s"] = {rate, "1/s"};
        putPercentile(o.metrics, "latency_ms_p50", p50, "ms");
        putPercentile(o.metrics, "latency_ms_p90", p90, "ms");
        return o;
    }

    const double traced_rate = median(w.traced_rates);
    o.metrics["trace.overhead_frac"] = {
        overheadFrac(rate, traced_rate, true), "ratio"};
    o.notes.push_back("tracing overhead: scenarios_per_s " +
                      std::to_string(rate) + " untraced, " +
                      std::to_string(traced_rate) +
                      " traced (alternate repetitions of one window)");

    ProbeInputs in;
    in.worlds.assign(worlds.begin(),
                     worlds.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          worlds.size(), kProbeWorlds)));
    in.scenarios = scenarios;
    in.seed = opt.seed;
    probeFleet(in, rec, o.metrics, o.notes);
    probeQueries(in, rec, o.metrics);
    probeRuntime(rec, o.metrics);
    probeServe(opt.seed, rec, o.metrics);
    probeFrame(in, rec, o.metrics);
    return o;
}

} // namespace

Outcome
runSweep(const Options &opt, SpanRecorder &rec)
{
    return runBatch(opt, rec, sweepWorlds(), sweepScenarios,
                    "6 worlds x 11 faults x 2 stacks x " +
                        std::to_string(kMatrixSeeds) + " seeds, " +
                        std::to_string(static_cast<int>(kSweepHorizonS)) +
                        " s horizon");
}

Outcome
runFuzz(const Options &opt, SpanRecorder &rec)
{
    return runBatch(opt, rec, fuzzCampaign(opt.seed), fuzzScenarios,
                    std::to_string(kFuzzWorlds) +
                        " fuzzed agent worlds x 2 stacks, no fault, " +
                        std::to_string(static_cast<int>(kFuzzHorizonS)) +
                        " s horizon");
}

} // namespace perfbench
