/**
 * @file
 * FleetRunner: shard a scenario space across a work-stealing thread
 * pool and aggregate the results deterministically.
 *
 * Each scenario is one independent closed-loop simulation. All of its
 * random streams — world population, fault plan, simulation — fork
 * from Rng(master_seed).fork(scenario name), so a scenario's outcome
 * is a pure function of (master seed, scenario identity), independent
 * of which worker runs it, when, or alongside what. Workers write
 * outcome rows into per-scenario slots; the report is derived from the
 * completed rows in index order. Consequence (the fleet determinism
 * contract): for any thread count, including 1, the FleetReport is
 * bit-identical.
 *
 * Wall-clock timing is reported separately (FleetTiming) and is
 * explicitly outside the determinism contract.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fleet/fleet_report.h"
#include "fleet/scenario.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sov::fleet {

/** Runner settings. */
struct FleetConfig
{
    /** Worker threads; 0 = hardware concurrency. */
    std::size_t threads = 0;
    /** Master seed every scenario stream forks from. */
    std::uint64_t master_seed = 1;
    /**
     * Optional shared trace recorder. Every scenario simulation emits
     * its spans/instants into it (the recorder keeps per-thread
     * buffers, so workers never contend). Observational only.
     */
    obs::TraceRecorder *trace = nullptr;
    /**
     * Optional per-scenario tap, called on the worker thread right
     * after each simulation with the full ClosedLoopResult — the
     * channel for facts that ride outside the hashed ScenarioOutcome
     * row (near-miss triage: min_ttc, offending obstacle). Invoked
     * concurrently from multiple workers; to stay inside the fleet
     * determinism contract, write into per-index slots (keyed by
     * spec.index) and fold in index order, never accumulate in call
     * order.
     */
    std::function<void(const ScenarioSpec &, const ClosedLoopResult &)>
        scenario_hook = nullptr;
};

/** Wall-clock facts of a sweep (non-deterministic; never hashed). */
struct FleetTiming
{
    double wall_seconds = 0.0;
    double scenarios_per_second = 0.0;
    std::size_t threads = 0;
};

/** Runs scenario sweeps on a thread pool. */
class FleetRunner
{
  public:
    explicit FleetRunner(FleetConfig config = {});

    /** Run every scenario of @p matrix (its full enumeration). */
    FleetReport run(const ScenarioMatrix &matrix);

    /** Run an explicit scenario list. */
    FleetReport run(const std::vector<ScenarioSpec> &scenarios);

    /**
     * Run one scenario synchronously on the calling thread. When
     * @p metrics is non-null it receives the scenario's pipeline
     * metric registry (per-stage latency histograms plus counters).
     */
    ScenarioOutcome runScenario(const ScenarioSpec &spec,
                                obs::MetricRegistry *metrics
                                = nullptr) const;

    /** Timing of the most recent run(). */
    const FleetTiming &lastTiming() const { return timing_; }

    /**
     * Metrics of the most recent run(), folded from the per-scenario
     * registries in scenario-index order. Because each scenario's
     * registry is a pure function of (master seed, scenario identity)
     * and the fold order is canonical, the merged registry — and its
     * fingerprint() — is independent of the thread count. run() keeps
     * the per-scenario registries and the first call after it folds
     * them, so a caller that never reads the merge never pays for it;
     * because that call writes the fold, it must not race another.
     */
    const obs::MetricRegistry &mergedMetrics() const;

    std::size_t numThreads() const;

  private:
    FleetConfig config_;
    FleetTiming timing_;
    /** The last run()'s registries, by scenario index, until folded. */
    mutable std::vector<obs::MetricRegistry> shard_metrics_;
    mutable obs::MetricRegistry merged_metrics_;
};

} // namespace sov::fleet
