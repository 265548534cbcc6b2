#include "fleet/fleet_runner.h"

#include <chrono>

#include "core/logging.h"
#include "core/thread_pool.h"

namespace sov::fleet {

FleetRunner::FleetRunner(FleetConfig config) : config_(config) {}

std::size_t
FleetRunner::numThreads() const
{
    return config_.threads == 0 ? ThreadPool::defaultThreads()
                                : config_.threads;
}

ScenarioOutcome
FleetRunner::runScenario(const ScenarioSpec &spec,
                         obs::MetricRegistry *metrics) const
{
    checkWorldPreset(spec.world);
    // The scenario's whole random universe forks from its
    // *environment* identity — world, fault preset and seed, but not
    // the stack: outcome = f(master_seed, environment, stack
    // semantics), independent of scheduling, and every stack faces
    // bit-identical world and fault draws (the controlled-experiment
    // contract of the fault matrix's stack columns).
    const Rng master(config_.master_seed);
    const std::string env = spec.world.name + "/" + spec.faults.name +
                            "#s" + std::to_string(spec.seed);
    const Rng scenario_rng = master.fork(env);

    World world;
    Rng world_rng = scenario_rng.fork("world");
    if (spec.world.build)
        spec.world.build(world, world_rng);

    fault::FaultPlan plan{scenario_rng.fork("faults")};
    for (const fault::FaultSpec &s : spec.faults.specs)
        plan.add(s);

    ClosedLoopConfig loop = spec.stack.loop;
    SOV_ASSERT(loop.faults == nullptr);
    if (!plan.empty())
        loop.faults = &plan;

    ClosedLoopSim sim(world, spec.world.route, loop, spec.stack.pipeline,
                      scenario_rng.fork("sim"));
    if (config_.trace)
        sim.setTraceRecorder(config_.trace);
    const ClosedLoopResult r =
        sim.run(Duration::seconds(spec.world.horizon_s));
    if (config_.scenario_hook)
        config_.scenario_hook(spec, r);

    ScenarioOutcome o;
    o.name = spec.name;
    o.index = spec.index;
    o.seed = spec.seed;
    o.collided = r.collided;
    o.stopped = r.stopped;
    o.min_gap = r.min_gap;
    o.distance_travelled = r.distance_travelled;
    o.availability = r.availability;
    o.reactive_fraction = r.reactive_fraction;
    o.reactive_triggers = r.reactive_triggers;
    o.deadline_misses = r.deadline_misses;
    o.frames_dropped = r.frames_dropped;
    o.pipeline_frames_failed = r.pipeline_frames_failed;
    o.can_frames_lost = r.can_frames_lost;
    o.sensor_dropouts = r.sensor_dropouts;
    o.worst_level = r.worst_level;
    o.final_level = r.final_level;
    o.sim_elapsed_s = r.elapsed.toSeconds();

    const obs::MetricRegistry &pipeline = sim.pipelineMetrics();
    o.pipeline_frames = pipeline.count("total");
    if (o.pipeline_frames > 0) {
        o.pipeline_mean_ms = pipeline.mean("total");
        o.pipeline_p99_ms = pipeline.percentile("total", 99.0);
    }
    if (metrics) {
        *metrics = sim.takePipelineMetrics();
        metrics->incr("scenarios");
        metrics->incr("collisions", r.collided ? 1 : 0);
        metrics->incr("safe_stops", r.stopped ? 1 : 0);
        metrics->incr("reactive_triggers", r.reactive_triggers);
        metrics->incr("sensor_dropouts", r.sensor_dropouts);
        metrics->incr("can_frames_lost", r.can_frames_lost);
    }
    return o;
}

const obs::MetricRegistry &
FleetRunner::mergedMetrics() const
{
    // Canonical index-order fold: the merged registry (and thus its
    // fingerprint) does not depend on which worker ran what.
    for (const obs::MetricRegistry &m : shard_metrics_)
        merged_metrics_.merge(m);
    shard_metrics_.clear();
    return merged_metrics_;
}

FleetReport
FleetRunner::run(const ScenarioMatrix &matrix)
{
    return run(matrix.enumerate());
}

FleetReport
FleetRunner::run(const std::vector<ScenarioSpec> &scenarios)
{
    const auto start = std::chrono::steady_clock::now();

    std::vector<ScenarioOutcome> rows(scenarios.size());
    // The last run's registries go first, folded or not.
    merged_metrics_.clear();
    shard_metrics_.clear();
    shard_metrics_.resize(scenarios.size());
    {
        ThreadPool pool(numThreads());
        // Per-index slots: workers never share mutable state, so the
        // pool only decides *when* each row is computed.
        pool.parallelFor(scenarios.size(), [&](std::size_t i) {
            rows[i] = runScenario(scenarios[i], &shard_metrics_[i]);
        });
    }

    const auto end = std::chrono::steady_clock::now();
    timing_.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    timing_.threads = numThreads();
    timing_.scenarios_per_second =
        timing_.wall_seconds > 0.0
            ? static_cast<double>(scenarios.size()) / timing_.wall_seconds
            : 0.0;

    return FleetReport::fromOutcomes(std::move(rows));
}

} // namespace sov::fleet
