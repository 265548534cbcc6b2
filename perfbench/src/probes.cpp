/**
 * @file
 * Per-layer probes of the traced runs. Each probe calls one layer's
 * public functions from here, one span per call, on the inputs of the
 * workload being traced. The world / sensors / planning probes replay
 * the closed loop's query mix (physics rate 200 Hz, planning rate
 * 10 Hz) along each world's route; they measure per-call cost on the
 * workload's worlds, not the simulator's own internal calls.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <thread>

#include "fleet/fleet_runner.h"
#include "planning/collision.h"
#include "planning/mpc.h"
#include "planning/prediction.h"
#include "runtime/dataflow.h"
#include "sensors/radar.h"
#include "sovpipe/fig5_graph.h"
#include "perfbench.h"

using namespace sov;
using namespace sov::fleet;

namespace perfbench {

namespace {

constexpr double kPhysicsHz = 200.0;
constexpr double kPlanningHz = 10.0;
constexpr double kTickS = 0.1;        //!< WorldTimeline tick
constexpr double kProbeDriveS = 8.0;  //!< simulated seconds per world
constexpr double kProbeSpeed = 5.6;   //!< cruise speed, m/s
constexpr std::size_t kBuildsPerWorld = 40;

} // namespace

std::size_t
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<std::size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
report(Outcome &o, const std::string &name, double value,
       const std::string &unit)
{
    o.report.emplace_back(name, Metric{value, unit});
}

double
overheadFrac(double untraced, double traced, bool higher_better)
{
    if (untraced == 0.0)
        return 0.0;
    const double rel = (traced - untraced) / untraced;
    return higher_better ? -rel : rel;
}

double
selfNsPerCall(const SpanRecorder &rec, const std::string &name)
{
    for (const LayerRow &row : selfTimes(rec.spans(), rec.names()))
        if (row.name == name)
            return row.calls ? row.self_ns / static_cast<double>(row.calls)
                             : 0.0;
    return 0.0;
}

void
putPercentile(std::map<std::string, Metric> &out, const std::string &name,
              const Percentile &p, const std::string &unit)
{
    if (!p.valid) {
        std::fprintf(stderr,
                     "perfbench: %s refused: %zu samples, %zu beyond "
                     "(need %zu)\n",
                     name.c_str(), p.samples, p.beyond, kMinBeyond);
        std::exit(3);
    }
    out[name] = {p.value, unit};
}

std::vector<ScenarioSpec>
probeScenarios(const std::vector<WorldPreset> &worlds, std::uint64_t seed)
{
    ScenarioMatrix m;
    for (WorldPreset w : worlds) {
        w.horizon_s = 6.0;
        m.addWorld(std::move(w));
    }
    m.addFault(noFaultPreset());
    m.addStack(bareStack());
    m.addStack(supervisedStack());
    // Enough rows for a p90 with ten samples beyond it.
    const std::size_t per_seed = 2 * worlds.size();
    m.addSeeds(seed * 100 + 1, (110 + per_seed - 1) / per_seed);
    return m.enumerate();
}

void
probeQueries(const ProbeInputs &in, SpanRecorder &rec,
             std::map<std::string, Metric> &out)
{
    const std::uint32_t n_build = rec.intern("world.build");
    const std::uint32_t n_advance = rec.intern("world.advance");
    const std::uint32_t n_raycast = rec.intern("world.raycast");
    const std::uint32_t n_near = rec.intern("world.obstacles_near");
    const std::uint32_t n_dist = rec.intern("world.box_distance");
    const std::uint32_t n_radar = rec.intern("sensors.radar_nearest");
    const std::uint32_t n_collide = rec.intern("planning.first_collision");
    const std::uint32_t n_mpc = rec.intern("planning.mpc_plan");

    const MpcPlanner planner;
    const RadarModel radar(RadarConfig{}, Rng(in.seed).fork("probe-radar"));
    const auto steps = static_cast<std::size_t>(kProbeDriveS * kPhysicsHz);
    const auto plan_every = static_cast<std::size_t>(kPhysicsHz / kPlanningHz);
    const auto tick_every = static_cast<std::size_t>(kPhysicsHz * kTickS);
    std::uint64_t op = 0;
    for (const WorldPreset &preset : in.worlds) {
        ++op;
        World world;
        for (std::size_t b = 0; b < kBuildsPerWorld; ++b) {
            world.reset();
            Rng rng = Rng(in.seed).fork(preset.name);
            SpanScope s(rec, n_build, op);
            preset.build(world, rng);
        }
        const Polyline2 &route = preset.route;
        for (std::size_t k = 0; k < steps; ++k) {
            const double t_s = static_cast<double>(k) / kPhysicsHz;
            const Timestamp t = Timestamp::origin() + Duration::seconds(t_s);
            const double s = std::min(kProbeSpeed * t_s, route.length());
            const Pose2 pose{route.sample(s), route.headingAt(s)};
            if (k % tick_every == 0) {
                SpanScope sp(rec, n_advance, op);
                world.advanceTo(t, pose, kProbeSpeed);
            }
            const WorldSnapshot snap = world.snapshot();
            {
                SpanScope sp(rec, n_radar, op);
                (void)radar.nearestInPath(snap, pose, 0.8, t);
            }
            {
                SpanScope sp(rec, n_raycast, op);
                (void)snap.raycast(pose.position, pose.direction(), 60.0, t);
            }
            const OrientedBox2 ego{pose, 1.3, 0.7};
            for (const Obstacle &obs : snap.obstacles()) {
                const OrientedBox2 box = obs.footprintAt(t);
                SpanScope sp(rec, n_dist, op);
                (void)ego.distanceTo(box);
            }
            if (k % plan_every != 0)
                continue;
            std::vector<Obstacle> near;
            {
                SpanScope sp(rec, n_near, op);
                near = snap.obstaclesNear(pose.position, 40.0, t);
            }
            PlannerInput input;
            input.now = t;
            input.ego_pose = pose;
            input.ego_speed = kProbeSpeed;
            input.reference_path = route;
            input.speed_limit = kProbeSpeed;
            for (const Obstacle &obs : near) {
                FusedObject object;
                object.track_id = obs.id;
                object.position = obs.positionAt(t);
                object.velocity = obs.velocity;
                object.cls = obs.cls;
                object.confidence = 1.0;
                input.objects.push_back(object);
            }
            const auto predictions = predictObjects(input.objects, t);
            {
                SpanScope sp(rec, n_collide, op);
                (void)firstCollision(route, s, kProbeSpeed, predictions);
            }
            SpanScope sp(rec, n_mpc, op);
            (void)planner.plan(input);
        }
    }
    out["world.build_us"] = {selfNsPerCall(rec, "world.build") / 1e3, "us"};
    out["world.advance_us_per_tick"] = {
        selfNsPerCall(rec, "world.advance") / 1e3, "us"};
    out["world.raycast_ns"] = {selfNsPerCall(rec, "world.raycast"), "ns"};
    out["world.obstacles_near_ns"] = {
        selfNsPerCall(rec, "world.obstacles_near"), "ns"};
    out["world.box_distance_ns"] = {
        selfNsPerCall(rec, "world.box_distance"), "ns"};
    out["sensors.radar_nearest_ns"] = {
        selfNsPerCall(rec, "sensors.radar_nearest"), "ns"};
    out["planning.first_collision_us"] = {
        selfNsPerCall(rec, "planning.first_collision") / 1e3, "us"};
    out["planning.mpc_plan_us"] = {
        selfNsPerCall(rec, "planning.mpc_plan") / 1e3, "us"};
}

void
probeFleet(const ProbeInputs &in, SpanRecorder &rec,
           std::map<std::string, Metric> &out,
           std::vector<std::string> &notes)
{
    const std::uint32_t n_scenario = rec.intern("fleet.scenario");
    const std::uint32_t n_merge = rec.intern("fleet.merge_row");
    const std::size_t threads = std::min<std::size_t>(hostThreads(), 4);

    // One thread, one span per runScenario.
    const FleetRunner runner(FleetConfig{1, in.seed});
    std::vector<ScenarioOutcome> rows;
    std::vector<double> ms(in.scenarios.size());
    const Clock::time_point t_one = Clock::now();
    for (std::size_t i = 0; i < in.scenarios.size(); ++i) {
        const Clock::time_point t0 = Clock::now();
        {
            SpanScope s(rec, n_scenario, i + 1);
            rows.push_back(runner.runScenario(in.scenarios[i]));
        }
        ms[i] = msBetween(t0, Clock::now());
    }
    const double one_rate = static_cast<double>(in.scenarios.size()) /
                            secondsBetween(t_one, Clock::now());

    // Untraced N-thread rate on the same list.
    FleetRunner parallel(FleetConfig{threads, in.seed});
    const Clock::time_point t_par = Clock::now();
    const FleetReport par_report = parallel.run(in.scenarios);
    const double par_rate = static_cast<double>(in.scenarios.size()) /
                            secondsBetween(t_par, Clock::now());

    // Streamed merge + fingerprint, as the service does per shard.
    FleetReport merged;
    for (const ScenarioOutcome &row : rows) {
        SpanScope s(rec, n_merge, row.index + 1);
        merged.mergeRow(row);
        (void)merged.fingerprint();
    }
    if (merged.fingerprint() != par_report.fingerprint()) {
        std::fprintf(stderr, "perfbench: fleet probe fingerprint mismatch\n");
        std::exit(3);
    }

    // Host cost of supervision: supervised vs bare rows on identical
    // world and fault draws (same name minus the stack part).
    double bare_ms = 0.0, sup_ms = 0.0, physics_steps = 0.0, host_ms = 0.0;
    for (std::size_t i = 0; i < in.scenarios.size(); ++i) {
        const std::string &stack = in.scenarios[i].stack.name;
        if (stack == bareStack().name)
            bare_ms += ms[i];
        else if (stack == supervisedStack().name)
            sup_ms += ms[i];
        physics_steps += rows[i].sim_elapsed_s * kPhysicsHz;
        host_ms += ms[i];
    }
    // Work counts behind the ratios, from the outcome rows.
    const FleetAggregate &agg = merged.aggregate();
    std::uint64_t frames = 0;
    for (const ScenarioOutcome &row : rows)
        frames += row.pipeline_frames;
    notes.push_back(
        "fleet probe counts: " + std::to_string(rows.size()) +
        " scenarios, physics steps " +
        std::to_string(static_cast<std::uint64_t>(physics_steps)) +
        ", planning cycles " +
        std::to_string(static_cast<std::uint64_t>(
            physics_steps * kPlanningHz / kPhysicsHz)) +
        ", pipeline frames " + std::to_string(frames) + " (dropped " +
        std::to_string(agg.frames_dropped) + ", failed " +
        std::to_string(agg.pipeline_frames_failed) + "), stops " +
        std::to_string(agg.stops) + ", safe-stop scenarios " +
        std::to_string(agg.worst_level_counts[3]) + ", sensor dropouts " +
        std::to_string(agg.sensor_dropouts));
    putPercentile(out, "fleet.scenario_ms_p50", percentile(ms, 50.0), "ms");
    putPercentile(out, "fleet.scenario_ms_p90", percentile(ms, 90.0), "ms");
    out["fleet.host_ns_per_physics_step"] = {
        physics_steps > 0.0 ? host_ms * 1e6 / physics_steps : 0.0, "ns"};
    out["fleet.parallel_eff"] = {
        par_rate / (static_cast<double>(threads) * one_rate), "ratio"};
    out["fleet.supervised_over_bare"] = {
        bare_ms > 0.0 ? sup_ms / bare_ms : 0.0, "ratio"};
    out["fleet.merge_us_per_row"] = {
        selfNsPerCall(rec, "fleet.merge_row") / 1e3, "us"};
}

void
probeRuntime(SpanRecorder &rec, std::map<std::string, Metric> &out)
{
    constexpr std::size_t kFrames = 200;
    constexpr int kRuns = 20;
    const std::uint32_t n_run = rec.intern("runtime.run_async");
    const PlatformModel platform;
    runtime::StageGraph graph;
    buildFig5Graph(graph, platform, SovPipelineConfig{}, nullptr,
                   Fig5Latency::Mean);
    runtime::AsyncOptions opts;
    opts.frames = kFrames;
    opts.max_in_flight = 3;
    opts.keep_traces = false;
    for (int r = 0; r < kRuns; ++r) {
        SpanScope s(rec, n_run, static_cast<std::uint64_t>(r + 1));
        (void)runtime::DataflowExecutor::runAsync(graph, opts);
    }
    out["runtime.host_us_per_frame"] = {
        selfNsPerCall(rec, "runtime.run_async") / 1e3 /
            static_cast<double>(kFrames),
        "us"};
}

} // namespace perfbench
