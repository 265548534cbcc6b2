/**
 * @file
 * Closed-loop SoV simulation: the full proactive pipeline (perception
 * with modelled compute latency -> MPC -> CAN -> ECU -> actuator) plus
 * the reactive safety path, driving the vehicle plant through a world.
 *
 * The proactive compute latency is not a private draw: each planning
 * cycle releases one frame of the shared Fig. 5 StageGraph into a
 * runtime::DataflowExecutor bound to the simulation clock, and the
 * actuation command transmits from the frame-completion event — so the
 * closed-loop experiments execute exactly the pipeline that Fig. 10
 * characterizes, stage spans, resource contention and all. Stage
 * supervision is the batch driver's one runtime::StagePolicy
 * (ClosedLoopConfig::stage_policy); the loop sets no frame deadline.
 *
 * Used for the end-to-end safety experiments: obstacle-avoidance
 * distance vs computing latency (Fig. 3a validated in closed loop),
 * the reactive path's 4.1 m stopping capability (Sec. IV), and the
 * >90% proactive-time statistic (Sec. V-C).
 */
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "fault/fault_plan.h"
#include "fault/sensor_faults.h"
#include "health/health_monitor.h"
#include "planning/mpc.h"
#include "runtime/dataflow.h"
#include "sensors/radar.h"
#include "sim/simulator.h"
#include "sovpipe/gap_monitor.h"
#include "sovpipe/pipeline_model.h"
#include "vehicle/can_bus.h"
#include "vehicle/ecu.h"
#include "vehicle/reactive.h"

namespace sov {

/**
 * How planning cycles feed the Fig. 5 pipeline when it is congested.
 *
 * Sync is the classic load-shedding loop: a cycle whose frame finds
 * max_frames_in_flight frames already in flight drops it outright.
 * Async mirrors DataflowExecutor::runAsync's admission window inside
 * the closed loop: the congested cycle still plans, but its frame is
 * *deferred* — parked until the completion that frees a window slot
 * admits it (backpressure instead of loss). A newer cycle supersedes
 * an un-admitted deferral (the stale plan is dropped), so at most one
 * frame waits and commands never act on state older than one cycle.
 * Availability and degradation accounting are identical in both modes.
 */
enum class PipelineMode
{
    Sync,
    Async,
};

/** Closed-loop simulation settings. */
struct ClosedLoopConfig
{
    double cruise_speed = 5.6;       //!< m/s (Sec. III-A typical)
    double planner_rate_hz = 10.0;   //!< throughput requirement
    double physics_rate_hz = 200.0;
    double perception_range = 40.0;  //!< oracle-perception radius
    bool enable_reactive = true;
    bool enable_proactive = true;
    /** Load shedding: a planning cycle drops its frame instead of
     *  releasing it when this many frames are already in flight.
     *  Detection latency tails would otherwise build a backlog and
     *  every later command would act on stale state; real pipelines
     *  shed sensor frames under congestion. Default allows normal
     *  pipelining (two frames overlap at 10 Hz) plus one tail frame. */
    std::uint64_t max_frames_in_flight = 3;
    /** Fault scenario to run under (Sec. III-C). Not owned; must
     *  outlive the sim. nullptr = fault-free. A plan whose channels
     *  never fire leaves the run bit-identical to a fault-free one.
     *  Bound when the sim is built; a channel the loop cannot apply
     *  is refused (DESIGN.md, "Fault model & degradation"). */
    fault::FaultPlan *faults = nullptr;
    /** Run the HealthMonitor + DegradationManager (one supervision
     *  cycle per planning cycle). Off = faults still inject but
     *  nothing degrades gracefully — the "no supervision" baseline. */
    bool enable_health = false;
    health::DegradationPolicy degradation;
    /** Watchdog policy applied to every pipeline stage (timeout,
     *  bounded retry with backoff; the batch driver's
     *  AsyncOptions::stage_policy); unset = unsupervised stages. */
    std::optional<runtime::StagePolicy> stage_policy;
    /** Congestion behavior of the proactive pipeline (see
     *  PipelineMode): shed the frame (Sync) or defer it under
     *  backpressure (Async). */
    PipelineMode pipeline_mode = PipelineMode::Sync;
};

/** Outcome of a scenario run. */
struct ClosedLoopResult
{
    bool collided = false;
    bool stopped = false;
    /** Minimum gap between the vehicle front and any obstacle. */
    double min_gap = 1e18;
    double distance_travelled = 0.0;
    std::uint64_t reactive_triggers = 0;
    /** Fraction of cycles in which the reactive path was latched. */
    double reactive_fraction = 0.0;
    /** Always 0: the closed loop sets no frame deadline. Kept because
     *  ScenarioOutcome copies it into the hashed fleet row. */
    std::uint64_t deadline_misses = 0;
    /** Planning cycles shed because the pipeline was congested. In
     *  async mode a frame is only counted here when a newer cycle
     *  superseded it before it was admitted. */
    std::uint64_t frames_dropped = 0;
    /** Async mode: cycles whose frame was parked under backpressure
     *  instead of released immediately (zero in sync mode). */
    std::uint64_t frames_deferred = 0;
    /** Frames abandoned after a stage exhausted its watchdog retries. */
    std::uint64_t pipeline_frames_failed = 0;
    /** Command frames eaten by an injected CAN loss fault. */
    std::uint64_t can_frames_lost = 0;
    /** Sensor samples (camera frames, radar sweeps) lost to dropout. */
    std::uint64_t sensor_dropouts = 0;
    /** Degradation level at run end / worst reached (NOMINAL when
     *  health monitoring is off). */
    health::DegradationLevel final_level = health::DegradationLevel::Nominal;
    health::DegradationLevel worst_level = health::DegradationLevel::Nominal;
    /** Fraction of planning cycles at proactive capability (camera
     *  frame delivered and the degradation level allowed the proactive
     *  pipeline to drive) — the paper's >90% proactive-time statistic
     *  under fault load. */
    double availability = 0.0;
    Duration elapsed;

    // Near-miss triage facts (scenario-fuzzer mining; never part of
    // the hashed ScenarioOutcome row, so adding them cannot perturb
    // existing fleet fingerprints).
    /** Minimum time-to-collision observed against any obstacle while
     *  on a closing course, seconds; 1e18 when never closing. Zero on
     *  a collision. */
    double min_ttc = 1e18;
    /** Id of the obstacle/agent that produced min_gap. */
    ObstacleId nearest_obstacle = 0;

    // Event-core facts (never hashed into ScenarioOutcome or triage
    // rows): the simulator's executed-event count and its event-order
    // digest (Simulator::eventOrderDigest). Equal values mean the run
    // executed the same events in the same order.
    std::uint64_t events_executed = 0;
    std::uint64_t event_order_digest = 0;
};

/** The closed-loop simulator. */
class ClosedLoopSim
{
  public:
    /**
     * @param world The environment (obstacles may be added later).
     * @param route The reference path the planner tracks.
     */
    ClosedLoopSim(World &world, Polyline2 route,
                  const ClosedLoopConfig &config,
                  const SovPipelineConfig &pipeline_config, Rng rng);

    /** Place the vehicle at the route start, at cruise speed. */
    void reset();

    /**
     * Run until the vehicle stops (after having moved), collides,
     * reaches the route end, or @p horizon elapses.
     */
    ClosedLoopResult run(Duration horizon);

    VehicleDynamics &vehicle() { return vehicle_; }
    World &world() { return world_; }

    /** Per-stage durations and queueing of the proactive pipeline
     *  frames executed so far (histograms named after the Fig. 5
     *  stages, plus "queue:<stage>" and "total"). */
    const obs::MetricRegistry &pipelineMetrics() const
    {
        return pipeline_metrics_;
    }

    /** Move pipelineMetrics() out, leaving the sim's own empty. */
    obs::MetricRegistry takePipelineMetrics()
    {
        return std::move(pipeline_metrics_);
    }

    /**
     * Stream the run into @p recorder (nullptr detaches): every Fig. 5
     * stage execution as a span on its resource lane, frame spans,
     * and instants for load shedding, sensor dropouts, fault
     * injections, degradation transitions and the safe-stop command.
     * Call before run(); purely observational — a traced run is
     * bit-identical to an untraced one.
     */
    void setTraceRecorder(obs::TraceRecorder *recorder);

  private:
    /** Last camera frame delivered to the planner (Freeze replays it). */
    struct CameraSnapshot
    {
        std::vector<FusedObject> objects;
        bool valid = false;
    };

    void planningCycle();
    void physicsStep();
    void dispatchCommand(const ControlCommand &command);
    /** Release a frame whose completion transmits @p command (and, in
     *  async mode, admits any deferred frame). */
    void releasePipelineFrame(const ControlCommand &command);
    /** Async mode: admit the deferred frame if the window has room. */
    void pumpPending();
    /** Emit any degradation transitions not yet in the trace. */
    void traceNewTransitions();

    World &world_;
    Polyline2 route_;
    ClosedLoopConfig config_;
    Rng rng_;

    Simulator sim_;
    PlatformModel platform_model_;
    SovPipelineModel pipeline_;
    /** Executes pipeline_.graph() on sim_; planning cycles release
     *  frames and commands transmit on frame completion. */
    runtime::DataflowExecutor pipeline_exec_;
    obs::MetricRegistry pipeline_metrics_;
    VehicleDynamics vehicle_;
    Ecu ecu_;
    CanBus can_;
    RadarModel radar_;
    ReactivePath reactive_;
    MpcPlanner planner_;

    // Fault + health wiring.
    /** config_.faults, resolved per target: the one route by which
     *  camera, perception, radar and CAN faults reach the loop. */
    fault::SensorFaultHub sensor_faults_;
    std::unique_ptr<health::HealthMonitor> health_;
    /** The monitor's ids of the camera and radar streams. */
    health::SensorId camera_sensor_ = 0;
    health::SensorId radar_sensor_ = 0;
    CameraSnapshot last_camera_;
    /** Async mode: the command of the one frame parked under
     *  backpressure (latest wins; see PipelineMode). */
    std::optional<ControlCommand> pending_release_;
    /** The command a released frame transmits on completion. */
    struct FrameSlot
    {
        ControlCommand command;
        bool busy = false;
    };
    /** One slot per frame in flight (releasePipelineFrame). */
    std::vector<FrameSlot> frame_slots_;
    /** This cycle's planner input, reused (it holds the route). */
    PlannerInput planner_input_;

    // Trace wiring (all optional; inert when recorder_ is null).
    obs::TraceRecorder *recorder_ = nullptr;
    /** Interned obs names for the sim-level events. */
    struct TraceIds
    {
        obs::NameId track_loop = 0;
        obs::NameId cat_sched = 0;
        obs::NameId cat_fault = 0;
        obs::NameId cat_health = 0;
        obs::NameId load_shed = 0;
        obs::NameId frame_deferred = 0;
        obs::NameId camera_dropout = 0;
        obs::NameId radar_dropout = 0;
        obs::NameId safe_stop = 0;
        obs::NameId reactive_trigger = 0;
        obs::NameId frames_in_flight = 0;
        obs::NameId level_names[4] = {0, 0, 0, 0};
    } trace_ids_;
    std::size_t transitions_traced_ = 0;
    std::uint64_t reactive_triggers_traced_ = 0;

    // Run bookkeeping.
    ClosedLoopResult result_;
    /** Min-gap, TTC and collision facts, folded every physics step. */
    GapMonitor gaps_;
    std::uint64_t cycles_ = 0;
    std::uint64_t reactive_cycles_ = 0;
    std::uint64_t proactive_cycles_ = 0;
    bool was_moving_ = false;
    bool safe_stop_commanded_ = false;
};

} // namespace sov
