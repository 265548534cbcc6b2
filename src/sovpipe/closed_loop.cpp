#include "sovpipe/closed_loop.h"

#include <algorithm>
#include <cmath>

#include "core/logging.h"
#include "fault/stage_faults.h"

namespace sov {

namespace {

/** Whether the closed loop applies @p spec (DESIGN.md, "Fault model
 *  & degradation"); installStageFaults checks stage modes. */
bool
loopApplies(const fault::FaultSpec &spec)
{
    using fault::FaultMode;
    switch (spec.target) {
    case fault::FaultTarget::Camera:
        return spec.mode == FaultMode::Dropout ||
            spec.mode == FaultMode::Freeze ||
            spec.mode == FaultMode::LatencySpike ||
            spec.mode == FaultMode::Corruption;
    case fault::FaultTarget::Perception:
    case fault::FaultTarget::Radar:
    case fault::FaultTarget::CanBus:
        return spec.mode == FaultMode::Dropout;
    case fault::FaultTarget::PipelineStage:
        return true;
    }
    return false;
}

} // namespace

ClosedLoopSim::ClosedLoopSim(World &world, Polyline2 route,
                             const ClosedLoopConfig &config,
                             const SovPipelineConfig &pipeline_config,
                             Rng rng)
    : world_(world), route_(std::move(route)), config_(config),
      rng_(std::move(rng)),
      pipeline_(platform_model_, pipeline_config, rng_.fork("pipeline")),
      pipeline_exec_(sim_, pipeline_.graph()),
      vehicle_(), ecu_(sim_, vehicle_), can_(sim_),
      radar_(RadarConfig{}, rng_.fork("radar")),
      reactive_(sim_, ecu_, radar_),
      sensor_faults_(config_.faults),
      gaps_(Duration::seconds(1.0 / config_.physics_rate_hz).toSeconds())
{
    // Long runs release thousands of frames; stream samples into the
    // metric registry instead of keeping every trace.
    pipeline_exec_.setKeepTraces(false);
    pipeline_exec_.attachMetrics(&pipeline_metrics_);
    can_.connect([this](const ControlCommand &cmd) { ecu_.onCommand(cmd); });
    // Each command frame, camera frame, perceived object and radar
    // sweep asks the hub.
    can_.setLossFilter([this](Timestamp t) {
        return sensor_faults_.evaluate(fault::FaultTarget::CanBus, t).drop;
    });
    planner_input_.reference_path = route_;
    frame_slots_.resize(config_.max_frames_in_flight);

    if (config_.faults) {
        for (std::size_t i = 0; i < fault::kFaultTargetCount; ++i) {
            for (const fault::FaultChannel *ch : sensor_faults_.channels(
                     static_cast<fault::FaultTarget>(i))) {
                const fault::FaultSpec &spec = ch->spec();
                if (!loopApplies(spec))
                    SOV_FATAL("closed loop cannot apply fault '" +
                              spec.name + "' (" +
                              fault::toString(spec.target) + "/" +
                              fault::toString(spec.mode) + ")");
            }
        }
        fault::installStageFaults(pipeline_.graph(), *config_.faults,
                                  [this] { return sim_.now(); });
    }

    if (config_.stage_policy)
        pipeline_exec_.setStagePolicy(*config_.stage_policy);

    if (config_.enable_health) {
        health_ =
            std::make_unique<health::HealthMonitor>(config_.degradation);
        pipeline_exec_.setHealthListener(health_.get());
        // Camera frames arrive once per planning cycle; five silent
        // cycles mark the proactive front-end stale.
        health::HeartbeatSpec camera;
        camera.stale_after =
            Duration::seconds(5.0 / config_.planner_rate_hz);
        camera_sensor_ =
            health_->watchSensor("camera", camera, sim_.now());
        // The radar guards the reactive path: silence beyond 200 ms
        // means the last line of defense is blind -> SAFE_STOP.
        health::HeartbeatSpec radar;
        radar.stale_after = Duration::millisF(200.0);
        radar.reactive_critical = true;
        radar_sensor_ = health_->watchSensor("radar", radar, sim_.now());
    }

    reset();
}

void
ClosedLoopSim::reset()
{
    SOV_ASSERT(route_.size() >= 2);
    vehicle_.setPose(Pose2{route_.sample(0.0), route_.headingAt(0.0)});
    vehicle_.setSpeed(config_.cruise_speed);
    // Start cruising even before the first command lands.
    ActuatorState initial;
    initial.acceleration = 0.0;
    vehicle_.applyActuator(initial);
    result_ = ClosedLoopResult{};
    gaps_.reset();
    cycles_ = 0;
    reactive_cycles_ = 0;
    proactive_cycles_ = 0;
    was_moving_ = false;
    safe_stop_commanded_ = false;
    last_camera_ = CameraSnapshot{};
    pending_release_.reset();
    transitions_traced_ = 0;
    reactive_triggers_traced_ = 0;
}

void
ClosedLoopSim::setTraceRecorder(obs::TraceRecorder *recorder)
{
    recorder_ = recorder;
    pipeline_exec_.attachTrace(recorder);
    if (config_.faults)
        config_.faults->setTraceRecorder(recorder);
    if (!recorder_)
        return;
    trace_ids_.track_loop = recorder_->intern("loop");
    trace_ids_.cat_sched = recorder_->intern("sched");
    trace_ids_.cat_fault = recorder_->intern("fault");
    trace_ids_.cat_health = recorder_->intern("health");
    trace_ids_.load_shed = recorder_->intern("load_shed");
    trace_ids_.frame_deferred = recorder_->intern("frame_deferred");
    trace_ids_.camera_dropout = recorder_->intern("camera_dropout");
    trace_ids_.radar_dropout = recorder_->intern("radar_dropout");
    trace_ids_.safe_stop = recorder_->intern("safe_stop");
    trace_ids_.reactive_trigger = recorder_->intern("reactive_trigger");
    trace_ids_.frames_in_flight = recorder_->intern("frames_in_flight");
    for (int level = 0; level < 4; ++level) {
        trace_ids_.level_names[level] = recorder_->intern(
            health::toString(static_cast<health::DegradationLevel>(level)));
    }
}

void
ClosedLoopSim::traceNewTransitions()
{
    if (!recorder_ || !health_)
        return;
    const auto &transitions = health_->degradation().transitions();
    for (; transitions_traced_ < transitions.size();
         ++transitions_traced_) {
        const auto &[at, level] = transitions[transitions_traced_];
        recorder_->instant(
            trace_ids_.level_names[static_cast<int>(level)],
            trace_ids_.cat_health, trace_ids_.track_loop, at);
    }
}

void
ClosedLoopSim::dispatchCommand(const ControlCommand &command)
{
    ControlCommand cmd = command;
    cmd.issued_at = sim_.now();
    can_.transmit(cmd);
}

void
ClosedLoopSim::planningCycle()
{
    const Timestamp now = sim_.now();
    // Step the agent timeline to this cycle's epoch: behavioral
    // agents observe the ego as of now. Constant-velocity worlds are
    // unaffected (their published rows never change), keeping legacy
    // scenarios bit-identical.
    world_.advanceTo(now, vehicle_.pose(), vehicle_.speed());
    ++cycles_;
    if (reactive_.active())
        ++reactive_cycles_;
    if (recorder_) {
        recorder_->counter(
            trace_ids_.frames_in_flight, trace_ids_.track_loop, now,
            static_cast<double>(pipeline_exec_.framesInFlight()));
    }

    // Supervision cycle: fold watchdog events and sensor heartbeats
    // into the degradation state machine before planning.
    double speed_limit = config_.cruise_speed;
    bool proactive_allowed = config_.enable_proactive;
    if (health_) {
        health_->evaluate(now, pipeline_exec_.framesInFlight());
        traceNewTransitions();
        const health::DegradationManager &mgr = health_->degradation();
        if (mgr.safeStopRequested()) {
            // The reactive path itself is untrusted: stop now, once,
            // through the ECU override (no pipeline in the way).
            if (!safe_stop_commanded_) {
                safe_stop_commanded_ = true;
                if (recorder_) {
                    recorder_->instant(trace_ids_.safe_stop,
                                       trace_ids_.cat_health,
                                       trace_ids_.track_loop, now);
                }
                ecu_.emergencyBrake();
            }
            return;
        }
        speed_limit = mgr.speedCap(config_.cruise_speed);
        if (!mgr.proactiveEnabled())
            proactive_allowed = false;
    }

    if (!proactive_allowed)
        return;

    // Camera-side fault disposition for this cycle's frame.
    fault::SensorDisposition cam =
        sensor_faults_.evaluate(fault::FaultTarget::Camera, now);
    if (cam.drop) {
        // The frame never arrives: no heartbeat, no planning. The
        // monitor sees the silence and degrades after the budget.
        ++result_.sensor_dropouts;
        if (recorder_) {
            recorder_->instant(trace_ids_.camera_dropout,
                               trace_ids_.cat_fault,
                               trace_ids_.track_loop, now);
        }
        return;
    }
    if (health_)
        health_->noteHeartbeat(camera_sensor_, now);
    ++proactive_cycles_;

    // Congestion disposition: when a latency tail backs the pipeline
    // up, sync mode drops this cycle's frame rather than queue work
    // that would only yield a stale command hundreds of milliseconds
    // late; async mode still plans but parks the frame under
    // backpressure (admitted by the completion that frees a slot).
    bool defer = false;
    if (pipeline_exec_.framesInFlight() >= config_.max_frames_in_flight) {
        if (config_.pipeline_mode == PipelineMode::Sync) {
            ++result_.frames_dropped;
            if (recorder_) {
                recorder_->instant(trace_ids_.load_shed,
                                   trace_ids_.cat_sched,
                                   trace_ids_.track_loop, now);
            }
            return;
        }
        defer = true;
    }

    // Perception oracle with modelled latency: the planner sees the
    // world as it was at cycle start, and its command reaches the CAN
    // bus after the computing latency drawn from the pipeline model.
    // The input is reused across cycles (it holds the route), so a
    // warm cycle copies no path and grows no object list.
    PlannerInput &input = planner_input_;
    input.now = now;
    input.ego_pose = vehicle_.pose();
    input.ego_speed = vehicle_.speed();
    input.speed_limit = std::min(config_.cruise_speed, speed_limit);
    input.objects.clear();
    if (cam.freeze && last_camera_.valid) {
        // Frozen sensor: the planner acts on the previous frame's
        // world view (objects have moved on; the plan is stale).
        input.objects = last_camera_.objects;
    } else {
        const WorldSnapshot snap = world_.snapshot();
        for (const auto &obs : snap.obstaclesNear(
                 vehicle_.pose().position, config_.perception_range,
                 now)) {
            // Injected vision failure: the detector misses this
            // object (each channel decides on its own stream).
            if (sensor_faults_.evaluate(fault::FaultTarget::Perception, now)
                    .drop)
                continue;
            FusedObject object;
            object.track_id = obs.id;
            object.position = obs.positionAt(now);
            object.velocity = obs.velocity;
            object.cls = obs.cls;
            object.confidence = 1.0;
            if (cam.corruption) {
                object.position.x() =
                    cam.corruption->corrupt(object.position.x());
                object.position.y() =
                    cam.corruption->corrupt(object.position.y());
            }
            input.objects.push_back(object);
        }
        last_camera_.objects = input.objects;
        last_camera_.valid = true;
    }

    const MpcOutput plan = planner_.plan(input);

    if (defer) {
        // Async backpressure: park this cycle's plan until a window
        // slot frees. Latest wins — a plan superseded before admission
        // is the async analogue of a shed frame.
        ++result_.frames_deferred;
        if (pending_release_)
            ++result_.frames_dropped;
        pending_release_ = plan.command;
        if (recorder_) {
            recorder_->instant(trace_ids_.frame_deferred,
                               trace_ids_.cat_sched, trace_ids_.track_loop,
                               now);
        }
        return;
    }
    if (cam.extra_latency > Duration::zero()) {
        // Sensor latency spike: the frame enters the pipeline late.
        sim_.schedule(cam.extra_latency, [this, cmd = plan.command] {
            releasePipelineFrame(cmd);
        });
        return;
    }
    // Release one Fig. 5 frame into the dataflow runtime; the command
    // reaches the CAN bus when the frame's planning stage completes.
    // Per-resource in-order issue keeps command delivery in cycle
    // order even when a frame hits a latency tail. An abandoned frame
    // (watchdog retries exhausted) never fires the callback with a
    // command transmit — see releasePipelineFrame.
    releasePipelineFrame(plan.command);
}

void
ClosedLoopSim::releasePipelineFrame(const ControlCommand &command)
{
    // The command waits in a slot, so the completion callback captures
    // only this and the slot index and fits std::function's inline
    // buffer: a released frame allocates nothing. The window keeps
    // max_frames_in_flight slots busy at most, except that a frame a
    // sensor latency spike delayed is released past it; then a slot
    // is added.
    std::size_t slot = 0;
    while (slot < frame_slots_.size() && frame_slots_[slot].busy)
        ++slot;
    if (slot == frame_slots_.size())
        frame_slots_.emplace_back();
    frame_slots_[slot] = FrameSlot{command, true};
    pipeline_exec_.releaseFrame(
        [this, slot](const runtime::FrameTrace &trace) {
            const ControlCommand cmd = frame_slots_[slot].command;
            frame_slots_[slot].busy = false;
            // skip-frame: an abandoned frame transmits no stale/garbage
            // command, but its retirement still frees a window slot.
            if (!trace.failed)
                dispatchCommand(cmd);
            pumpPending();
        });
}

void
ClosedLoopSim::pumpPending()
{
    if (!pending_release_)
        return;
    if (pipeline_exec_.framesInFlight() >= config_.max_frames_in_flight)
        return;
    const ControlCommand cmd = *pending_release_;
    pending_release_.reset();
    releasePipelineFrame(cmd);
}

void
ClosedLoopSim::physicsStep()
{
    const Duration dt =
        Duration::seconds(1.0 / config_.physics_rate_hz);

    // Step the agent timeline before any sensing this step. The radar
    // corridor and the gap monitor below each make one pass over the
    // obstacles, building a footprint only where their bounds cannot
    // rule the obstacle out.
    world_.advanceTo(sim_.now(), vehicle_.pose(), vehicle_.speed());
    const WorldSnapshot snap = world_.snapshot();

    // Reactive path: the radar watch runs at sensor rate, far faster
    // than the planner (it bypasses the computing pipeline, Sec. IV).
    // Once SAFE_STOP latched the override, nothing may release it.
    if (config_.enable_reactive && !safe_stop_commanded_) {
        if (sensor_faults_.evaluate(fault::FaultTarget::Radar, sim_.now())
                .drop) {
            ++result_.sensor_dropouts;
            if (recorder_) {
                recorder_->instant(trace_ids_.radar_dropout,
                                   trace_ids_.cat_fault,
                                   trace_ids_.track_loop, sim_.now());
            }
        } else {
            if (health_)
                health_->noteHeartbeat(radar_sensor_, sim_.now());
            reactive_.evaluate(snap, vehicle_.pose(), vehicle_.speed(),
                               sim_.now());
            if (recorder_) {
                // Surface each new reactive-brake engagement as an
                // instant on the loop lane.
                const std::uint64_t triggers = reactive_.triggerCount();
                for (; reactive_triggers_traced_ < triggers;
                     ++reactive_triggers_traced_) {
                    recorder_->instant(trace_ids_.reactive_trigger,
                                       trace_ids_.cat_sched,
                                       trace_ids_.track_loop, sim_.now());
                }
            }
        }
    }

    vehicle_.step(dt);

    // Gap and collision monitoring against every obstacle, plus the
    // triage facts (offending agent, time-to-collision) the scenario
    // fuzzer mines for near misses.
    const EgoFootprint ego_size;
    if (gaps_.step(OrientedBox2{vehicle_.pose(), ego_size.half_length,
                                ego_size.half_width},
                   snap.obstacles(), world_.timeline().closedForm(),
                   sim_.now())) {
        sim_.stop();
        return;
    }

    if (vehicle_.speed() > 0.5)
        was_moving_ = true;
    if (was_moving_ && vehicle_.stopped()) {
        result_.stopped = true;
        sim_.stop();
        return;
    }
    // Route end.
    const auto [s, off] = route_.project(vehicle_.pose().position);
    (void)off;
    if (s >= route_.length() - 1.0)
        sim_.stop();
}

ClosedLoopResult
ClosedLoopSim::run(Duration horizon)
{
    // The hub bound the plan at construction; a channel added since
    // would never fire.
    SOV_ASSERT(!config_.faults ||
               config_.faults->size() == sensor_faults_.size());
    sim_.schedulePeriodic(
        Duration::seconds(1.0 / config_.planner_rate_hz),
        Duration::zero(), [this] { planningCycle(); });
    sim_.schedulePeriodic(
        Duration::seconds(1.0 / config_.physics_rate_hz),
        Duration::millisF(0.1), [this] { physicsStep(); });

    sim_.runUntil(Timestamp::origin() + horizon);
    traceNewTransitions();

    const GapFacts &gaps = gaps_.facts();
    result_.collided = gaps.collided;
    result_.min_gap = gaps.min_gap;
    result_.min_ttc = gaps.min_ttc;
    result_.nearest_obstacle = gaps.nearest_obstacle;
    result_.distance_travelled = vehicle_.odometer();
    result_.reactive_triggers = reactive_.triggerCount();
    result_.pipeline_frames_failed = pipeline_exec_.framesFailed();
    result_.can_frames_lost = can_.framesLost();
    result_.reactive_fraction = cycles_
        ? static_cast<double>(reactive_cycles_) /
            static_cast<double>(cycles_)
        : 0.0;
    result_.availability = cycles_
        ? static_cast<double>(proactive_cycles_) /
            static_cast<double>(cycles_)
        : 0.0;
    if (health_) {
        result_.final_level = health_->degradation().level();
        result_.worst_level = health_->degradation().worstLevel();
    }
    result_.elapsed = sim_.now() - Timestamp::origin();
    result_.events_executed = sim_.eventsExecuted();
    result_.event_order_digest = sim_.eventOrderDigest();
    return result_;
}

} // namespace sov
