#include "runtime/dataflow.h"

#include <algorithm>

#include "core/hash.h"
#include "core/logging.h"

namespace sov::runtime {

double
RunResult::steadyStateThroughputHz() const
{
    if (finish_times.size() < 4)
        return 0.0;
    const std::size_t half = finish_times.size() / 2;
    const double seconds =
        (finish_times.back() - finish_times[half]).toSeconds();
    if (seconds <= 0.0)
        return 0.0;
    return static_cast<double>(finish_times.size() - 1 - half) / seconds;
}

std::uint64_t
RunResult::fingerprint() const
{
    std::uint64_t h = kFnv1aOffset;
    for (const auto &frame : frames) {
        fnv1aU64(h, frame.frame);
        fnv1aU64(h, static_cast<std::uint64_t>(frame.release.ns()));
        fnv1aU64(h, static_cast<std::uint64_t>(frame.finish.ns()));
        fnv1aU64(h, (frame.deadline_missed ? 1u : 0u) |
                        (frame.failed ? 2u : 0u));
        fnv1aU64(h, frame.failed ? frame.failed_stage : 0u);
        for (const auto &span : frame.spans) {
            fnv1aU64(h, span.stage);
            fnv1aU64(h, static_cast<std::uint64_t>(span.ready.ns()));
            fnv1aU64(h, static_cast<std::uint64_t>(span.start.ns()));
            fnv1aU64(h, static_cast<std::uint64_t>(span.finish.ns()));
            fnv1aU64(h, span.attempts);
            fnv1aU64(h, (span.timed_out ? 1u : 0u) |
                            (span.crashed ? 2u : 0u) |
                            (span.cancelled ? 4u : 0u));
        }
    }
    for (const Timestamp t : finish_times)
        fnv1aU64(h, static_cast<std::uint64_t>(t.ns()));
    return h;
}

DataflowExecutor::DataflowExecutor(Simulator &sim, StageGraph &graph)
    : sim_(sim), graph_(graph), core_(graph), in_flight_(core_.laneCount())
{
    SOV_ASSERT(core_.laneCount() <= (std::size_t{1} << kLaneBits));
}

void
DataflowExecutor::attachMetrics(obs::MetricRegistry *metrics)
{
    metrics_ = metrics;
    stage_hists_.clear();
    queue_hists_.clear();
    if (!metrics_)
        return;
    for (StageId s = 0; s < graph_.size(); ++s) {
        const std::string &name = graph_.stage(s).name;
        stage_hists_.push_back(metrics_->histogramId(name));
        queue_hists_.push_back(metrics_->histogramId("queue:" + name));
    }
    total_hist_ = metrics_->histogramId("total");
}

void
DataflowExecutor::attachTrace(obs::TraceRecorder *recorder,
                              bool emit_in_flight)
{
    recorder_ = recorder;
    trace_in_flight_ = recorder && emit_in_flight;
    if (!recorder_)
        return;
    // Intern once: per-frame emission must stay allocation-free. Intern
    // in stage order (name then resource per stage) so id numbering is
    // independent of the lane layout.
    trace_ids_.stage_names.clear();
    trace_ids_.lane_tracks.assign(core_.laneCount(), 0);
    for (StageId s = 0; s < graph_.size(); ++s) {
        trace_ids_.stage_names.push_back(
            recorder_->intern(graph_.stage(s).name));
        trace_ids_.lane_tracks[core_.laneOf(s)] =
            recorder_->intern(graph_.stage(s).resource);
    }
    trace_ids_.cat_stage = recorder_->intern("stage");
    trace_ids_.cat_frame = recorder_->intern("frame");
    trace_ids_.cat_sched = recorder_->intern("sched");
    trace_ids_.cat_fault = recorder_->intern("fault");
    trace_ids_.track_pipeline = recorder_->intern("pipeline");
    trace_ids_.frame_name = recorder_->intern("frame");
    trace_ids_.deadline_miss = recorder_->intern("deadline_miss");
    trace_ids_.frame_failed = recorder_->intern("frame_failed");
    trace_ids_.stage_timeout = recorder_->intern("stage_timeout");
    trace_ids_.stage_crash = recorder_->intern("stage_crash");
    trace_ids_.stage_retry = recorder_->intern("stage_retry");
    trace_ids_.stage_cancelled = recorder_->intern("stage_cancelled");
    if (trace_in_flight_)
        trace_ids_.in_flight = recorder_->intern("frames_in_flight");
}

void
DataflowExecutor::traceFrame(const FrameTrace &trace)
{
    for (const auto &span : trace.spans) {
        // In an abandoned frame only the stages up to the failure ran;
        // the rest still hold default (zero) start/finish stamps.
        if (trace.failed && !(span.finish > span.start))
            continue;
        recorder_->span(trace_ids_.stage_names[span.stage],
                        trace_ids_.cat_stage,
                        trace_ids_.lane_tracks[core_.laneOf(span.stage)],
                        span.start, span.finish, span.frame);
    }
    recorder_->span(trace_ids_.frame_name, trace_ids_.cat_frame,
                    trace_ids_.track_pipeline, trace.release, trace.finish,
                    trace.frame);
    if (trace.deadline_missed) {
        recorder_->instant(trace_ids_.deadline_miss, trace_ids_.cat_sched,
                           trace_ids_.track_pipeline, trace.finish,
                           trace.frame);
    }
    if (trace.failed) {
        recorder_->instant(trace_ids_.frame_failed, trace_ids_.cat_fault,
                           trace_ids_.track_pipeline, trace.finish,
                           trace.frame);
    }
}

void
DataflowExecutor::traceInFlight()
{
    if (!trace_in_flight_)
        return;
    recorder_->counter(trace_ids_.in_flight, trace_ids_.track_pipeline,
                       sim_.now(),
                       static_cast<double>(framesInFlight()));
}

std::size_t
DataflowExecutor::releaseFrame(FrameCallback on_complete)
{
    const std::size_t f = next_frame_++;
    const std::uint32_t idx = core_.acquire(f, sim_.now());
    core_.slot(idx).on_complete = std::move(on_complete);
    traceInFlight();

    for (std::uint32_t lane = 0; lane < core_.laneCount(); ++lane)
        tryDispatch(lane);
    return f;
}

void
DataflowExecutor::tryDispatch(std::uint32_t lane)
{
    if (core_.laneBusy(lane) || core_.laneQueue(lane).empty())
        return;
    // In-order issue: only the head may start; a ready instance behind
    // an unready one waits (static per-resource schedule).
    const Instance head = core_.laneQueue(lane).front();
    FrameSlot &slot = core_.slot(head.slot);
    const StageId s = head.stage;
    if (!slot.ready[s])
        return;
    const std::uint64_t f = slot.frame;

    const std::uint64_t serial = core_.beginDispatch(lane, head.slot);
    StageSpan &span = slot.trace.spans[s];
    span.start = sim_.now();

    // Supervised execution: attempts run back to back in model time
    // (the watchdog kills a hung/overrunning attempt at the timeout
    // and restarts the stage) until one succeeds or retries run out.
    const StagePolicy *policy = policy_ ? &*policy_ : nullptr;
    StageExecutor &executor = graph_.executor(s);
    Duration elapsed = Duration::zero();
    bool attempt_failed = false;
    std::uint32_t attempts = 0;
    for (;;) {
        Duration d = executor.execute(f);
        SOV_ASSERT(d >= Duration::zero());
        const StageOutcome outcome = executor.lastOutcome();
        ++attempts;
        bool timed_out = false;
        if (policy && policy->timeout &&
            (outcome == StageOutcome::Hang || d > *policy->timeout)) {
            d = *policy->timeout;
            timed_out = true;
        }
        elapsed += d;
        const bool crashed = outcome == StageOutcome::Crash;
        attempt_failed = timed_out || crashed;
        if (timed_out)
            ++stage_timeouts_;
        if (crashed)
            ++stage_crashes_;
        if (recorder_ && (timed_out || crashed)) {
            // The supervision event lands where the attempt resolved
            // in model time, on the stage's resource lane.
            recorder_->instant(timed_out ? trace_ids_.stage_timeout
                                         : trace_ids_.stage_crash,
                               trace_ids_.cat_fault,
                               trace_ids_.lane_tracks[lane],
                               span.start + elapsed, f);
        }
        if (health_)
            health_->onStageAttempt(s, f, outcome, timed_out);
        span.timed_out = timed_out;
        span.crashed = crashed;
        if (!attempt_failed || !policy || attempts > policy->max_retries)
            break;
        ++stage_retries_;
        if (recorder_) {
            recorder_->instant(trace_ids_.stage_retry,
                               trace_ids_.cat_fault,
                               trace_ids_.lane_tracks[lane],
                               span.start + elapsed, f);
        }
        // Restart cost: the retry begins after the backoff, with the
        // retry instant above marking where the attempt failed.
        elapsed += policy->retry_backoff;
    }
    span.attempts = attempts;
    span.finish = span.start + elapsed;
    in_flight_[lane] = InFlight{head.slot, s, f, attempt_failed};
    sim_.post(elapsed, *this, (serial << kLaneBits) | lane);
}

void
DataflowExecutor::onEvent(std::uint64_t arg)
{
    // A stage finished: (serial << kLaneBits) | lane.
    const auto lane =
        static_cast<std::uint32_t>(arg & ((1u << kLaneBits) - 1));
    if (!core_.finishDispatch(lane, arg >> kLaneBits)) {
        // The dispatch was revoked by frame abandonment while this
        // finish event was in flight; the lane has already moved on
        // and its in-flight record may describe a newer dispatch.
        return;
    }
    const InFlight done = in_flight_[lane];
    const std::uint32_t slot_idx = done.slot;
    const StageId stage = done.stage;

    FrameSlot &slot = core_.slot(slot_idx);
    if (!slot.active || slot.frame != done.frame) {
        // The frame was abandoned (and the slot possibly re-acquired by
        // a later frame) while this instance was running.
        tryDispatch(lane);
        return;
    }
    if (done.failed) {
        failFrame(slot_idx, stage);
        tryDispatch(lane);
        return;
    }

    for (StageId dep : graph_.dependents(stage)) {
        SOV_ASSERT(slot.deps_left[dep] > 0);
        if (--slot.deps_left[dep] == 0) {
            slot.ready[dep] = true;
            slot.trace.spans[dep].ready = sim_.now();
            tryDispatch(core_.laneOf(dep));
        }
    }

    SOV_ASSERT(slot.stages_left > 0);
    if (--slot.stages_left == 0)
        completeFrame(slot_idx);
    tryDispatch(lane);
}

void
DataflowExecutor::completeFrame(std::uint32_t slot_idx)
{
    FrameSlot &slot = core_.slot(slot_idx);
    FrameTrace &trace = slot.trace;
    trace.finish = sim_.now();
    if (deadline_ && trace.latency() > *deadline_) {
        trace.deadline_missed = true;
        ++deadline_misses_;
        if (metrics_)
            metrics_->incr("deadline_misses");
    }
    ++completed_count_;
    if (metrics_) {
        for (const auto &span : trace.spans) {
            metrics_->record(stage_hists_[span.stage], span.duration());
            metrics_->record(queue_hists_[span.stage], span.queueing());
        }
        metrics_->record(total_hist_, trace.latency());
    }
    if (recorder_)
        traceFrame(trace);
    traceInFlight();
    if (health_)
        health_->onFrameCompleted(trace);
    if (keep_traces_)
        traces_.push_back(trace); // copy: the slot keeps its capacity
    FrameCallback on_complete = std::move(slot.on_complete);
    if (on_complete)
        on_complete(keep_traces_ ? traces_.back() : trace);
    // Recycle after the callback: a release triggered from it cannot
    // re-acquire this slot, so the trace reference above stays valid.
    core_.recycle(slot_idx);
}

void
DataflowExecutor::failFrame(std::uint32_t slot_idx, StageId stage)
{
    FrameSlot &slot = core_.slot(slot_idx);
    SOV_ASSERT(slot.active);

    // Revoke the frame's in-flight instances on the other lanes: each
    // lane frees immediately (its outstanding finish event goes stale
    // via the dispatch serial), so frames N+1... are not head-of-line
    // blocked behind work whose result is already discarded.
    for (std::uint32_t lane = 0; lane < core_.laneCount(); ++lane) {
        const auto revoked = core_.revokeInFlight(lane, slot_idx);
        if (!revoked)
            continue;
        StageSpan &span = slot.trace.spans[*revoked];
        span.finish = sim_.now(); // truncated at the revocation
        span.cancelled = true;
        ++stage_cancellations_;
        if (metrics_)
            metrics_->incr("stage_cancellations");
        if (recorder_) {
            recorder_->instant(trace_ids_.stage_cancelled,
                               trace_ids_.cat_fault,
                               trace_ids_.lane_tracks[lane], sim_.now(),
                               slot.frame);
        }
    }

    // Then cancel the queued-but-not-started instances of the frame.
    core_.cancelQueued(slot_idx);

    FrameTrace &trace = slot.trace;
    trace.finish = sim_.now();
    trace.failed = true;
    trace.failed_stage = stage;
    ++frames_failed_;
    ++completed_count_; // resolved: no longer counts as in flight
    if (metrics_)
        metrics_->incr("frames_failed");
    if (recorder_)
        traceFrame(trace);
    traceInFlight();
    if (health_)
        health_->onFrameFailed(trace);
    if (keep_traces_)
        traces_.push_back(trace); // copy: the slot keeps its capacity
    FrameCallback on_complete = std::move(slot.on_complete);
    if (on_complete)
        on_complete(keep_traces_ ? traces_.back() : trace);
    core_.recycle(slot_idx);

    // Re-arm every lane: revocation and cancellation may have exposed
    // ready heads (of later frames) on lanes that were busy or blocked
    // behind this frame's instances a moment ago.
    for (std::uint32_t lane = 0; lane < core_.laneCount(); ++lane)
        tryDispatch(lane);
}

RunResult
DataflowExecutor::runAsync(StageGraph &graph, const AsyncOptions &opts)
{
    Simulator sim;
    return runAsync(sim, graph, opts);
}

RunResult
DataflowExecutor::runAsync(Simulator &sim, StageGraph &graph,
                           const AsyncOptions &opts)
{
    DataflowExecutor exec(sim, graph);
    exec.deadline_ = opts.deadline;
    exec.policy_ = opts.stage_policy;
    exec.setKeepTraces(opts.keep_traces);
    exec.attachMetrics(opts.metrics);
    if (opts.trace)
        exec.attachTrace(opts.trace, /*emit_in_flight=*/true);

    RunResult result;
    result.finish_times.reserve(opts.frames);

    // Admission-windowed release: a frame enters only while fewer than
    // `window` frames are in flight. Window 1 with a zero period is
    // single-shot scheduling; a window as wide as the run with a
    // positive period is pipelined release at a fixed input rate.
    SOV_ASSERT(opts.max_in_flight >= 1);
    const std::size_t window = opts.max_in_flight;
    // Steady state begins once the window has cycled a few times; any
    // container growth after this many completions is a leak in the
    // recycling design (the bench gate).
    const std::size_t warmup =
        std::max<std::size_t>(2 * window, std::size_t{4});
    std::uint64_t warmup_growth = 0;

    struct AsyncDriver
    {
        DataflowExecutor &exec;
        RunResult &result;
        std::size_t total;
        std::size_t window;
        std::size_t warmup;
        std::uint64_t &warmup_growth;
        bool self_paced; //!< zero period: release whenever there is room
        std::size_t released = 0;
        std::size_t due = 0; //!< frames whose release tick has passed

        void
        pump()
        {
            while (released < total &&
                   (self_paced || released < due) &&
                   exec.framesInFlight() < window) {
                ++released;
                exec.releaseFrame([this](const FrameTrace &trace) {
                    result.finish_times.push_back(trace.finish);
                    if (result.finish_times.size() == warmup)
                        warmup_growth = exec.coreGrowthEvents();
                    // Backpressure release: the retirement that freed
                    // this window slot admits the next due frame.
                    pump();
                });
            }
        }
    };
    AsyncDriver driver{exec,   result,       opts.frames,
                       window, warmup,       warmup_growth,
                       opts.period <= Duration::zero()};
    if (driver.self_paced) {
        driver.pump();
    } else {
        // Release ticks are anchored at the caller's current time, so
        // a shared (already advanced) Simulator never schedules into
        // its past; with a private Simulator this is the origin.
        const Timestamp base = sim.now();
        for (std::size_t f = 0; f < opts.frames; ++f) {
            sim.scheduleAt(base + opts.period * static_cast<double>(f),
                           [&driver] {
                               ++driver.due;
                               driver.pump();
                           });
        }
    }
    sim.run();

    SOV_ASSERT(exec.framesCompleted() == opts.frames);
    result.frames = std::move(exec.traces_);
    result.deadline_misses = exec.deadlineMisses();
    result.frames_failed = exec.framesFailed();
    result.stage_cancellations = exec.stageCancellations();
    result.growth_events = exec.coreGrowthEvents();
    result.steady_growth_events =
        opts.frames > warmup ? result.growth_events - warmup_growth
                             : 0;
    return result;
}

} // namespace sov::runtime
