/**
 * @file
 * Discrete-event execution of a StageGraph with resource arbitration.
 *
 * The DataflowExecutor runs frames of a StageGraph on the shared
 * discrete-event Simulator. Each resource lane executes one stage
 * instance at a time; instances issue IN ORDER per resource (frame
 * ascending, stage-insertion order within a frame), which models the
 * static algorithm-to-hardware mapping of the paper (no dynamic work
 * stealing between frames) and keeps schedules deterministic. Frames
 * pipeline: instance f+1 of a stage may start while downstream stages
 * of frame f are still in flight.
 *
 * The arbitration state (resource lanes, recycled frame slots, payload
 * double-buffers) lives in runtime/sched_core.h; this front end adds
 * supervision (one StagePolicy for every stage: watchdog timeouts,
 * retries, frame abandonment) and observability (one metric stream,
 * trace spans).
 *
 * Frames enter through one primitive, releaseFrame(). The batch driver
 * runAsync() releases them on a period under an admission window (at
 * most max_in_flight frames in flight), and the paper's
 * characterizations of the Fig. 5 pipeline are settings of those two
 * knobs:
 *
 *  - single-shot (AsyncOptions::singleShot: window 1, period 0): frame
 *    f+1 releases when f completes — the resource-constrained critical
 *    path (Fig. 10);
 *  - pipelined (AsyncOptions::pipelined: window = frames, period > 0):
 *    frame f releases at f*period unconditionally — throughput under a
 *    fixed input rate (Sec. III-A);
 *  - asynchronous pipeline-parallel (a small window, e.g. 2-3): frame
 *    N+1's sensing overlaps frame N's perception across lanes while
 *    the in-flight count — and therefore the payload double-buffer
 *    depth — stays bounded, and steady state allocates nothing.
 *
 * Per stage instance the executor records a StageSpan (release / ready
 * / start / finish, hence queueing delay = start - ready), and per
 * frame a deadline verdict (runAsync only: AsyncOptions::deadline).
 * The closed-loop simulation drives releaseFrame() from its own event
 * loop (Sec. IV/V-C timing) and sets no deadline.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/sched_core.h"
#include "runtime/stage_graph.h"
#include "sim/simulator.h"

namespace sov::runtime {

/**
 * Watchdog policy for one stage: how the runtime supervises the
 * stage's executor. A timeout truncates hangs and latency tails (the
 * watchdog kills and restarts the stage); crashes are detected from
 * the executor outcome. A failed attempt is retried up to max_retries
 * times (each retry re-invokes the executor); when retries are
 * exhausted the frame is abandoned — skip-frame degradation, the
 * paper's answer to a misbehaving pipeline component (Sec. III-C).
 */
struct StagePolicy
{
    /** Kill an attempt running longer than this; unset = never. */
    std::optional<Duration> timeout;
    /** Extra attempts after a crashed or timed-out one. */
    std::uint32_t max_retries = 0;
    /** Pause between a failed attempt and its retry (restart cost /
     *  fault clearing time). Zero keeps retries back to back and the
     *  schedule bit-identical to the pre-backoff supervisor. */
    Duration retry_backoff = Duration::zero();
};

/**
 * Observer of supervision events, implemented by the health layer.
 * Callbacks fire synchronously from the executor at simulation time.
 */
class DataflowHealthListener
{
  public:
    virtual ~DataflowHealthListener() = default;

    /** One executor attempt resolved (possibly to be retried). */
    virtual void onStageAttempt(StageId stage, std::size_t frame,
                                StageOutcome outcome, bool timed_out)
    {
        (void)stage; (void)frame; (void)outcome; (void)timed_out;
    }
    /** A frame was abandoned after exhausting a stage's retries. */
    virtual void onFrameFailed(const FrameTrace &trace) { (void)trace; }
    /** A frame completed all stages. */
    virtual void onFrameCompleted(const FrameTrace &trace) { (void)trace; }
};

/** Options for a runAsync batch run. */
struct AsyncOptions
{
    std::size_t frames = 1;
    /**
     * Release cadence. Zero = self-paced: a frame releases the moment
     * the admission window has room, so the pipeline saturates at the
     * bottleneck lane's rate. Positive = frame f is *due* at f*period
     * but still waits for admission (backpressure defers it to the
     * completion that frees a slot).
     */
    Duration period = Duration::zero();
    /**
     * Admission window: maximum frames in flight, i.e. the payload
     * double-buffer depth; must be at least 1. 2 = classic double
     * buffering (frame N+1 sensing while frame N perceives).
     */
    std::size_t max_in_flight = 2;
    /** Per-frame deadline measured from release; unset = no deadline. */
    std::optional<Duration> deadline;
    /** Stream stage spans into this recorder (not owned; optional). */
    obs::TraceRecorder *trace = nullptr;
    /** Retain FrameTraces in the result. Off = the zero-allocation
     *  configuration: finish times and counters only. */
    bool keep_traces = true;
    /** Watchdog policy applied to every stage (timeout, bounded retry
     *  with backoff); unset = unsupervised. A policy that never fires
     *  (no fault plan installed, timeout above every stage duration)
     *  leaves the schedule bit-identical to an unsupervised run. */
    std::optional<StagePolicy> stage_policy;
    /** Stream the span samples and counters of
     *  DataflowExecutor::attachMetrics into this registry (not owned;
     *  optional). */
    obs::MetricRegistry *metrics = nullptr;

    /** Single-shot: window 1, zero period. Frame f+1 releases when
     *  frame f completes, so frames never contend and per-frame
     *  latency is the resource-constrained critical path (Fig. 10). */
    static AsyncOptions
    singleShot(std::size_t frames)
    {
        AsyncOptions opts;
        opts.frames = frames;
        opts.max_in_flight = 1;
        return opts;
    }

    /** Pipelined: frame f releases at f * @p period. The window spans
     *  the run, so no frame ever waits for admission — throughput
     *  under a fixed input rate (Sec. III-A). */
    static AsyncOptions
    pipelined(std::size_t frames, Duration period)
    {
        AsyncOptions opts;
        opts.frames = frames;
        opts.max_in_flight = frames;
        opts.period = period;
        return opts;
    }
};

/** Result of a batch run. */
struct RunResult
{
    std::vector<FrameTrace> frames; //!< in completion (== frame) order
    /** Resolution time per frame (completed or abandoned), kept even
     *  when traces are not. */
    std::vector<Timestamp> finish_times;
    std::uint64_t deadline_misses = 0;
    std::uint64_t frames_failed = 0; //!< abandoned by the watchdog
    /** In-flight stage instances revoked when their frame was
     *  abandoned (head-of-line blocking removed). */
    std::uint64_t stage_cancellations = 0;
    /** Scheduler-core container growths during the run (see
     *  SchedulerCore::growthEvents()). */
    std::uint64_t growth_events = 0;
    /** Growths after the warmup prefix of an async run — the
     *  zero-steady-state-allocation gate reads exactly this. */
    std::uint64_t steady_growth_events = 0;

    const StageSpan &span(std::size_t frame, StageId stage) const
    {
        return frames.at(frame).spans.at(stage);
    }

    /**
     * Steady-state throughput in frames per second, from the spacing
     * of the last half of the frame completions.
     */
    double steadyStateThroughputHz() const;

    /** FNV-1a over every span timestamp/flag of every kept frame —
     *  the bit-identity fingerprint of a schedule. */
    std::uint64_t fingerprint() const;
};

/**
 * Event-driven executor binding one StageGraph to one Simulator.
 *
 * Two ways in:
 *  - releaseFrame() from your own event loop (the closed-loop sim
 *    releases one frame per planning cycle and transmits the actuation
 *    command from the completion callback);
 *  - the static runAsync() batch driver: a fixed number of frames
 *    under an admission window and release period, with recycled
 *    per-frame state (every single-shot, pipelined and overlapped
 *    characterization of the Fig. 5 graph).
 */
class DataflowExecutor final : private EventTarget
{
  public:
    using FrameCallback = runtime::FrameCallback;

    DataflowExecutor(Simulator &sim, StageGraph &graph);

    DataflowExecutor(const DataflowExecutor &) = delete;
    DataflowExecutor &operator=(const DataflowExecutor &) = delete;

    /** Supervise every stage with @p policy (watchdog timeout +
     *  retries). Call before releasing frames. */
    void setStagePolicy(const StagePolicy &policy) { policy_ = policy; }

    /** Attach the health observer (nullptr detaches). */
    void setHealthListener(DataflowHealthListener *listener)
    {
        health_ = listener;
    }

    /** Keep completed FrameTraces in memory (default on). Long
     *  closed-loop runs turn this off and attach metrics instead. */
    void setKeepTraces(bool keep) { keep_traces_ = keep; }

    /** Stream the "<stage>", "queue:<stage>" and "total" samples of
     *  every completed frame into @p metrics (nullptr detaches), and
     *  count the deadline_misses, stage_cancellations and frames_failed
     *  events. The histogram names are interned here, so a completed
     *  frame records by handle. */
    void attachMetrics(obs::MetricRegistry *metrics);

    /**
     * Emit every stage execution as an obs span (track = resource
     * lane) plus frame spans and supervision instants into @p
     * recorder (nullptr detaches). Stage/resource names are interned
     * here, so per-frame emission stays allocation-free.
     * @param emit_in_flight Also emit a "frames_in_flight" counter on
     *        every release and retirement — the Perfetto view of the
     *        async admission window. Off by default so existing traces
     *        keep their exact event content.
     */
    void attachTrace(obs::TraceRecorder *recorder,
                     bool emit_in_flight = false);

    /**
     * Release one frame at the current simulation time. Stage events
     * are scheduled on the bound Simulator; @p on_complete fires when
     * the frame's last stage finishes. Completion callbacks fire in
     * frame order (per-resource in-order issue guarantees it).
     * @return The frame index.
     */
    std::size_t releaseFrame(FrameCallback on_complete = {});

    std::uint64_t framesCompleted() const { return completed_count_; }
    /** Frames released but not yet completed. Callers implementing
     *  load shedding check this before releaseFrame(). */
    std::uint64_t framesInFlight() const
    {
        return next_frame_ - completed_count_;
    }
    std::uint64_t deadlineMisses() const { return deadline_misses_; }

    /** Frames abandoned because a stage exhausted its retries. */
    std::uint64_t framesFailed() const { return frames_failed_; }
    /** Stage attempts truncated by a watchdog timeout. */
    std::uint64_t stageTimeouts() const { return stage_timeouts_; }
    /** Stage attempts that crashed (fault injection). */
    std::uint64_t stageCrashes() const { return stage_crashes_; }
    /** Watchdog-driven re-executions of a stage. */
    std::uint64_t stageRetries() const { return stage_retries_; }
    /** In-flight stage instances revoked by frame abandonment. */
    std::uint64_t stageCancellations() const { return stage_cancellations_; }

    /** Completed traces (empty when keep-traces is off). */
    const std::vector<FrameTrace> &traces() const { return traces_; }

    /** Scheduler-core container growths (steady state: constant). */
    std::uint64_t coreGrowthEvents() const { return core_.growthEvents(); }

    /** Batch run of @p opts.frames frames of @p graph on a private
     *  Simulator (see AsyncOptions). */
    static RunResult runAsync(StageGraph &graph, const AsyncOptions &opts);

    /** Same, but on the caller's Simulator — the closed-loop sim and
     *  fault benches share one clock with the fault plan and health
     *  layer this way. The simulator is run to quiescence. */
    static RunResult runAsync(Simulator &sim, StageGraph &graph,
                              const AsyncOptions &opts);

  private:
    /** Interned obs names, filled by attachTrace(). */
    struct TraceIds
    {
        std::vector<obs::NameId> stage_names; //!< per StageId
        std::vector<obs::NameId> lane_tracks; //!< per lane
        obs::NameId cat_stage = 0;
        obs::NameId cat_frame = 0;
        obs::NameId cat_sched = 0;
        obs::NameId cat_fault = 0;
        obs::NameId track_pipeline = 0;
        obs::NameId frame_name = 0;
        obs::NameId deadline_miss = 0;
        obs::NameId frame_failed = 0;
        obs::NameId stage_timeout = 0;
        obs::NameId stage_crash = 0;
        obs::NameId stage_retry = 0;
        obs::NameId stage_cancelled = 0;
        obs::NameId in_flight = 0;
    };

    /** The dispatched instance of one lane, written when it starts;
     *  its finish event reads it only after the dispatch serial proved
     *  the dispatch was not revoked meanwhile. */
    struct InFlight
    {
        std::uint32_t slot = 0;
        StageId stage = 0;
        std::uint64_t frame = 0;
        bool failed = false; //!< the last attempt crashed or timed out
    };

    /** A stage-finish event's argument: the dispatch serial above the
     *  lane index (serials stay far below 2^56). */
    static constexpr unsigned kLaneBits = 8;

    void tryDispatch(std::uint32_t lane);
    /** Stage-finish event: (serial << kLaneBits) | lane. */
    void onEvent(std::uint64_t arg) override;
    void completeFrame(std::uint32_t slot_idx);
    void failFrame(std::uint32_t slot_idx, StageId stage);
    /** Emit the spans of a resolved frame into the recorder. */
    void traceFrame(const FrameTrace &trace);
    void traceInFlight();

    Simulator &sim_;
    StageGraph &graph_;
    SchedulerCore core_;
    std::vector<InFlight> in_flight_; //!< per lane
    /** The attached registry's handles for "<stage>" and
     *  "queue:<stage>" per StageId, and for "total". */
    std::vector<obs::HistogramId> stage_hists_;
    std::vector<obs::HistogramId> queue_hists_;
    obs::HistogramId total_hist_ = 0;
    std::vector<FrameTrace> traces_;
    obs::MetricRegistry *metrics_ = nullptr;
    obs::TraceRecorder *recorder_ = nullptr;
    bool trace_in_flight_ = false;
    TraceIds trace_ids_;
    DataflowHealthListener *health_ = nullptr;
    std::optional<StagePolicy> policy_;
    std::optional<Duration> deadline_;
    bool keep_traces_ = true;
    std::uint64_t next_frame_ = 0;
    std::uint64_t completed_count_ = 0;
    std::uint64_t deadline_misses_ = 0;
    std::uint64_t frames_failed_ = 0;
    std::uint64_t stage_timeouts_ = 0;
    std::uint64_t stage_crashes_ = 0;
    std::uint64_t stage_retries_ = 0;
    std::uint64_t stage_cancellations_ = 0;
};

} // namespace sov::runtime
