/**
 * @file
 * The scheduling core of the runtime dataflow layer, split out of
 * DataflowExecutor so every front-end mode — single-shot, pipelined,
 * and asynchronous pipeline-parallel — shares one arbitration path.
 *
 * The core owns the *state* of an executing StageGraph and none of its
 * *policy*: resource lanes (in-order instance rings), recycled frame
 * slots (span arrays, dependency counters, completion callbacks), and
 * the payload double-buffer ring. Supervision (watchdogs, retries),
 * observability (metrics, trace spans) and release strategy live in
 * the front end (runtime/dataflow.h).
 *
 * Steady-state allocation contract: every container here grows only
 * while the executor is warming up (first time a lane backlog or
 * in-flight window reaches its high-water mark). growthEvents() counts
 * those growths; once it stops moving, releasing and retiring frames
 * touches recycled storage only. bench_dataflow gates on exactly this
 * counter, plus FrameArena::systemAllocations() of the payload ring.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/arena.h"
#include "core/ring.h"
#include "core/time.h"
#include "runtime/stage_graph.h"

namespace sov::runtime {

/** Timing of one executed stage instance. */
struct StageSpan
{
    StageId stage = 0;
    std::size_t frame = 0;
    Timestamp released; //!< frame release (sensor trigger) time
    Timestamp ready;    //!< all dependencies satisfied
    Timestamp start;    //!< resource granted, execution begins
    Timestamp finish;
    /** Executor invocations (1 + retries taken by the watchdog). */
    std::uint32_t attempts = 1;
    /** Final attempt was truncated by the watchdog timeout. */
    bool timed_out = false;
    /** Final attempt crashed (fault injection). */
    bool crashed = false;
    /** The in-flight instance was revoked because another stage of the
     *  same frame exhausted its retries; finish is the revocation time,
     *  not the execution end. */
    bool cancelled = false;

    /** Time spent waiting for the resource after becoming ready. */
    Duration queueing() const { return start - ready; }
    Duration duration() const { return finish - start; }
};

/** Timing of one completed frame. */
struct FrameTrace
{
    std::size_t frame = 0;
    Timestamp release;
    Timestamp finish;
    bool deadline_missed = false;
    /** A stage exhausted its watchdog retries; the frame was abandoned
     *  (downstream stages cancelled) and produced no result. */
    bool failed = false;
    /** The stage that abandoned the frame (valid when failed). */
    StageId failed_stage = 0;
    /** spans[s] = span of stage s; indexed by StageId. */
    std::vector<StageSpan> spans;

    Duration latency() const { return finish - release; }
};

/** Fires when a frame completes (or is abandoned). */
using FrameCallback = std::function<void(const FrameTrace &)>;

/** One queued (frame-slot, stage) instance on a resource lane. */
struct Instance
{
    std::uint32_t slot = 0;
    std::uint32_t stage = 0;
};

/** FIFO of stage instances pending on one resource lane; its
 *  doublings count as growth events. */
using InstanceRing = Ring<Instance>;

/** Per-frame bookkeeping, recycled across frames by the slot pool. */
struct FrameSlot
{
    std::uint64_t frame = 0;
    bool active = false;
    FrameTrace trace;
    /** Unsatisfied dependency count per stage. */
    std::vector<std::uint32_t> deps_left;
    /** ready[s] != 0 once every dependency of s finished. */
    std::vector<char> ready;
    std::size_t stages_left = 0;
    FrameCallback on_complete;
};

/**
 * Arbitration state of one StageGraph execution: interned resource
 * lanes with in-order instance rings, plus the recycled frame-slot
 * pool. Policy-free — the front end decides when to release, how to
 * supervise, and what to observe.
 */
class SchedulerCore
{
  public:
    explicit SchedulerCore(const StageGraph &graph);

    // ---- lanes ------------------------------------------------------
    std::size_t laneCount() const { return lanes_.size(); }
    std::uint32_t laneOf(StageId stage) const
    {
        return stage_lane_[stage];
    }
    bool laneBusy(std::uint32_t lane) const { return lanes_[lane].busy; }
    InstanceRing &laneQueue(std::uint32_t lane)
    {
        return lanes_[lane].queue;
    }

    /**
     * Mark @p lane busy executing its head instance (of @p slot) and
     * return the dispatch serial the finish event must present to
     * finishDispatch(). Serials are bumped by every dispatch and every
     * revocation, so a finish event whose dispatch was revoked in the
     * meantime identifies itself as stale.
     */
    std::uint64_t beginDispatch(std::uint32_t lane, std::uint32_t slot);

    /**
     * Resolve the dispatch identified by @p serial: free the lane and
     * pop the completed head instance. Returns false — and touches
     * nothing — when the dispatch was revoked while its finish event
     * was in flight (the lane may already be busy with another frame).
     */
    bool finishDispatch(std::uint32_t lane, std::uint64_t serial);

    /**
     * Revoke the in-flight dispatch of @p slot on @p lane, if any: the
     * head instance is removed, the lane freed immediately, and the
     * outstanding finish event invalidated (its serial no longer
     * matches). Returns the revoked stage id, or no value when the
     * lane was not busy with @p slot.
     */
    std::optional<std::uint32_t> revokeInFlight(std::uint32_t lane,
                                                std::uint32_t slot);

    // ---- frame slots ------------------------------------------------
    /**
     * Acquire a (recycled or new) slot for @p frame released at @p now:
     * spans are re-stamped, dependency counters reset, and one instance
     * per stage is enqueued on its lane in stage order.
     */
    std::uint32_t acquire(std::uint64_t frame, Timestamp now);

    FrameSlot &slot(std::uint32_t idx) { return *slots_[idx]; }
    const FrameSlot &slot(std::uint32_t idx) const { return *slots_[idx]; }

    /** Return @p idx to the free list (drops its callback state). */
    void recycle(std::uint32_t idx);

    /** Cancel the queued-but-not-started instances of @p idx on every
     *  lane (a busy lane's head keeps its dispatch). */
    void cancelQueued(std::uint32_t idx);

    /**
     * Container growths since construction: new slot constructions plus
     * lane-ring doublings. Constant across steady-state frames once the
     * in-flight window and lane backlogs have peaked.
     */
    std::uint64_t growthEvents() const;

  private:
    struct Lane
    {
        InstanceRing queue;
        bool busy = false;
        /** Slot of the dispatched head instance (valid while busy). */
        std::uint32_t busy_slot = 0;
        /** Monotonic dispatch serial; see beginDispatch(). */
        std::uint64_t serial = 0;
    };

    const StageGraph &graph_;
    std::vector<Lane> lanes_;
    std::vector<std::uint32_t> stage_lane_; //!< per StageId
    std::vector<std::unique_ptr<FrameSlot>> slots_;
    std::vector<std::uint32_t> free_;
    std::uint64_t slot_growth_ = 0;
};

/**
 * Double-buffered (depth-N) per-frame payload storage on FrameArena.
 *
 * Kernel stages that materialize real per-frame payloads (images,
 * disparity maps, feature sets) cannot share one scratch buffer once
 * frames overlap: frame f+1's producer would overwrite frame f's bytes
 * while a downstream stage still reads them. The ring gives frame f
 * the arena slot f % depth; with the executor's admission window
 * capped at the ring depth, a slot is never reset while an older
 * frame's stages can still touch it.
 *
 * Steady state allocates nothing: each slot arena warms up once and is
 * rewound (not freed) per frame — systemAllocations() is constant
 * across steady-state frames, which bench_dataflow asserts.
 */
class FramePayloadRing
{
  public:
    explicit FramePayloadRing(std::size_t depth,
                              std::size_t first_block_bytes = 1u << 16);

    std::size_t depth() const { return arenas_.size(); }

    /** The slot backing @p frame (no reset). */
    FrameArena &slot(std::uint64_t frame)
    {
        return arenas_[frame % arenas_.size()];
    }

    /** Rewind and return @p frame's slot — call from the frame's first
     *  (producer) stage. Safe iff in-flight frames <= depth(). */
    FrameArena &acquire(std::uint64_t frame);

    /** Sum of FrameArena::systemAllocations() over all slots. */
    std::size_t systemAllocations() const;

  private:
    std::vector<FrameArena> arenas_;
};

} // namespace sov::runtime
