/**
 * @file
 * Discrete-event simulation engine.
 *
 * The SoV is modelled as components exchanging timestamped events:
 * sensor triggers, pipeline-stage completions, CAN transmissions,
 * actuator activations. The engine maintains a single global clock and
 * executes events in (time, sequence number) order so runs are fully
 * deterministic: every event draws its sequence number from one
 * counter at the moment it is scheduled, so same-time events run in
 * scheduling order.
 *
 * Three kinds of event share that one order:
 *
 *  - fixed-rate lanes (schedulePeriodic): the paper's Fig. 5 graph is
 *    driven by fixed-rate sources (200 Hz physics/radar, 10 Hz
 *    planner). A lane holds its next firing time and sequence number
 *    and never enters the event heap;
 *  - typed one-shots (post): a trivially copyable heap item naming an
 *    EventTarget and a 64-bit argument, so the hot one-shots (stage
 *    finishes, CAN delivery, actuation) allocate nothing;
 *  - cold one-shots (schedule): a std::function parked in a recycled
 *    slot pool that the heap item indexes.
 *
 * DESIGN.md "Event core" gives the argument that this order is the one
 * a single heap of closures would produce.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "core/hash.h"
#include "core/logging.h"
#include "core/time.h"

namespace sov {

/**
 * Owner of typed one-shot events (Simulator::post). The event carries
 * only the target and a 64-bit argument; whatever else the owner needs
 * it keeps itself, e.g. a FIFO of payloads when its events all share
 * one latency and so fire in the order they were posted.
 */
class EventTarget
{
  public:
    /** Handle one event posted with @p arg. */
    virtual void onEvent(std::uint64_t arg) = 0;

  protected:
    ~EventTarget() = default;
};

/** Deterministic discrete-event simulator. */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    Simulator() = default;

    // Events refer to the owning components; copying the engine would
    // dangle them.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulation time. */
    Timestamp now() const { return now_; }

    /** Schedule @p fn to run @p delay after the current time. For cold
     *  paths: the callback is parked in a recycled slot, but a capture
     *  larger than std::function's small buffer still allocates. */
    void schedule(Duration delay, Callback fn);

    /** Schedule @p fn at an absolute time (must not be in the past). */
    void scheduleAt(Timestamp when, Callback fn);

    /** Fire @p target's onEvent(@p arg) @p delay after the current
     *  time. Allocates nothing once the heap has warmed up. */
    void
    post(Duration delay, EventTarget &target, std::uint64_t arg = 0)
    {
        SOV_ASSERT(delay >= Duration::zero());
        push(now_ + delay, &target, arg);
    }

    /** post() at an absolute time (must not be in the past). */
    void
    postAt(Timestamp when, EventTarget &target, std::uint64_t arg = 0)
    {
        SOV_ASSERT(when >= now_);
        push(when, &target, arg);
    }

    /**
     * Schedule @p fn every @p period, starting at now + phase, on a
     * fixed-rate lane. The callback keeps repeating until the
     * simulation stops or the horizon passes. Each firing draws its
     * successor's sequence number after @p fn returns, so events @p fn
     * schedules at the next firing's time run first.
     */
    void schedulePeriodic(Duration period, Duration phase, Callback fn);

    /** Run until the event queue drains or the horizon is reached. */
    void runUntil(Timestamp horizon);

    /** Run until the queue drains completely. */
    void run();

    /** Request that the run loop stop after the current event. */
    void stop() { stopped_ = true; }

    /** Number of events executed since construction. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /**
     * FNV digest (fnv1aWord) of (time, sequence number) of every event
     * executed since construction, in execution order. Two runs with
     * equal digests and event counts executed the same events in the
     * same order.
     */
    std::uint64_t eventOrderDigest() const { return digest_; }

    /** True if no events are pending: no one-shots and no lanes. */
    bool idle() const { return heap_.empty() && lanes_.empty(); }

  private:
    /** A pending one-shot. Trivially copyable, so a sift moves 32
     *  bytes and never a std::function. */
    struct Item
    {
        Timestamp when;
        std::uint64_t seq; //!< tie-break: FIFO among same-time events
        /** Typed target; nullptr = the cold callback in slot @c arg. */
        EventTarget *target;
        std::uint64_t arg;
    };

    /** A fixed-rate source: its next firing is (when, seq). */
    struct Lane
    {
        Timestamp when;
        std::uint64_t seq;
        Duration period;
    };

    void push(Timestamp when, EventTarget *target, std::uint64_t arg);
    /** Point head_ at the lane that fires first. */
    void findLaneHead();
    void fireLane();
    void fireItem();

    std::vector<Item> heap_; //!< binary heap, least (when, seq) on top
    /** Cold callbacks, indexed by Item::arg; free_ recycles slots. */
    std::vector<Callback> callbacks_;
    std::vector<std::uint32_t> free_;
    std::vector<Lane> lanes_;
    /** Lane callbacks, index-aligned with lanes_. A deque keeps each
     *  in place while a firing callback registers another lane. */
    std::deque<Callback> lane_fns_;
    std::size_t head_ = 0; //!< lane with the least (when, seq)
    Timestamp now_ = Timestamp::origin();
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t digest_ = kFnv1aOffset;
    bool stopped_ = false;
};

} // namespace sov
