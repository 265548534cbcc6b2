/**
 * @file
 * Discrete-event simulation engine.
 *
 * The SoV is modelled as components exchanging timestamped events:
 * sensor triggers, pipeline-stage completions, CAN transmissions,
 * actuator activations. The engine maintains a single global clock and
 * executes callbacks in (time, insertion-order) sequence so runs are
 * fully deterministic.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "core/time.h"

namespace sov {

/** Deterministic discrete-event simulator. */
class Simulator
{
  public:
    using Callback = std::function<void()>;

    Simulator() = default;

    // Event callbacks capture references into the owning components;
    // copying the engine would dangle them.
    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulation time. */
    Timestamp now() const { return now_; }

    /** Schedule @p fn to run @p delay after the current time. */
    void schedule(Duration delay, Callback fn);

    /** Schedule @p fn at an absolute time (must not be in the past). */
    void scheduleAt(Timestamp when, Callback fn);

    /**
     * Schedule @p fn every @p period, starting at now + phase.
     * The callback keeps repeating until the simulation stops or the
     * horizon passes. Each firing reschedules after @p fn returns, so
     * events @p fn schedules at the next firing's time run first.
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

    /** True if no events are pending. */
    bool idle() const { return queue_.empty(); }

  private:
    struct Item
    {
        Timestamp when;
        std::uint64_t seq; //!< tie-break: FIFO among same-time events
        Callback fn;
    };

    struct Later
    {
        bool
        operator()(const Item &a, const Item &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** A periodic callback; its queued firing refers to it by index
     *  (PeriodicTick), so the firing fits std::function's small buffer
     *  and rescheduling allocates nothing. */
    struct Periodic
    {
        Duration period;
        Callback fn;
    };

    struct PeriodicTick
    {
        Simulator *sim;
        std::size_t index;
        void operator()() const { sim->firePeriodic(index); }
    };

    void firePeriodic(std::size_t index);

    std::priority_queue<Item, std::vector<Item>, Later> queue_;
    /** A deque keeps each entry in place while a firing callback
     *  registers another periodic. */
    std::deque<Periodic> periodics_;
    Timestamp now_ = Timestamp::origin();
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;
};

} // namespace sov
