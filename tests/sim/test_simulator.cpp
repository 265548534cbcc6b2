#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <queue>
#include <vector>

#include "core/logging.h"
#include "core/rng.h"
#include "sim/simulator.h"

namespace sov {
namespace {

TEST(Simulator, ExecutesInTimeOrder)
{
    Simulator sim;
    std::vector<int> order;
    sim.schedule(Duration::millis(30), [&] { order.push_back(3); });
    sim.schedule(Duration::millis(10), [&] { order.push_back(1); });
    sim.schedule(Duration::millis(20), [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.eventsExecuted(), 3u);
}

TEST(Simulator, FifoAmongSameTimeEvents)
{
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        sim.schedule(Duration::millis(10), [&order, i] { order.push_back(i); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulator, ClockAdvancesWithEvents)
{
    Simulator sim;
    Timestamp seen;
    sim.schedule(Duration::millis(42), [&] { seen = sim.now(); });
    sim.run();
    EXPECT_EQ(seen.toMillis(), 42.0);
}

TEST(Simulator, EventsCanScheduleEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Duration::millis(1), [&] {
        ++fired;
        sim.schedule(Duration::millis(1), [&] { ++fired; });
    });
    sim.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(sim.now().toMillis(), 2.0);
}

TEST(Simulator, RunUntilHorizonLeavesLaterEvents)
{
    Simulator sim;
    int fired = 0;
    sim.schedule(Duration::millis(10), [&] { ++fired; });
    sim.schedule(Duration::millis(100), [&] { ++fired; });
    sim.runUntil(Timestamp::millisF(50.0));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now().toMillis(), 50.0);
    EXPECT_FALSE(sim.idle());
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, PeriodicFiresRepeatedly)
{
    Simulator sim;
    int count = 0;
    sim.schedulePeriodic(Duration::millis(100), Duration::zero(),
                         [&] { ++count; });
    sim.runUntil(Timestamp::millisF(450.0));
    EXPECT_EQ(count, 5); // t = 0, 100, 200, 300, 400
}

TEST(Simulator, PeriodicWithPhase)
{
    Simulator sim;
    std::vector<double> times;
    sim.schedulePeriodic(Duration::millis(100), Duration::millis(33),
                         [&] { times.push_back(sim.now().toMillis()); });
    sim.runUntil(Timestamp::millisF(300.0));
    ASSERT_EQ(times.size(), 3u);
    EXPECT_DOUBLE_EQ(times[0], 33.0);
    EXPECT_DOUBLE_EQ(times[1], 133.0);
    EXPECT_DOUBLE_EQ(times[2], 233.0);
}

TEST(Simulator, StopHaltsTheRun)
{
    Simulator sim;
    int fired = 0;
    sim.schedulePeriodic(Duration::millis(10), Duration::zero(), [&] {
        if (++fired == 3)
            sim.stop();
    });
    sim.runUntil(Timestamp::seconds(10.0));
    EXPECT_EQ(fired, 3);
}

TEST(Simulator, TypedEventsShareTheOneOrder)
{
    struct Recorder final : EventTarget
    {
        std::vector<std::uint64_t> args;
        void onEvent(std::uint64_t arg) override { args.push_back(arg); }
    };
    Simulator sim;
    Recorder target;
    std::vector<std::uint64_t> order;
    sim.post(Duration::millis(10), target, 1);
    sim.schedule(Duration::millis(10), [&] { order.push_back(2); });
    sim.postAt(Timestamp::millisF(5.0), target, 0);
    sim.post(Duration::millis(10), target, 3);
    sim.run();
    EXPECT_EQ(target.args, (std::vector<std::uint64_t>{0, 1, 3}));
    EXPECT_EQ(order, (std::vector<std::uint64_t>{2}));
    EXPECT_EQ(sim.eventsExecuted(), 4u);
    EXPECT_TRUE(sim.idle());
}

TEST(Simulator, IdleOnlyWithoutLanes)
{
    Simulator sim;
    EXPECT_TRUE(sim.idle());
    sim.schedulePeriodic(Duration::millis(10), Duration::zero(), [] {});
    EXPECT_FALSE(sim.idle());
    sim.runUntil(Timestamp::millisF(25.0));
    EXPECT_FALSE(sim.idle());
    EXPECT_EQ(sim.eventsExecuted(), 3u);
    EXPECT_EQ(sim.now().toMillis(), 25.0);
}

// ---------------------------------------------------------------------
// Oracle: the engine before fixed-rate lanes and typed events, one
// binary heap of {when, seq, std::function} items with every periodic
// firing re-armed through it. The current engine must execute any
// program in exactly the same order, with the same clock, event count
// and idle state.

class ReferenceSimulator
{
  public:
    using Callback = std::function<void()>;

    Timestamp now() const { return now_; }

    void
    schedule(Duration delay, Callback fn)
    {
        SOV_ASSERT(delay >= Duration::zero());
        scheduleAt(now_ + delay, std::move(fn));
    }

    void
    scheduleAt(Timestamp when, Callback fn)
    {
        SOV_ASSERT(when >= now_);
        queue_.push(Item{when, seq_++, std::move(fn)});
    }

    void
    schedulePeriodic(Duration period, Duration phase, Callback fn)
    {
        SOV_ASSERT(period > Duration::zero());
        periodics_.push_back(Periodic{period, std::move(fn)});
        schedule(phase, PeriodicTick{this, periodics_.size() - 1});
    }

    void
    runUntil(Timestamp horizon)
    {
        stopped_ = false;
        while (!queue_.empty() && !stopped_) {
            const Item &top = queue_.top();
            if (top.when > horizon)
                break;
            Item item{top.when, top.seq,
                      std::move(const_cast<Item &>(top).fn)};
            queue_.pop();
            now_ = item.when;
            ++executed_;
            item.fn();
        }
        if (queue_.empty() || stopped_) {
            if (!stopped_ && horizon > now_ && horizon != Timestamp::never())
                now_ = horizon;
        } else {
            now_ = horizon;
        }
    }

    void run() { runUntil(Timestamp::never()); }
    void stop() { stopped_ = true; }
    std::uint64_t eventsExecuted() const { return executed_; }
    bool idle() const { return queue_.empty(); }

  private:
    struct Item
    {
        Timestamp when;
        std::uint64_t seq;
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

    struct Periodic
    {
        Duration period;
        Callback fn;
    };

    struct PeriodicTick
    {
        ReferenceSimulator *sim;
        std::size_t index;
        void operator()() const { sim->firePeriodic(index); }
    };

    void
    firePeriodic(std::size_t index)
    {
        Periodic &p = periodics_[index];
        p.fn();
        schedule(p.period, PeriodicTick{this, index});
    }

    std::priority_queue<Item, std::vector<Item>, Later> queue_;
    std::deque<Periodic> periodics_;
    Timestamp now_ = Timestamp::origin();
    std::uint64_t seq_ = 0;
    std::uint64_t executed_ = 0;
    bool stopped_ = false;
};

/** What a program observed: every firing as (event id, time), then the
 *  engine state after each run call. */
struct Observation
{
    std::vector<std::pair<std::uint64_t, std::int64_t>> firings;
    std::vector<std::int64_t> now_after_run;
    std::vector<std::uint64_t> executed_after_run;
    std::vector<bool> idle_after_run;

    bool operator==(const Observation &) const = default;
};

/**
 * A seeded random program run on engine @p Sim. Every firing draws its
 * actions from one stream in execution order, so two engines that
 * execute in the same order issue the same calls; the first divergence
 * shows in the firing log.
 */
template <typename Sim>
class RandomProgram
{
  public:
    RandomProgram(std::uint64_t seed, bool with_lanes)
        : rng_(seed), with_lanes_(with_lanes) {}

    Observation
    run()
    {
        // Start-up: one-shots (some at zero delay, some tied) and, in
        // lane programs, periodics registered before the first run.
        for (int i = 0; i < 4; ++i)
            oneShot(delay());
        oneShot(Duration::zero());
        oneShot(Duration::zero());
        if (with_lanes_) {
            periodic();
            periodic();
        }
        // Horizons on the millisecond grid land exactly on firings.
        // A stop() inside an event ends a call early; the next call
        // resumes from there.
        for (std::int64_t ms : {3, 7, 7, 12, 20, 33}) {
            sim_.runUntil(Timestamp::origin() + Duration::millis(ms));
            note();
        }
        // Then run(): a drained queue in one-shot programs; lane
        // programs run until the firing budget makes events stop.
        draining_ = true;
        sim_.run();
        note();
        sim_.runUntil(sim_.now() + Duration::millis(5));
        note();
        return obs_;
    }

  private:
    Duration
    delay()
    {
        switch (rng_.uniformInt(0, 3)) {
          case 0:
            return Duration::zero();
          case 1:
            return Duration::millis(rng_.uniformInt(1, 4)); // ties
          case 2:
            return Duration::micros(rng_.uniformInt(1, 4000));
          default:
            return Duration::millis(1) * static_cast<double>(
                rng_.uniformInt(0, 2));
        }
    }

    void
    oneShot(Duration d)
    {
        const std::uint64_t id = next_id_++;
        sim_.schedule(d, [this, id] { fire(id, Duration::zero()); });
    }

    void
    periodic()
    {
        const std::uint64_t id = next_id_++;
        const Duration period = Duration::millis(rng_.uniformInt(1, 5));
        const Duration phase = Duration::millis(rng_.uniformInt(0, 3));
        sim_.schedulePeriodic(period, phase,
                              [this, id, period] { fire(id, period); });
    }

    /** One firing of event @p id; @p period is nonzero for a lane. */
    void
    fire(std::uint64_t id, Duration period)
    {
        obs_.firings.emplace_back(id, sim_.now().ns());
        if (++fired_ > kFiringBudget) {
            if (draining_)
                sim_.stop();
            return;
        }
        const int children = static_cast<int>(rng_.uniformInt(0, 2));
        for (int i = 0; i < children && next_id_ < kScheduleBudget; ++i)
            oneShot(delay());
        if (period > Duration::zero() && rng_.bernoulli(0.3)) {
            // At exactly this lane's next firing: must run before it.
            const std::uint64_t child = next_id_++;
            sim_.scheduleAt(sim_.now() + period, [this, child] {
                fire(child, Duration::zero());
            });
        }
        if (with_lanes_ && lanes_ < 5 && rng_.bernoulli(0.02)) {
            ++lanes_;
            periodic(); // registered from inside a callback
        }
        if (rng_.bernoulli(0.01))
            sim_.stop();
    }

    void
    note()
    {
        obs_.now_after_run.push_back(sim_.now().ns());
        obs_.executed_after_run.push_back(sim_.eventsExecuted());
        obs_.idle_after_run.push_back(sim_.idle());
    }

    static constexpr std::uint64_t kScheduleBudget = 300;
    static constexpr std::uint64_t kFiringBudget = 600;

    Sim sim_;
    Rng rng_;
    bool with_lanes_;
    bool draining_ = false;
    int lanes_ = 0;
    std::uint64_t next_id_ = 0;
    std::uint64_t fired_ = 0;
    Observation obs_;
};

TEST(SimulatorOracle, MatchesTheHeapOfClosuresEngine)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        for (bool with_lanes : {false, true}) {
            const Observation want =
                RandomProgram<ReferenceSimulator>(seed, with_lanes).run();
            const Observation got =
                RandomProgram<Simulator>(seed, with_lanes).run();
            ASSERT_GT(want.firings.size(), 6u);
            ASSERT_TRUE(got == want)
                << "seed " << seed << (with_lanes ? " with" : " without")
                << " lanes";
        }
    }
}

} // namespace
} // namespace sov
