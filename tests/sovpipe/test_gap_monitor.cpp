/**
 * @file
 * GapMonitor against the brute-force loop it replaced: every obstacle
 * checked exactly every step, by the oracle's four-axis SAT test and
 * 32-candidate clearance (properties/geometry_oracle.h), with the
 * previous step's gap per slot for the TTC estimate. The monitor's
 * broadphase skips obstacles whose gap cannot change a fact, and
 * PreparedBox::distanceTo prunes corners and skips SAT; these tests
 * require the facts (min_gap, min_ttc, nearest obstacle, collided) and
 * the step a collision is reported on to match the oracle's bit for
 * bit over seeded random step sequences: republished rows with heading
 * and extent jumps, obstacle-count changes, a stopped ego, first-step
 * collisions and NaN poses, corner-first approaches at far anchors,
 * and agents pacing a yawing ego, where only the relative-displacement
 * TTC bound can skip.
 *
 * Rows marked closed-form sleep on wake certificates instead of being
 * checked each step. Long constant-velocity sequences (thousands of
 * steps, where certificates sleep and wake many times) compare the
 * monitor with ParentMonitor, a copy of the broadphase monitor before
 * certificates, step by step, through count changes, replaced rows,
 * NaN poses, uneven step times and collisions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "properties/geometry_oracle.h"
#include "sovpipe/gap_monitor.h"

namespace sov {
namespace {

/** The exhaustive per-step loop, as the closed loop ran it before the
 *  broadphase. */
class OracleMonitor
{
  public:
    explicit OracleMonitor(double dt_s) : dt_s_(dt_s) {}

    bool step(const OrientedBox2 &ego, const std::vector<Obstacle> &obstacles,
              const std::vector<OrientedBox2> &footprints)
    {
        if (prev_gaps_.size() != obstacles.size())
            prev_gaps_.assign(obstacles.size(), 1e18);
        for (std::size_t i = 0; i < obstacles.size(); ++i) {
            const double gap = oracle::distanceTo(ego, footprints[i]);
            if (gap < facts.min_gap) {
                facts.min_gap = gap;
                facts.nearest_obstacle = obstacles[i].id;
            }
            const double closing = (prev_gaps_[i] - gap) / dt_s_;
            if (prev_gaps_[i] < 1e17 && closing > 1e-9 && gap > 0.0)
                facts.min_ttc = std::min(facts.min_ttc, gap / closing);
            prev_gaps_[i] = gap;
            if (gap <= 0.0) {
                facts.collided = true;
                facts.min_ttc = 0.0;
                facts.nearest_obstacle = obstacles[i].id;
                return true;
            }
        }
        return false;
    }

    GapFacts facts;

  private:
    double dt_s_;
    std::vector<double> prev_gaps_;
};

/** The broadphase monitor as it was before wake certificates: every
 *  footprint built and bounded every step. */
class ParentMonitor
{
  public:
    explicit ParentMonitor(double dt_s) : dt_s_(dt_s) {}

    bool step(const OrientedBox2 &ego, const std::vector<Obstacle> &obstacles,
              Timestamp t)
    {
        if (slots_.size() != obstacles.size())
            slots_.assign(obstacles.size(), Slot{});
        prev_ego_ = ego_.box();
        ego_.assign(ego);
        const double ego_move = moveBound(prev_ego_, ego, ego_.radius());
        for (std::size_t i = 0; i < obstacles.size(); ++i) {
            Slot &slot = slots_[i];
            const PreparedBox box(obstacles[i].footprintAt(t));
            const double bound = ego_.clearanceBound(box);
            if (bound > 0.0 && bound >= facts.min_gap) {
                bool skip = !slot.stale && !(slot.prev_gap < 1e17);
                if (!skip) {
                    const double scale = maxAbs(ego.pose.position) +
                        maxAbs(box.box().pose.position) + ego_.radius() +
                        box.radius();
                    const double move =
                        (ego_move + moveBound(slot.prev_box, box.box(),
                                              box.radius())) *
                            (1.0 + 1e-9) +
                        PreparedBox::broadphaseMargin(scale);
                    skip = bound * dt_s_ >= facts.min_ttc * move;
                }
                if (skip) {
                    slot.stale = true;
                    slot.prev_box = box.box();
                    continue;
                }
            }
            if (slot.stale) {
                slot.prev_gap = PreparedBox(prev_ego_).distanceTo(
                    PreparedBox(slot.prev_box));
            }
            const double gap = ego_.distanceTo(box);
            if (gap < facts.min_gap) {
                facts.min_gap = gap;
                facts.nearest_obstacle = obstacles[i].id;
            }
            const double closing = (slot.prev_gap - gap) / dt_s_;
            if (slot.prev_gap < 1e17 && closing > 1e-9 && gap > 0.0)
                facts.min_ttc = std::min(facts.min_ttc, gap / closing);
            slot.prev_gap = gap;
            slot.stale = false;
            slot.prev_box = box.box();
            if (gap <= 0.0) {
                facts.collided = true;
                facts.min_ttc = 0.0;
                facts.nearest_obstacle = obstacles[i].id;
                return true;
            }
        }
        return false;
    }

    GapFacts facts;

  private:
    struct Slot
    {
        double prev_gap = 1e18;
        bool stale = false;
        OrientedBox2 prev_box{};
    };

    static double
    moveBound(const OrientedBox2 &from, const OrientedBox2 &to,
              double to_radius)
    {
        return (to.pose.position - from.pose.position).norm() +
               to_radius * std::fabs(to.pose.heading - from.pose.heading) +
               std::fabs(to.half_length - from.half_length) +
               std::fabs(to.half_width - from.half_width);
    }

    double dt_s_;
    std::vector<Slot> slots_;
    PreparedBox ego_;
    OrientedBox2 prev_ego_{};
};

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

::testing::AssertionResult
sameFacts(const GapFacts &want, const GapFacts &got)
{
    if (want.collided != got.collided || bits(want.min_gap) != bits(got.min_gap) ||
        bits(want.min_ttc) != bits(got.min_ttc) ||
        want.nearest_obstacle != got.nearest_obstacle)
        return ::testing::AssertionFailure()
            << "collided " << want.collided << "/" << got.collided
            << " min_gap " << want.min_gap << "/" << got.min_gap
            << " min_ttc " << want.min_ttc << "/" << got.min_ttc
            << " nearest " << want.nearest_obstacle << "/"
            << got.nearest_obstacle;
    return ::testing::AssertionSuccess();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDt = 0.005;

/** The time of physics step @p k at 200 Hz. */
Timestamp
stepTime(int k)
{
    return Timestamp::nanos(5'000'000LL * k);
}

/** One moving obstacle of a random sequence. */
struct Mover
{
    Obstacle row;
    Vec2 velocity;
    double spin = 0.0; //!< rad/s
};

Mover
randomMover(Rng &rng, ObstacleId id, const Vec2 &ego_at)
{
    Mover m;
    m.row.id = id;
    // Mostly far off the lane, sometimes near it or right on the ego.
    const double u = rng.uniform();
    const Vec2 offset = u < 0.05
        ? Vec2(rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5))
        : u < 0.4 ? Vec2(rng.uniform(-5.0, 30.0), rng.uniform(-3.0, 3.0))
                  : Vec2(rng.uniform(-20.0, 60.0), rng.uniform(-12.0, 12.0));
    m.row.footprint = OrientedBox2{Pose2{ego_at + offset, rng.uniform(-M_PI, M_PI)},
                                   rng.uniform(0.2, 2.5), rng.uniform(0.2, 1.2)};
    if (rng.bernoulli(0.6))
        m.velocity = Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0));
    if (rng.bernoulli(0.2))
        m.spin = rng.uniform(-1.0, 1.0);
    return m;
}

TEST(GapMonitor, RandomStepSequencesMatchTheExhaustiveLoop)
{
    Rng rng(515);
    int collisions = 0, first_step_collisions = 0, closing_runs = 0;
    for (int run = 0; run < 600; ++run) {
        const bool far_anchor = rng.bernoulli(0.1);
        Pose2 ego{far_anchor ? Vec2(1e6, -1e6) : Vec2(0.0, 0.0),
                  rng.uniform(-0.3, 0.3)};
        const double speed = rng.bernoulli(0.15) ? 0.0 : rng.uniform(1.0, 8.0);
        const double yaw_rate = rng.bernoulli(0.3) ? rng.uniform(-0.3, 0.3) : 0.0;

        std::vector<Mover> movers;
        const auto n = static_cast<std::size_t>(rng.uniform(0.0, 8.0));
        for (std::size_t i = 0; i < n; ++i)
            movers.push_back(randomMover(rng, static_cast<ObstacleId>(i),
                                         ego.position));
        if (rng.bernoulli(0.05) && !movers.empty()) {
            // First-step collision: an obstacle on the ego.
            movers[0].row.footprint.pose.position = ego.position;
        }
        ObstacleId next_id = static_cast<ObstacleId>(n);

        OracleMonitor oracle(kDt);
        GapMonitor monitor(kDt);
        monitor.reset();
        std::vector<Obstacle> rows;
        std::vector<OrientedBox2> boxes;
        const int steps = 400;
        for (int k = 0; k < steps; ++k) {
            // Ego motion (a stopped ego keeps a bitwise-equal pose).
            ego.heading += yaw_rate * kDt;
            ego.position += Vec2(std::cos(ego.heading), std::sin(ego.heading)) *
                            (speed * kDt);

            // Obstacle motion and republication events.
            for (Mover &m : movers) {
                m.row.footprint.pose.position += m.velocity * kDt;
                m.row.footprint.pose.heading += m.spin * kDt;
                const double e = rng.uniform();
                if (e < 0.01) {
                    m.row.footprint.pose.heading = rng.uniform(-4.0, 4.0);
                } else if (e < 0.02) {
                    m.row.footprint.half_length = rng.uniform(0.0, 3.0);
                    m.row.footprint.half_width = rng.uniform(0.0, 1.5);
                } else if (e < 0.025) {
                    m.row.footprint.pose.position += Vec2(
                        rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
                } else if (e < 0.027) {
                    if (rng.bernoulli(0.5))
                        m.row.footprint.pose.heading = kNaN;
                    else
                        m.row.footprint.pose.position.y() = kNaN;
                } else if (e < 0.03 && !std::isfinite(m.row.footprint.pose.heading +
                                                      m.row.footprint.pose.position.y())) {
                    m.row.footprint.pose.heading = 0.1;
                    m.row.footprint.pose.position.y() = ego.position.y() + 5.0;
                }
            }
            if (rng.bernoulli(0.01))
                movers.push_back(randomMover(rng, next_id++, ego.position));
            if (rng.bernoulli(0.01) && !movers.empty())
                movers.erase(movers.begin() +
                             static_cast<std::ptrdiff_t>(rng.uniform(
                                 0.0, static_cast<double>(movers.size()))));

            const Timestamp t = stepTime(k);
            rows.clear();
            boxes.clear();
            for (const Mover &m : movers) {
                rows.push_back(m.row);
                boxes.push_back(m.row.footprintAt(t));
            }

            const OrientedBox2 ego_box{ego, 1.3, 0.7};
            const bool want = oracle.step(ego_box, rows, boxes);
            const bool got = monitor.step(ego_box, rows, {}, t);
            ASSERT_EQ(want, got) << "run " << run << " step " << k;
            ASSERT_TRUE(sameFacts(oracle.facts, monitor.facts()))
                << "run " << run << " step " << k;
            if (want) {
                ++collisions;
                if (k == 0)
                    ++first_step_collisions;
                break;
            }
        }
        if (oracle.facts.min_ttc < 1e18 && !oracle.facts.collided)
            ++closing_runs;
    }
    // The sequences reach every outcome the facts can report.
    EXPECT_GT(collisions, 20);
    EXPECT_GT(first_step_collisions, 5);
    EXPECT_GT(closing_runs, 100);
}

TEST(GapMonitor, CornerFirstApproachesMatchTheExhaustiveLoop)
{
    // Obstacles that close on the ego corner first: a corner waiting on
    // the diagonal of an ego corner, or a box sliding along the
    // line of an ego side a few ulps to 1e-6 of the scale off it (its
    // heading a hair off the ego's), near the origin and at 1e6 and
    // 1e16 anchors whose axes round on different grids (at 1e16 every
    // box is a few ulps across). The monitor's pruned clearances must
    // give the exhaustive loop's facts.
    Rng rng(8086);
    int collisions = 0, closing_runs = 0;
    for (int run = 0; run < 300; ++run) {
        static const double anchors[] = {0.0, 1e6, 1e16};
        const double x = anchors[run % 3] * rng.uniform(0.5, 1.0);
        Pose2 ego{Vec2(x, x * 1e-3), rng.uniform(-0.3, 0.3)};
        const double speed = rng.uniform(0.5, 6.0);
        const Vec2 fwd(std::cos(ego.heading), std::sin(ego.heading));
        const Vec2 left(-fwd.y(), fwd.x());
        const double scale = std::max(x, 1.0);
        static const double offsets[] = {0.0, 2.2e-16, -2.2e-16, 8.9e-16, 1e-12,
                                         -1e-12, 1e-9, 2e-9, 1e-6, -1e-6};

        std::vector<Mover> movers;
        const auto n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        for (std::size_t i = 0; i < n; ++i) {
            Mover m;
            m.row.id = static_cast<ObstacleId>(i);
            const double hl = rng.uniform(0.2, 1.5), hw = rng.uniform(0.2, 1.0);
            const double off = offsets[static_cast<std::size_t>(
                                   rng.uniform(0.0, 10.0))] * scale;
            const std::size_t k = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
            if (rng.bernoulli(0.5)) {
                // A static box whose corner 0 sits on the diagonal of
                // ego corner k as the ego will be at step `meet`, the
                // offset out (or in): corner to corner a few ulps apart
                // at that step; from a front corner the ego runs into
                // it on the next.
                const int meet = 20 + static_cast<int>(rng.uniform(0.0, 230.0));
                Pose2 at = ego;
                for (int step = 0; step <= meet; ++step)
                    at.position += fwd * (speed * kDt);
                const Vec2 corner = OrientedBox2{at, 1.3, 0.7}.corners()[k];
                Vec2 diag = corner - at.position;
                diag = diag * (1.0 / diag.norm());
                const double heading = std::atan2(-diag.y(), -diag.x()) -
                                       std::atan2(hw, hl);
                const auto local = OrientedBox2{Pose2{Vec2(0.0, 0.0), heading},
                                                hl, hw}.corners();
                m.row.footprint = OrientedBox2{
                    Pose2{corner + diag * off - local[0], heading}, hl, hw};
            } else {
                // Sliding along the ego's left or right side line.
                const double side = k < 2 ? 1.0 : -1.0;
                const double tilt = rng.bernoulli(0.5) ? 0.0 : rng.uniform(-1e-12, 1e-12);
                m.row.footprint = OrientedBox2{
                    Pose2{ego.position + fwd * rng.uniform(-6.0, 12.0) +
                              left * (side * (0.7 + hw + off)),
                          ego.heading + tilt},
                    hl, hw};
                m.velocity = fwd * (speed + rng.uniform(-3.0, 3.0));
            }
            movers.push_back(m);
        }

        OracleMonitor oracle(kDt);
        GapMonitor monitor(kDt);
        std::vector<Obstacle> rows;
        std::vector<OrientedBox2> boxes;
        for (int step = 0; step < 300; ++step) {
            const Timestamp t = stepTime(step);
            ego.position += fwd * (speed * kDt);
            rows.clear();
            boxes.clear();
            for (Mover &m : movers) {
                m.row.footprint.pose.position += m.velocity * kDt;
                rows.push_back(m.row);
                boxes.push_back(m.row.footprintAt(t));
            }
            const OrientedBox2 ego_box{ego, 1.3, 0.7};
            const bool want = oracle.step(ego_box, rows, boxes);
            ASSERT_EQ(want, monitor.step(ego_box, rows, {}, t))
                << "run " << run << " step " << step;
            ASSERT_TRUE(sameFacts(oracle.facts, monitor.facts()))
                << "run " << run << " step " << step;
            if (want) {
                ++collisions;
                break;
            }
        }
        if (oracle.facts.min_ttc < 1e18 && !oracle.facts.collided)
            ++closing_runs;
    }
    EXPECT_GT(collisions, 30);
    EXPECT_GT(closing_runs, 30);
}

TEST(GapMonitor, SkippedGapsFeedTheNextEstimate)
{
    // A far obstacle is skipped while min_gap and min_ttc come from a
    // near one; when the near one leaves, the far one's TTC estimate
    // needs its last skipped gap. Both monitors must agree throughout.
    OracleMonitor oracle(kDt);
    GapMonitor monitor(kDt);
    std::vector<Obstacle> rows(2);
    rows[0].id = 7;
    rows[1].id = 9;
    rows[0].footprint = OrientedBox2{Pose2{Vec2(4.0, 1.6), 0.0}, 0.5, 0.5};
    rows[1].footprint = OrientedBox2{Pose2{Vec2(40.0, 0.0), 0.0}, 1.0, 1.0};
    std::vector<OrientedBox2> boxes(2);
    Pose2 ego{Vec2(0.0, 0.0), 0.0};
    for (int k = 0; k < 2000; ++k) {
        const Timestamp t = stepTime(k);
        ego.position.x() += 5.0 * kDt;
        if (k == 600) {
            // The near obstacle moves far away: a row republished.
            rows[0].footprint.pose.position = Vec2(-100.0, 50.0);
        }
        for (std::size_t i = 0; i < 2; ++i)
            boxes[i] = rows[i].footprintAt(t);
        const OrientedBox2 ego_box{ego, 1.3, 0.7};
        const bool want = oracle.step(ego_box, rows, boxes);
        ASSERT_EQ(want, monitor.step(ego_box, rows, {}, t)) << "step " << k;
        ASSERT_TRUE(sameFacts(oracle.facts, monitor.facts())) << "step " << k;
        if (want)
            break;
    }
    EXPECT_TRUE(oracle.facts.collided);
    EXPECT_EQ(monitor.facts().nearest_obstacle, 9u);
}

TEST(GapMonitor, CoMovingAgentsMatchTheExhaustiveLoop)
{
    // Agents pacing the ego: each step they shift by the ego's own
    // displacement (some with a small drift of their own), while the
    // ego yaws and the agents spin and resize now and then. A wall far
    // ahead sets a finite min_ttc early, so the TTC test decides the
    // skips: the sum of both displacements never passes it for a pacer,
    // the relative displacement often does, and the rotation and
    // extent terms (the ego's footprint changes size now and then too)
    // are then all that stand between a skip and a missed estimate.
    // The facts must match the exhaustive loop every step.
    Rng rng(2024);
    int collisions = 0, closing_runs = 0;
    for (int run = 0; run < 300; ++run) {
        const bool far_anchor = rng.bernoulli(0.15);
        Pose2 ego{far_anchor ? Vec2(1e6, -1e6) : Vec2(0.0, 0.0),
                  rng.uniform(-M_PI, M_PI)};
        const double speed = rng.uniform(1.0, 8.0);
        double yaw_rate = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-0.8, 0.8);
        const Vec2 fwd(std::cos(ego.heading), std::sin(ego.heading));
        const Vec2 left(-fwd.y(), fwd.x());

        std::vector<Mover> movers;
        if (rng.bernoulli(0.8)) {
            Mover wall;
            wall.row.id = 0;
            wall.row.footprint = OrientedBox2{
                Pose2{ego.position + fwd * rng.uniform(15.0, 60.0) +
                          left * rng.uniform(-1.0, 1.0),
                      ego.heading + M_PI / 2.0},
                0.5 + rng.uniform(0.0, 3.0), 0.3};
            movers.push_back(wall);
        }
        const auto pacers = 1 + static_cast<std::size_t>(rng.uniform(0.0, 5.0));
        for (std::size_t i = 0; i < pacers; ++i) {
            Mover m;
            m.row.id = static_cast<ObstacleId>(i + 1);
            const double ahead = rng.bernoulli(0.5) ? rng.uniform(3.0, 15.0)
                                                    : rng.uniform(-8.0, 8.0);
            const double side = rng.bernoulli(0.3) ? rng.uniform(-1.0, 1.0)
                                                   : rng.uniform(2.5, 7.0) *
                                                         (rng.bernoulli(0.5) ? 1.0 : -1.0);
            m.row.footprint = OrientedBox2{
                Pose2{ego.position + fwd * ahead + left * side,
                      rng.bernoulli(0.5) ? ego.heading : rng.uniform(-M_PI, M_PI)},
                rng.uniform(0.3, 2.5), rng.uniform(0.2, 1.2)};
            if (rng.bernoulli(0.3))
                m.velocity = Vec2(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3));
            if (rng.bernoulli(0.3))
                m.spin = rng.uniform(-0.8, 0.8);
            movers.push_back(m);
        }

        OracleMonitor oracle(kDt);
        GapMonitor monitor(kDt);
        std::vector<Obstacle> rows;
        std::vector<OrientedBox2> boxes;
        double ego_hl = 1.3, ego_hw = 0.7;
        for (int k = 0; k < 1000; ++k) {
            if (rng.bernoulli(0.005))
                yaw_rate = rng.bernoulli(0.3) ? 0.0 : rng.uniform(-0.8, 0.8);
            if (rng.bernoulli(0.003)) {
                ego_hl = rng.uniform(1.0, 2.0);
                ego_hw = rng.uniform(0.5, 1.0);
            }
            ego.heading += yaw_rate * kDt;
            const Vec2 shift =
                Vec2(std::cos(ego.heading), std::sin(ego.heading)) * (speed * kDt);
            ego.position += shift;
            for (Mover &m : movers) {
                if (m.row.id == 0)
                    continue; // the wall stands still
                m.row.footprint.pose.position += shift + m.velocity * kDt;
                m.row.footprint.pose.heading += m.spin * kDt;
                if (rng.bernoulli(0.003)) {
                    m.row.footprint.half_length = rng.uniform(0.3, 2.5);
                    m.row.footprint.half_width = rng.uniform(0.2, 1.2);
                }
            }
            const Timestamp t = stepTime(k);
            rows.clear();
            boxes.clear();
            for (const Mover &m : movers) {
                rows.push_back(m.row);
                boxes.push_back(m.row.footprintAt(t));
            }
            const OrientedBox2 ego_box{ego, ego_hl, ego_hw};
            const bool want = oracle.step(ego_box, rows, boxes);
            const bool got = monitor.step(ego_box, rows, {}, t);
            ASSERT_EQ(want, got) << "run " << run << " step " << k;
            ASSERT_TRUE(sameFacts(oracle.facts, monitor.facts()))
                << "run " << run << " step " << k;
            if (want) {
                ++collisions;
                break;
            }
        }
        if (oracle.facts.min_ttc < 1e18 && !oracle.facts.collided)
            ++closing_runs;
    }
    EXPECT_GT(collisions, 10);
    EXPECT_GT(closing_runs, 100);
}

/** A constant-velocity row placed relative to the ego at time
 *  @p at_s (its reference time is the origin): parked and drifting
 *  cars beside the lane, crossing pedestrians, slower cars ahead,
 *  oncoming cars, walls, or anything anywhere. */
Obstacle
cvRow(Rng &rng, ObstacleId id, const Pose2 &ego, double at_s)
{
    const Vec2 fwd(std::cos(ego.heading), std::sin(ego.heading));
    const Vec2 left(-fwd.y(), fwd.x());
    const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
    Vec2 ahead, velocity(0.0, 0.0);
    double heading = ego.heading, hl = 2.0, hw = 0.9;
    const double u = rng.uniform();
    if (u < 0.25) {
        ahead = Vec2(rng.uniform(10.0, 150.0), side * rng.uniform(2.5, 8.0));
        velocity = fwd * rng.uniform(-0.5, 0.5);
    } else if (u < 0.45) {
        ahead = Vec2(rng.uniform(10.0, 80.0), side * rng.uniform(4.0, 10.0));
        velocity = left * (-side * rng.uniform(0.8, 2.0));
        hl = hw = 0.3;
    } else if (u < 0.6) {
        ahead = Vec2(rng.uniform(15.0, 60.0), rng.uniform(-0.3, 0.3));
        velocity = fwd * rng.uniform(1.0, 4.0);
    } else if (u < 0.75) {
        ahead = Vec2(rng.uniform(40.0, 150.0), side * rng.uniform(2.5, 4.0));
        velocity = fwd * -rng.uniform(3.0, 8.0);
    } else if (u < 0.85) {
        ahead = Vec2(rng.uniform(20.0, 100.0), rng.uniform(-3.0, 3.0));
        hl = 0.5;
        hw = 2.5;
    } else {
        ahead = Vec2(rng.uniform(-30.0, 100.0), rng.uniform(-20.0, 20.0));
        heading = rng.uniform(-M_PI, M_PI);
        velocity = Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0));
        hl = rng.uniform(0.2, 2.5);
        hw = rng.uniform(0.2, 1.2);
    }
    Obstacle row;
    row.id = id;
    const Vec2 at = ego.position + fwd * ahead.x() + left * ahead.y();
    row.footprint = OrientedBox2{Pose2{at - velocity * at_s, heading}, hl, hw};
    row.velocity = velocity;
    return row;
}

TEST(GapMonitor, ConstantVelocityRowsMatchTheParentMonitor)
{
    // Long runs of mostly closed-form rows: their certificates sleep
    // for hundreds of steps and wake as the ego or a crossing obstacle
    // closes in. Rows come and go, some are replaced in place (same
    // count, new motion) or turn NaN, unmarked rows republish every
    // tick, the ego stops and starts, steps are sometimes uneven, and
    // the ego pose is NaN for a step now and then. The facts and the
    // collision step must match the parent monitor's at every step.
    Rng rng(1997);
    std::uint64_t certified = 0;
    int collisions = 0, closing_runs = 0, wake_runs = 0;
    for (int run = 0; run < 120; ++run) {
        Pose2 ego{rng.bernoulli(0.15) ? Vec2(1e6, -1e6) : Vec2(0.0, 0.0),
                  rng.uniform(-0.2, 0.2)};
        double speed = rng.uniform(2.0, 8.0);
        const double yaw_rate = rng.bernoulli(0.3) ? rng.uniform(-0.05, 0.05) : 0.0;

        std::vector<Obstacle> rows;
        std::vector<std::uint8_t> closed;
        ObstacleId next_id = 0;
        const auto n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 10.0));
        for (std::size_t i = 0; i < n; ++i) {
            rows.push_back(cvRow(rng, next_id++, ego, 0.0));
            closed.push_back(rng.bernoulli(0.9) ? 1 : 0);
        }

        GapMonitor monitor(kDt);
        ParentMonitor parent(kDt);
        std::int64_t ns = 0;
        std::uint64_t slept_before = 0, last_slept = 0;
        bool woke = false;
        for (int k = 0; k < 3000; ++k) {
            ns += rng.bernoulli(0.02)
                ? static_cast<std::int64_t>(rng.uniform(1.0, 9e6))
                : 5'000'000;
            const Timestamp t = Timestamp::nanos(ns);
            const double now_s = t.toSeconds();
            if (rng.bernoulli(0.004))
                speed = rng.bernoulli(0.3) ? 0.0 : rng.uniform(1.0, 9.0);
            ego.heading += yaw_rate * kDt;
            ego.position +=
                Vec2(std::cos(ego.heading), std::sin(ego.heading)) * (speed * kDt);

            const double e = rng.uniform();
            if (e < 0.002) {
                rows.push_back(cvRow(rng, next_id++, ego, now_s));
                closed.push_back(rng.bernoulli(0.9) ? 1 : 0);
            } else if (e < 0.004 && !rows.empty()) {
                const auto at = static_cast<std::ptrdiff_t>(
                    rng.uniform(0.0, static_cast<double>(rows.size())));
                rows.erase(rows.begin() + at);
                closed.erase(closed.begin() + at);
            } else if (e < 0.006 && !rows.empty()) {
                // A world cleared and rebuilt to the same count.
                Obstacle &row = rows[static_cast<std::size_t>(
                    rng.uniform(0.0, static_cast<double>(rows.size())))];
                row = cvRow(rng, row.id, ego, now_s);
            } else if (e < 0.007 && !rows.empty()) {
                Obstacle &row = rows[static_cast<std::size_t>(
                    rng.uniform(0.0, static_cast<double>(rows.size())))];
                if (rng.bernoulli(0.5))
                    row.footprint.pose.heading = kNaN;
                else
                    row.footprint.pose.position.x() = kNaN;
            }
            if (k % 20 == 0) {
                // Unmarked rows republish every tick, as behavioural
                // agents do.
                for (std::size_t i = 0; i < rows.size(); ++i) {
                    if (!closed[i])
                        rows[i].velocity += Vec2(rng.uniform(-0.3, 0.3),
                                                 rng.uniform(-0.3, 0.3));
                }
            }

            OrientedBox2 ego_box{ego, 1.3, 0.7};
            if (rng.bernoulli(0.001))
                ego_box.pose.heading = kNaN;
            const bool want = parent.step(ego_box, rows, t);
            const bool got = monitor.step(ego_box, rows, closed, t);
            ASSERT_EQ(want, got) << "run " << run << " step " << k;
            ASSERT_TRUE(sameFacts(parent.facts, monitor.facts()))
                << "run " << run << " step " << k;
            // A step that sleeps fewer rows than the last one woke one.
            const std::uint64_t slept = monitor.certifiedSkips() - slept_before;
            slept_before = monitor.certifiedSkips();
            if (k > 0 && slept < last_slept)
                woke = true;
            last_slept = slept;
            if (want) {
                ++collisions;
                break;
            }
        }
        certified += monitor.certifiedSkips();
        if (parent.facts.min_ttc < 1e18 && !parent.facts.collided)
            ++closing_runs;
        if (woke)
            ++wake_runs;
    }
    EXPECT_GT(certified, 200000u);
    EXPECT_GT(collisions, 10);
    EXPECT_GT(closing_runs, 30);
    EXPECT_GT(wake_runs, 60);
}

TEST(GapMonitor, ResetForgetsEverything)
{
    GapMonitor monitor(kDt);
    const OrientedBox2 ego{Pose2{Vec2(0.0, 0.0), 0.0}, 1.3, 0.7};
    std::vector<Obstacle> rows(1);
    rows[0].footprint = ego;
    EXPECT_TRUE(monitor.step(ego, rows, {}, Timestamp::origin()));
    EXPECT_TRUE(monitor.facts().collided);
    monitor.reset();
    const GapFacts fresh;
    EXPECT_TRUE(sameFacts(fresh, monitor.facts()));
}

} // namespace
} // namespace sov
