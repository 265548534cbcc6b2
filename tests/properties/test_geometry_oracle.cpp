/**
 * @file
 * Brute-force oracle for the prepared-geometry kernel. The box queries
 * of properties/geometry_oracle.h and the namespace below hold the
 * straightforward implementations of the box, raycast, radar-corridor
 * and collision-sweep queries, each box re-derived from its pose
 * (heap-allocated corners, per-call trig) on every query, every
 * clearance the least of all 32 corner-to-edge distances, and every
 * collision sweep scanning all of a prediction's states per sample.
 * The production code prepares boxes once and reuses them; these
 * tests require its answers to match the oracle's *bit for bit* over
 * seeded random cases, including the degenerate ones: zero-extent,
 * coincident and touching boxes, edges too long to square, headings at
 * +-pi, coordinates near 1e6, NaN poses, rays starting on an edge and
 * rays parallel to one.
 *
 * The broadphase bounds (PreparedBox::clearanceBound, castRay's side
 * test and the corridor query's strip test) get their own cases at
 * their boundary: rays and strip edges grazing a box's bounding circle
 * at a corner, a few ulps to 1e-6 of the coordinate scale off it;
 * edges parallel or nearly parallel to the ray; boxes whose circles
 * nearly touch corner to corner; strip rays starting on a box (hits
 * at 0); and boxes with NaN or infinite headings, positions and
 * extents. So do the
 * exact cuts inside the queries: distanceTo's corner pruning (corners
 * on a vertex's diagonal or a few ulps off an edge line, at 1e6 and
 * 1e150 anchors, with extents down to subnormal) and firstCollision's
 * time cursor (duplicate timestamps, a sample midway between two
 * states, one or no states, states that end early). The corridor
 * query's decision range is checked against the oracle filtered to
 * hits <= range, with boxes at the range or the origin line, edges
 * along a ray, boxes too large to cast, and special ranges.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/rng.h"
#include "math/geometry.h"
#include "properties/geometry_oracle.h"
#include "planning/collision.h"
#include "planning/mpc.h"
#include "planning/prediction.h"
#include "sensors/radar.h"
#include "world/world.h"

namespace sov {
namespace oracle {

std::optional<Vec2>
intersect(const Segment2 &seg, const Segment2 &o)
{
    const Vec2 r = seg.b - seg.a;
    const Vec2 s = o.b - o.a;
    const double denom = r.x() * s.y() - r.y() * s.x();
    if (std::fabs(denom) < 1e-14)
        return std::nullopt;
    const Vec2 qp = o.a - seg.a;
    const double t = (qp.x() * s.y() - qp.y() * s.x()) / denom;
    const double u = (qp.x() * r.y() - qp.y() * r.x()) / denom;
    if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0)
        return std::nullopt;
    return seg.a + r * t;
}

bool
contains(const OrientedBox2 &box, const Vec2 &p)
{
    const Vec2 local = inverseTransform(box.pose, p);
    return std::fabs(local.x()) <= box.half_length &&
           std::fabs(local.y()) <= box.half_width;
}

std::optional<double>
raycast(const std::vector<Obstacle> &obstacles, const Vec2 &origin,
        const Vec2 &direction, double max_range, Timestamp t)
{
    if (direction.squaredNorm() == 0.0)
        return std::nullopt;
    const Vec2 dir = direction.normalized();
    const Segment2 ray{origin, origin + dir * max_range};
    std::optional<double> best;
    for (const auto &obs : obstacles) {
        const OrientedBox2 box = obs.footprintAt(t);
        if (contains(box, origin)) {
            return 0.0;
        }
        const auto cs = corners(box);
        for (std::size_t i = 0; i < 4; ++i) {
            const Segment2 edge{cs[i], cs[(i + 1) % 4]};
            if (const auto hit = intersect(ray, edge)) {
                const double d = origin.distanceTo(*hit);
                if (!best || d < *best)
                    best = d;
            }
        }
    }
    return best;
}

/** Three raycasts from @p origin and @p half_width to either side of
 *  it along the left normal of @p dir, the least hit kept. */
std::optional<double>
corridor(const std::vector<Obstacle> &obstacles, const Vec2 &origin,
         const Vec2 &dir, double half_width, double max_range, Timestamp t)
{
    const Vec2 normal(-dir.y(), dir.x());
    std::optional<double> best;
    for (const double lateral : {-half_width, 0.0, half_width}) {
        const auto hit = raycast(obstacles, origin + normal * lateral, dir,
                                 max_range, t);
        if (hit && (!best || *hit < *best))
            best = hit;
    }
    return best;
}

std::optional<double>
nearestInPath(const std::vector<Obstacle> &obstacles, const Pose2 &body,
              double corridor_half_width, double max_range, Timestamp t)
{
    return corridor(obstacles, body.position, direction(body),
                    corridor_half_width, max_range, t);
}

struct State
{
    Timestamp time;
    OrientedBox2 footprint;
};

struct Prediction
{
    std::uint32_t track_id = 0;
    std::vector<State> states;
};

std::vector<Prediction>
predictObjects(const std::vector<FusedObject> &objects, Timestamp now,
               const PredictionConfig &config)
{
    std::vector<Prediction> predictions;
    for (const auto &obj : objects) {
        Prediction pred;
        pred.track_id = obj.track_id;
        const double heading = obj.velocity.norm() > 0.1
            ? std::atan2(obj.velocity.y(), obj.velocity.x())
            : 0.0;
        for (double dt = 0.0; dt <= config.horizon_s;
             dt += config.step_s) {
            State state;
            state.time = now + Duration::seconds(dt);
            state.footprint = OrientedBox2{
                Pose2{obj.position + obj.velocity * dt, heading},
                config.half_length, config.half_width};
            pred.states.push_back(state);
        }
        predictions.push_back(std::move(pred));
    }
    return predictions;
}

std::optional<CollisionInfo>
firstCollision(const Polyline2 &path, double start_s, double speed,
               const std::vector<Prediction> &predictions,
               const EgoFootprint &ego, double max_lookahead)
{
    if (path.size() < 2 || speed <= 0.0)
        return std::nullopt;

    const double step = 0.5;
    const double end_s =
        std::min(start_s + max_lookahead, path.length());

    for (double s = start_s; s <= end_s; s += step) {
        const double t = (s - start_s) / speed;
        const OrientedBox2 ego_box{
            Pose2{path.sample(s), path.headingAt(s)},
            ego.half_length, ego.half_width};

        for (const auto &pred : predictions) {
            const State *best = nullptr;
            double best_dt = 1e18;
            for (const auto &state : pred.states) {
                const double dt = std::fabs(
                    (state.time - pred.states.front().time).toSeconds() -
                    t);
                if (dt < best_dt) {
                    best_dt = dt;
                    best = &state;
                }
            }
            if (!best || best_dt > 0.5)
                continue;
            if (overlaps(ego_box, best->footprint)) {
                return CollisionInfo{s - start_s, t, pred.track_id};
            }
        }
    }
    return std::nullopt;
}

} // namespace oracle

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t
bits(double x)
{
    return std::bit_cast<std::uint64_t>(x);
}

::testing::AssertionResult
sameBits(const std::optional<double> &want, const std::optional<double> &got)
{
    if (want.has_value() != got.has_value())
        return ::testing::AssertionFailure()
            << "engaged " << want.has_value() << " vs " << got.has_value();
    if (want && bits(*want) != bits(*got))
        return ::testing::AssertionFailure()
            << *want << " vs " << *got;
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBits(const Vec2 &want, const Vec2 &got)
{
    if (bits(want.x()) != bits(got.x()) || bits(want.y()) != bits(got.y()))
        return ::testing::AssertionFailure()
            << "(" << want.x() << ", " << want.y() << ") vs ("
            << got.x() << ", " << got.y() << ")";
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameBox(const OrientedBox2 &want, const OrientedBox2 &got)
{
    if (!sameBits(want.pose.position, got.pose.position) ||
        bits(want.pose.heading) != bits(got.pose.heading) ||
        bits(want.half_length) != bits(got.half_length) ||
        bits(want.half_width) != bits(got.half_width))
        return ::testing::AssertionFailure() << "boxes differ";
    return ::testing::AssertionSuccess();
}

/** A heading drawn to hit the wrap points and axis alignments often. */
double
randomHeading(Rng &rng)
{
    static const double special[] = {
        M_PI, -M_PI, 0.0, -0.0, M_PI / 2.0, -M_PI / 2.0,
        std::nextafter(M_PI, 0.0), std::nextafter(-M_PI, 0.0), 3.0 * M_PI,
    };
    if (rng.bernoulli(0.3))
        return special[static_cast<std::size_t>(rng.uniform(0.0, 9.0))];
    return rng.uniform(-M_PI, M_PI);
}

/** Mostly vehicle-sized; sometimes zero, sometimes so large that an
 *  edge's squared length overflows to infinity. */
double
randomExtent(Rng &rng)
{
    const double u = rng.uniform();
    if (u < 0.1)
        return 0.0;
    if (u < 0.12)
        return 1e160;
    return rng.uniform(0.05, 3.0);
}

/** Centers near the origin, or near (1e6, -1e6) where the corner
 *  arithmetic loses most of its low bits. */
Vec2
randomAnchor(Rng &rng)
{
    if (rng.bernoulli(0.2))
        return Vec2(1e6 + rng.uniform(-5.0, 5.0), -1e6 + rng.uniform(-5.0, 5.0));
    return Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
}

OrientedBox2
randomBox(Rng &rng, const Vec2 &anchor)
{
    OrientedBox2 box{
        Pose2{anchor + Vec2(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)),
              randomHeading(rng)},
        randomExtent(rng), randomExtent(rng)};
    if (rng.bernoulli(0.03)) {
        // NaN pose: a component the upstream state estimate lost.
        if (rng.bernoulli(0.5))
            box.pose.heading = kNaN;
        else
            box.pose.position.x() = kNaN;
    }
    return box;
}

/** A second box placed against @p a: coincident, sharing an edge,
 *  touching at a corner, or independent. */
OrientedBox2
partnerBox(Rng &rng, const OrientedBox2 &a, const Vec2 &anchor)
{
    const double u = rng.uniform();
    if (u < 0.15)
        return a;
    if (u >= 0.6)
        return randomBox(rng, anchor);
    OrientedBox2 b{a.pose, randomExtent(rng), randomExtent(rng)};
    const Vec2 dir(std::cos(a.pose.heading), std::sin(a.pose.heading));
    const Vec2 normal(-dir.y(), dir.x());
    if (u < 0.35) {
        // Edge to edge along the heading.
        b.pose.position = a.pose.position + dir * (a.half_length + b.half_length);
    } else if (u < 0.5) {
        // Corner to corner.
        b.pose.position = a.pose.position +
            dir * (a.half_length + b.half_length) +
            normal * (a.half_width + b.half_width);
    } else {
        // Rotated box whose corner sits on one of a's corners.
        b.pose.heading = randomHeading(rng);
        const auto ca = a.corners();
        const auto cb = OrientedBox2{Pose2{Vec2(0.0, 0.0), b.pose.heading},
                                     b.half_length, b.half_width}
                            .corners();
        b.pose.position = ca[0] - cb[2];
    }
    return b;
}

Obstacle
asObstacle(const OrientedBox2 &box, Rng &rng, ObstacleId id)
{
    Obstacle o;
    o.id = id;
    o.footprint = box;
    if (rng.bernoulli(0.5))
        o.velocity = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
    return o;
}

constexpr int kCases = 12000;

TEST(GeometryOracle, BoxQueriesBitIdentical)
{
    Rng rng(20261017);
    // Re-prepared across cases: assign() keeps the trig whenever the
    // heading repeats (the edge/corner partners share a's heading).
    PreparedBox reused;
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = randomAnchor(rng);
        const OrientedBox2 a = randomBox(rng, anchor);
        const OrientedBox2 b = partnerBox(rng, a, anchor);
        const PreparedBox pa(a), pb(b);
        reused.assign(a);
        reused.assign(b);

        const auto want_corners = oracle::corners(a);
        const auto got_corners = a.corners();
        for (std::size_t i = 0; i < 4; ++i) {
            ASSERT_TRUE(sameBits(want_corners[i], got_corners[i]))
                << "case " << c << " corner " << i;
            ASSERT_TRUE(sameBits(want_corners[i], pa.corners()[i]))
                << "case " << c << " prepared corner " << i;
        }

        const bool want_overlap = oracle::overlaps(a, b);
        ASSERT_EQ(want_overlap, a.overlaps(b)) << "case " << c;
        ASSERT_EQ(want_overlap, pa.overlaps(pb)) << "case " << c;
        ASSERT_EQ(oracle::overlaps(b, a), pb.overlaps(pa)) << "case " << c;

        const double want_gap = oracle::distanceTo(a, b);
        ASSERT_EQ(bits(want_gap), bits(a.distanceTo(b)))
            << "case " << c << ": " << want_gap << " vs " << a.distanceTo(b);
        ASSERT_EQ(bits(want_gap), bits(pa.distanceTo(pb))) << "case " << c;
        ASSERT_EQ(bits(oracle::distanceTo(b, a)), bits(pb.distanceTo(pa)))
            << "case " << c;
        ASSERT_EQ(bits(oracle::distanceTo(b, a)), bits(reused.distanceTo(pa)))
            << "case " << c;

        // Points: b's corners (on or near a's boundary when touching),
        // a's own corners and edge midpoints, and free points.
        std::vector<Vec2> points(want_corners.begin(), want_corners.end());
        for (const Vec2 &p : oracle::corners(b))
            points.push_back(p);
        for (std::size_t i = 0; i < 4; ++i)
            points.push_back((want_corners[i] + want_corners[(i + 1) % 4]) *
                             0.5);
        points.push_back(anchor + Vec2(rng.uniform(-8.0, 8.0),
                                       rng.uniform(-8.0, 8.0)));
        for (const Vec2 &p : points) {
            ASSERT_EQ(oracle::contains(a, p), a.contains(p)) << "case " << c;
            ASSERT_EQ(oracle::contains(a, p), pa.contains(p))
                << "case " << c;
        }
    }
}

TEST(GeometryOracle, RaycastAndRadarCorridorBitIdentical)
{
    Rng rng(4242);
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    RadarConfig radar_cfg;
    radar_cfg.max_range = 30.0;
    const RadarModel radar(radar_cfg, Rng(1));
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = randomAnchor(rng);
        std::vector<Obstacle> obstacles;
        const auto n = static_cast<std::size_t>(rng.uniform(0.0, 5.0));
        for (std::size_t i = 0; i < n; ++i) {
            const OrientedBox2 box = i > 0 && rng.bernoulli(0.4)
                ? partnerBox(rng, obstacles[i - 1].footprint, anchor)
                : randomBox(rng, anchor);
            obstacles.push_back(asObstacle(box, rng, static_cast<ObstacleId>(i)));
        }
        const Timestamp t = rng.bernoulli(0.3)
            ? Timestamp::origin()
            : Timestamp::seconds(rng.uniform(0.0, 2.0));
        const WorldSnapshot snap(map, obstacles, landmarks,
                                 Timestamp::origin());

        // Origin: free, on a footprint's corner, or on one of its edges;
        // direction: free, along that edge, or degenerate.
        Vec2 origin = anchor + Vec2(rng.uniform(-8.0, 8.0),
                                    rng.uniform(-8.0, 8.0));
        Vec2 dir(std::cos(randomHeading(rng)), std::sin(randomHeading(rng)));
        if (!obstacles.empty() && rng.bernoulli(0.6)) {
            const auto cs =
                oracle::corners(obstacles[c % obstacles.size()].footprintAt(t));
            const std::size_t i = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
            const Vec2 edge = cs[(i + 1) % 4] - cs[i];
            origin = rng.bernoulli(0.3) ? cs[i] : cs[i] + edge * rng.uniform();
            if (rng.bernoulli(0.5))
                dir = rng.bernoulli(0.5) ? edge : edge * -1.0;
        }
        // A NaN direction panics in normalized() on both sides; keep
        // the edge's NaN origin but cast along a real direction.
        if (std::isnan(dir.squaredNorm()))
            dir = Vec2(1.0, 0.0);
        if (rng.bernoulli(0.02))
            dir = Vec2(0.0, 0.0);
        const double range = rng.bernoulli(0.5) ? 60.0 : rng.uniform(0.5, 20.0);

        const auto want = oracle::raycast(obstacles, origin, dir, range, t);
        ASSERT_TRUE(sameBits(want, snap.raycast(origin, dir, range, t)))
            << "case " << c;

        const Pose2 body{origin, randomHeading(rng)};
        const double corridor = rng.uniform(0.0, 1.5);
        const auto want_path = oracle::nearestInPath(
            obstacles, body, corridor, radar_cfg.max_range, t);
        ASSERT_TRUE(sameBits(want_path,
                             radar.nearestInPath(snap, body, corridor, t)))
            << "case " << c;
    }
}

TEST(GeometryOracle, PredictionAndFirstCollisionBitIdentical)
{
    Rng rng(777);
    PredictionConfig pred_cfg;
    for (int c = 0; c < kCases / 4; ++c) {
        // A gently curving path from a random anchor.
        const Vec2 anchor = randomAnchor(rng);
        std::vector<Vec2> points{anchor};
        double heading = randomHeading(rng);
        const int n_points = 2 + static_cast<int>(rng.uniform(0.0, 4.0));
        for (int i = 1; i < n_points; ++i) {
            heading += rng.uniform(-0.4, 0.4);
            points.push_back(points.back() +
                             Vec2(std::cos(heading), std::sin(heading)) *
                                 rng.uniform(3.0, 15.0));
        }
        const Polyline2 path(points);

        std::vector<FusedObject> objects;
        const auto n = static_cast<std::size_t>(rng.uniform(0.0, 5.0));
        for (std::size_t i = 0; i < n; ++i) {
            FusedObject obj;
            obj.track_id = static_cast<std::uint32_t>(i + 1);
            obj.position = path.sample(rng.uniform(0.0, path.length())) +
                Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
            if (rng.bernoulli(0.7))
                obj.velocity = Vec2(rng.uniform(-3.0, 3.0),
                                    rng.uniform(-3.0, 3.0));
            if (rng.bernoulli(0.02))
                obj.position.y() = kNaN;
            objects.push_back(obj);
        }
        pred_cfg.half_length = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.2, 1.5);
        pred_cfg.half_width = rng.uniform(0.2, 1.5);
        const Timestamp now = Timestamp::seconds(rng.uniform(0.0, 30.0));

        const auto want_preds = oracle::predictObjects(objects, now, pred_cfg);
        const auto got_preds = predictObjects(objects, now, pred_cfg);
        ASSERT_EQ(want_preds.size(), got_preds.size());
        for (std::size_t i = 0; i < want_preds.size(); ++i) {
            ASSERT_EQ(want_preds[i].states.size(), got_preds[i].states.size());
            for (std::size_t k = 0; k < want_preds[i].states.size(); ++k) {
                ASSERT_EQ(want_preds[i].states[k].time,
                          got_preds[i].states[k].time);
                ASSERT_TRUE(sameBox(want_preds[i].states[k].footprint,
                                    got_preds[i].states[k].footprint.box()))
                    << "case " << c;
            }
        }

        const double start_s = rng.uniform(0.0, path.length());
        const double speed = rng.bernoulli(0.05) ? 0.0 : rng.uniform(0.5, 8.0);
        EgoFootprint ego;
        if (rng.bernoulli(0.1))
            ego.half_width = 0.0;
        const double lookahead = rng.uniform(5.0, 40.0);
        const auto want = oracle::firstCollision(path, start_s, speed,
                                                 want_preds, ego, lookahead);
        const auto got =
            firstCollision(path, start_s, speed, got_preds, ego, lookahead);
        ASSERT_EQ(want.has_value(), got.has_value()) << "case " << c;
        if (want) {
            ASSERT_EQ(bits(want->arc_length), bits(got->arc_length))
                << "case " << c;
            ASSERT_EQ(bits(want->time_to_impact), bits(got->time_to_impact))
                << "case " << c;
            ASSERT_EQ(want->track_id, got->track_id) << "case " << c;
        }
    }
}

TEST(GeometryOracle, OverflowingEdgesKeepTheirNaNCandidates)
{
    // Edges ~1e160 long square to infinity; a corner of a small box just
    // off a corner of the huge one makes the projection onto the
    // adjacent edge inf/inf = NaN, a candidate the fold drops. The
    // clamp-to-end shortcut must not turn it into a finite one.
    for (int h = 0; h < 64; ++h) {
        const double heading = -M_PI + h * (2.0 * M_PI / 64.0);
        const OrientedBox2 huge{Pose2{Vec2(0.0, 0.0), heading}, 1e160, 1e160};
        const auto cs = huge.corners();
        for (std::size_t k = 0; k < 4; ++k) {
            const Vec2 out = cs[k] * (1.0 + 1e-10);
            const OrientedBox2 small{Pose2{out, 0.1 * h}, 1.0, 1.0};
            ASSERT_EQ(bits(oracle::distanceTo(huge, small)),
                      bits(huge.distanceTo(small)))
                << "heading " << heading << " corner " << k;
            ASSERT_EQ(bits(oracle::distanceTo(small, huge)),
                      bits(small.distanceTo(huge)))
                << "heading " << heading << " corner " << k;
        }
    }
}

TEST(GeometryOracle, NoFiniteCandidateKeepsTheMaxSentinel)
{
    // Every candidate distance NaN: the clearance stays max(), as the
    // per-candidate fold always returned.
    const OrientedBox2 a{Pose2{Vec2(kNaN, 0.0), 0.0}, 1.0, 1.0};
    const OrientedBox2 b{Pose2{Vec2(5.0, 0.0), 0.0}, 1.0, 1.0};
    EXPECT_EQ(bits(oracle::distanceTo(a, b)), bits(a.distanceTo(b)));
    EXPECT_EQ(a.distanceTo(b), std::numeric_limits<double>::max());
}

/** Offsets, in units of the coordinate scale, that straddle the
 *  broadphase margin (1e-9 of the scale): zero, a few ulps, and up to
 *  well past it, each with both signs. */
std::vector<double>
boundaryOffsets()
{
    const double ulp = std::numeric_limits<double>::epsilon();
    std::vector<double> offsets{0.0};
    for (double off : {ulp, 4.0 * ulp, 1e-15, 1e-12, 5e-10, 1e-9, 2e-9,
                       1e-8, 1e-6}) {
        offsets.push_back(off);
        offsets.push_back(-off);
    }
    return offsets;
}

/** A finite box, sometimes with a zero extent, around @p anchor. */
OrientedBox2
finiteBox(Rng &rng, const Vec2 &anchor)
{
    const auto extent = [&rng] {
        return rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.05, 3.0);
    };
    return OrientedBox2{
        Pose2{anchor + Vec2(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)),
              randomHeading(rng)},
        extent(), extent()};
}

Vec2
rotated(const Vec2 &v, double angle)
{
    const double c = std::cos(angle), s = std::sin(angle);
    return Vec2(c * v.x() - s * v.y(), s * v.x() + c * v.y());
}

/**
 * Bitwise equality, except that any two NaNs match. A NaN born of
 * inf - inf or 0 * inf carries the sign of whichever NaN operand the
 * compiler placed first, and it may commute an add or multiply, so
 * where NaNs of both signs meet (NaN and infinite extents) the sign is
 * a property of the build, not of the code.
 */
::testing::AssertionResult
sameValue(const std::optional<double> &want, const std::optional<double> &got)
{
    if (want && got && std::isnan(*want) && std::isnan(*got))
        return ::testing::AssertionSuccess();
    return sameBits(want, got);
}

/** Compare the oracle with the snapshot's raycast along the ray, and
 *  with its corridor query for strips that hold the ray: all three
 *  rays on it (zero half-width), and the ray as the right or left
 *  edge of a strip of a random half-width (NaN hits compared by
 *  sameValue() when @p any_nan). */
::testing::AssertionResult
raycastMatches(const std::vector<Obstacle> &obstacles, const Vec2 &origin,
               const Vec2 &dir, double range, Timestamp t,
               bool any_nan = false)
{
    static const LaneMap map;
    static const std::vector<Landmark> landmarks;
    static Rng widths(77);
    const WorldSnapshot snap(map, obstacles, landmarks, Timestamp::origin());
    const auto same = [any_nan](const std::optional<double> &a,
                                const std::optional<double> &b) {
        return any_nan ? sameValue(a, b) : sameBits(a, b);
    };
    const auto want = oracle::raycast(obstacles, origin, dir, range, t);
    if (auto r = same(want, snap.raycast(origin, dir, range, t)); !r)
        return r << " (ray)";
    if (auto r = same(oracle::corridor(obstacles, origin, dir, 0.0, range, t),
                      snap.corridorcast(origin, dir, 0.0, range, t));
        !r)
        return r << " (zero-width strip)";
    const double w = widths.uniform(0.05, 1.5);
    const Vec2 normal(-dir.y(), dir.x());
    const Vec2 center = origin + normal * (widths.bernoulli(0.5) ? w : -w);
    if (auto r = same(oracle::corridor(obstacles, center, dir, w, range, t),
                      snap.corridorcast(center, dir, w, range, t));
        !r)
        return r << " (strip edge)";
    return ::testing::AssertionSuccess();
}

TEST(GeometryOracle, RaysGrazingTheBoundingCircleBitIdentical)
{
    Rng rng(1522);
    const std::vector<double> offsets = boundaryOffsets();
    int hits = 0, misses = 0;
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = rng.bernoulli(0.5)
            ? Vec2(1e6 + rng.uniform(-5.0, 5.0), -1e6 + rng.uniform(-5.0, 5.0))
            : Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
        std::vector<Obstacle> obstacles{
            asObstacle(finiteBox(rng, anchor), rng, 0)};
        obstacles[0].velocity = Vec2(0.0, 0.0);
        const OrientedBox2 &box = obstacles[0].footprint;
        const auto cs = oracle::corners(box);
        const std::size_t k = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        const Vec2 corner = cs[k];
        const Vec2 edge = cs[(k + 1) % 4] - corner;
        const Vec2 radial = corner - box.pose.position;

        // Direction: tangent to the circle at the corner, along the
        // corner's edge, a hair off that edge (|denom| near the 1e-14
        // parallel cut), or free.
        Vec2 dir;
        const double u = rng.uniform();
        if (u < 0.35 && radial.squaredNorm() > 0.0) {
            dir = Vec2(-radial.y(), radial.x());
        } else if (u < 0.55 && edge.squaredNorm() > 0.0) {
            dir = edge;
        } else if (u < 0.8 && edge.squaredNorm() > 0.0) {
            static const double tilts[] = {1e-17, 1e-16, 2.5e-16, 1e-15,
                                           4e-15, 1e-14};
            dir = rotated(edge, tilts[static_cast<std::size_t>(
                                    rng.uniform(0.0, 6.0))] *
                                    (rng.bernoulli(0.5) ? 1.0 : -1.0));
        } else {
            const double h = randomHeading(rng);
            dir = Vec2(std::cos(h), std::sin(h));
        }
        if (rng.bernoulli(0.5))
            dir = dir * -1.0;
        const Vec2 unit = dir.normalized();
        // Shift the line off the corner, outward from the center when
        // the direction allows it, by a boundary offset of the scale.
        Vec2 normal(-unit.y(), unit.x());
        if (normal.dot(radial) < 0.0)
            normal = normal * -1.0;
        const double scale = std::max(
            {std::fabs(corner.x()), std::fabs(corner.y()), 1.0});
        const double off =
            offsets[static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(offsets.size())))] *
            scale;
        // Origin behind the corner (the ray passes it) or past it.
        const double back = rng.bernoulli(0.8) ? rng.uniform(0.5, 10.0)
                                               : -rng.uniform(0.0, 2.0);
        const Vec2 origin = corner + normal * off - unit * back;
        if (rng.bernoulli(0.3)) {
            obstacles.push_back(
                asObstacle(finiteBox(rng, anchor), rng, 1));
        }
        const double range = rng.bernoulli(0.5) ? 60.0 : rng.uniform(0.5, 20.0);
        const Timestamp t = Timestamp::seconds(rng.uniform(0.0, 2.0));
        ASSERT_TRUE(raycastMatches(obstacles, origin, dir, range, t))
            << "case " << c;
        (oracle::raycast(obstacles, origin, dir, range, t) ? hits : misses)++;
    }
    // Both outcomes must be well represented at the boundary.
    EXPECT_GT(hits, kCases / 10);
    EXPECT_GT(misses, kCases / 10);
}

/** A box with a non-finite or degenerate component. */
OrientedBox2
nonFiniteBox(Rng &rng, const Vec2 &anchor)
{
    constexpr double kInf = std::numeric_limits<double>::infinity();
    OrientedBox2 box = finiteBox(rng, anchor);
    switch (static_cast<int>(rng.uniform(0.0, 9.0))) {
      case 0: box.pose.heading = kNaN; break;
      case 1: box.pose.heading = kInf; break;
      case 2: box.pose.heading = -kInf; break;
      case 3: box.half_length = kNaN; break;
      case 4: box.half_width = kNaN; break;
      case 5: box.half_length = 0.0; box.half_width = 0.0; break;
      case 6: box.pose.position.y() = kInf; break;
      case 7: box.half_width = kInf; break;
      default: box.pose.position.x() = -kInf; break;
    }
    return box;
}

TEST(GeometryOracle, NonFiniteBoxesTakeTheExactPath)
{
    Rng rng(9090);
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = randomAnchor(rng);
        std::vector<Obstacle> obstacles;
        const auto n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
        for (std::size_t i = 0; i < n; ++i) {
            const OrientedBox2 box = rng.bernoulli(0.5)
                ? nonFiniteBox(rng, anchor) : finiteBox(rng, anchor);
            obstacles.push_back(asObstacle(box, rng, static_cast<ObstacleId>(i)));
        }
        const Vec2 origin = anchor + Vec2(rng.uniform(-8.0, 8.0),
                                          rng.uniform(-8.0, 8.0));
        const double h = randomHeading(rng);
        const Vec2 dir(std::cos(h), std::sin(h));
        const double range = rng.uniform(0.5, 60.0);
        const Timestamp t = Timestamp::seconds(rng.uniform(0.0, 2.0));
        ASSERT_TRUE(raycastMatches(obstacles, origin, dir, range, t, true))
            << "case " << c;

        const OrientedBox2 a = obstacles[0].footprint;
        const OrientedBox2 b = rng.bernoulli(0.5)
            ? finiteBox(rng, anchor) : nonFiniteBox(rng, anchor);
        const PreparedBox pa(a), pb(b);
        const auto finite = [](const OrientedBox2 &box) {
            return std::isfinite(box.pose.heading) &&
                   std::isfinite(box.pose.position.x()) &&
                   std::isfinite(box.pose.position.y()) &&
                   std::isfinite(box.half_length * box.half_length +
                                 box.half_width * box.half_width);
        };
        if (!finite(a) || !finite(b)) {
            ASSERT_EQ(pa.clearanceBound(pb),
                      -std::numeric_limits<double>::infinity())
                << "case " << c;
        }
        ASSERT_EQ(bits(oracle::distanceTo(a, b)), bits(pa.distanceTo(pb)))
            << "case " << c;
        ASSERT_EQ(oracle::overlaps(a, b), pa.overlaps(pb)) << "case " << c;
    }
}

TEST(GeometryOracle, CorridorStripsBitIdentical)
{
    // The corridor query's strip test at its boundary: a box grazing
    // the strip's right, middle or left ray at a corner (the ray
    // tangent to its bounding circle there, along its edge or a hair
    // off it) a boundary offset of the scale out or in, next to boxes
    // with NaN or infinite components, and ray origins on a box's
    // corner or edge or inside it (hits at 0), some from a body at
    // -0. The query must give the three raycasts' answer.
    Rng rng(2718);
    const std::vector<double> offsets = boundaryOffsets();
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    int hits = 0, misses = 0, zeros = 0;
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = rng.bernoulli(0.5)
            ? Vec2(1e6 + rng.uniform(-5.0, 5.0), -1e6 + rng.uniform(-5.0, 5.0))
            : Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
        const Timestamp t = Timestamp::seconds(rng.uniform(0.0, 2.0));
        std::vector<Obstacle> obstacles{
            asObstacle(finiteBox(rng, anchor), rng, 0)};
        const OrientedBox2 box = obstacles[0].footprintAt(t);
        const auto cs = oracle::corners(box);
        const std::size_t k = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        const Vec2 corner = cs[k];
        const Vec2 edge = cs[(k + 1) % 4] - corner;
        const Vec2 radial = corner - box.pose.position;

        double heading = randomHeading(rng);
        const double u = rng.uniform();
        if (u < 0.4 && radial.squaredNorm() > 0.0) {
            heading = std::atan2(radial.x(), -radial.y());
        } else if (u < 0.6 && edge.squaredNorm() > 0.0) {
            heading = std::atan2(edge.y(), edge.x());
        } else if (u < 0.8 && edge.squaredNorm() > 0.0) {
            static const double tilts[] = {1e-16, 2.5e-16, 1e-15, 1e-14};
            heading = std::atan2(edge.y(), edge.x()) +
                      tilts[static_cast<std::size_t>(rng.uniform(0.0, 4.0))] *
                          (rng.bernoulli(0.5) ? 1.0 : -1.0);
        }
        if (rng.bernoulli(0.5))
            heading += M_PI;
        const Vec2 dir = Pose2{Vec2(0.0, 0.0), heading}.direction();
        const Vec2 unit = dir.normalized();
        const Vec2 normal(-dir.y(), dir.x());
        Vec2 out(-unit.y(), unit.x());
        if (out.dot(radial) < 0.0)
            out = out * -1.0;
        const double scale = std::max(
            {std::fabs(corner.x()), std::fabs(corner.y()), 1.0});
        const double off =
            offsets[static_cast<std::size_t>(
                rng.uniform(0.0, static_cast<double>(offsets.size())))] *
            scale;
        const double w = rng.bernoulli(0.1) ? 0.0 : rng.uniform(0.05, 1.5);
        const double laterals[3] = {-w, 0.0, w};
        const double lateral =
            laterals[static_cast<std::size_t>(rng.uniform(0.0, 3.0))];
        const double back = rng.bernoulli(0.8) ? rng.uniform(0.5, 10.0)
                                               : -rng.uniform(0.0, 2.0);
        Pose2 body{corner + out * off - unit * back - normal * lateral,
                   heading};

        bool any_nan = false;
        const double e = rng.uniform();
        if (e < 0.3) {
            obstacles.push_back(asObstacle(nonFiniteBox(rng, anchor), rng, 1));
            any_nan = true;
        } else if (e < 0.5) {
            // A ray origin on a corner or an edge of a static box, or
            // at its center.
            if (rng.bernoulli(0.2))
                body.position = Vec2(-0.0, rng.bernoulli(0.5) ? -0.0 : 0.0);
            const Vec2 from =
                body.position +
                normal * laterals[static_cast<std::size_t>(rng.uniform(0.0, 3.0))];
            Obstacle o;
            o.id = 1;
            o.footprint = finiteBox(rng, anchor);
            const auto ocs = oracle::corners(o.footprint);
            const std::size_t j = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
            const double v = rng.uniform();
            o.footprint.pose.position =
                v < 0.3 ? from
                : v < 0.6
                    ? o.footprint.pose.position + (from - ocs[j])
                    : o.footprint.pose.position +
                          (from - (ocs[j] + (ocs[(j + 1) % 4] - ocs[j]) * 0.5));
            obstacles.insert(obstacles.begin() +
                                 static_cast<std::ptrdiff_t>(rng.uniform(0.0, 2.0)),
                             o);
        } else if (e < 0.6) {
            obstacles.push_back(asObstacle(finiteBox(rng, anchor), rng, 1));
        }
        const double range = rng.bernoulli(0.5) ? 60.0 : rng.uniform(0.5, 20.0);

        const WorldSnapshot snap(map, obstacles, landmarks, Timestamp::origin());
        const auto want = oracle::nearestInPath(obstacles, body, w, range, t);
        const auto got =
            snap.corridorcast(body.position, body.direction(), w, range, t);
        ASSERT_TRUE(any_nan ? sameValue(want, got) : sameBits(want, got))
            << "case " << c;
        if (!want)
            ++misses;
        else if (*want == 0.0)
            ++zeros;
        else
            ++hits;
    }
    EXPECT_GT(hits, kCases / 10);
    EXPECT_GT(misses, kCases / 10);
    EXPECT_GT(zeros, kCases / 50);
}

/** @p hit unless it lies beyond @p range (NaN is beyond nothing). */
std::optional<double>
withinRange(const std::optional<double> &hit, double range)
{
    if (hit && *hit > range)
        return std::nullopt;
    return hit;
}

TEST(GeometryOracle, DecisionRangeCorridorBitIdentical)
{
    // The decision-range corridor query against the three raycasts of
    // the full 60 m corridor, filtered to hits <= range. Boxes have
    // their bounding circle or a corner (one where the box meets the
    // circle, or any) a boundary offset of the scale off the range or
    // off the origin line, contain a ray origin, lie along the
    // corridor with a side or end edge on a ray's line (where
    // intersect()'s parameter is rounding noise, so the full cast can
    // report a box far beyond the range at any distance), carry NaN
    // and infinite terms, or lie 1e157 out on a 1e158 corridor, too
    // large to cast without overflow. Ranges include -inf, -0, 0,
    // NaN, +inf and the unfiltered hit itself, exact or one ulp either
    // side.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr double kMaxRange = 60.0;
    Rng rng(5151);
    const std::vector<double> offsets = boundaryOffsets();
    const LaneMap map;
    const std::vector<Landmark> landmarks;
    const RadarModel radar(RadarConfig{}, Rng(1));
    const auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng.uniform(0.0, static_cast<double>(n)));
    };
    int kept = 0, cut = 0, none = 0, noise_hits = 0;
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = rng.bernoulli(0.2)
            ? Vec2(1e6 + rng.uniform(-5.0, 5.0), -1e6 + rng.uniform(-5.0, 5.0))
            : Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0));
        const Pose2 body{anchor, randomHeading(rng)};
        const Vec2 dir = body.direction();
        const Vec2 normal(-dir.y(), dir.x());
        const double w = rng.bernoulli(0.2)   ? 0.0
                         : rng.bernoulli(0.5) ? 0.8
                                              : rng.uniform(0.05, 1.5);
        const double laterals[3] = {-w, 0.0, w};
        const Timestamp t = Timestamp::seconds(rng.uniform(0.0, 2.0));
        const double u = rng.uniform();
        double range = u < 0.06   ? -kInf
                       : u < 0.1  ? kNaN
                       : u < 0.16 ? kInf
                       : u < 0.19 ? 0.0
                       : u < 0.21 ? -0.0
                                  : rng.uniform(0.5, 15.0);
        const double place =
            std::isfinite(range) ? range : rng.uniform(0.5, 15.0);
        const double scale = std::max(maxAbs(anchor), 1.0);

        std::vector<Obstacle> obstacles;
        const std::size_t n = 1 + pick(5);
        for (std::size_t i = 0; i < n; ++i) {
            OrientedBox2 box = finiteBox(rng, Vec2(0.0, 0.0));
            const double hl = box.half_length, hw = box.half_width;
            const double rho = std::sqrt(hl * hl + hw * hw);
            const double off = offsets[pick(offsets.size())] * scale;
            const Vec2 from = body.position + normal * laterals[pick(3)];
            const double kind = rng.uniform();
            if (kind < 0.12) {
                // Bounding circle's near end on the range.
                box.pose.position = from + dir * (place + rho + off) +
                                    normal * rng.uniform(-rho, rho);
            } else if (kind < 0.2) {
                // Bounding circle's far end on the origin line.
                box.pose.position = from + dir * (off - rho) +
                                    normal * rng.uniform(-rho, rho);
            } else if (kind < 0.35 && hl > 0.0 && hw > 0.0) {
                // Corner first along a ray, where the box meets its
                // bounding circle: on the range, or on the origin line
                // pointing ahead.
                const double diagonal = std::atan2(hw, hl);
                if (rng.bernoulli(0.6)) {
                    box.pose.heading = body.heading + M_PI - diagonal;
                    box.pose.position = from + dir * (place + off + rho);
                } else {
                    box.pose.heading = body.heading - diagonal;
                    box.pose.position = from + dir * (off - rho);
                }
            } else if (kind < 0.45) {
                // A corner on a ray, on the range or the origin line.
                const auto cs = oracle::corners(
                    OrientedBox2{Pose2{Vec2(0.0, 0.0), box.pose.heading}, hl, hw});
                box.pose.position =
                    from + dir * ((rng.bernoulli(0.6) ? place : 0.0) + off) -
                    cs[pick(4)];
            } else if (kind < 0.55) {
                // Containing a ray origin.
                box.pose.position =
                    from - rotated(Vec2(rng.uniform(-0.9, 0.9) * hl,
                                        rng.uniform(-0.9, 0.9) * hw),
                                   box.pose.heading);
            } else if (kind < 0.75) {
                // Along the corridor, an edge on a ray's line: heading
                // the body's (a few ulps off, turned by pi or pi/2).
                static const double turns[] = {0.0, M_PI, M_PI / 2.0, -M_PI / 2.0};
                const std::size_t turn = pick(4);
                box.half_length = rng.uniform(0.3, 3.0);
                box.half_width = rng.uniform(0.2, 1.5);
                box.pose.heading = body.heading + turns[turn] +
                                   static_cast<double>(pick(5)) * 2e-16 *
                                       (rng.bernoulli(0.5) ? 1.0 : -1.0);
                const double edge_off = turn < 2 ? box.half_width : box.half_length;
                box.pose.position = from + dir * rng.uniform(-15.0, 50.0) +
                                    normal * (rng.bernoulli(0.5) ? edge_off : -edge_off);
            } else if (kind < 0.82) {
                box = nonFiniteBox(rng, from + dir * rng.uniform(-5.0, 40.0));
            } else {
                box.pose.position = from + dir * rng.uniform(-10.0, 60.0) +
                                    normal * rng.uniform(-3.0, 3.0);
            }
            Obstacle o;
            o.id = static_cast<ObstacleId>(i);
            o.footprint = box;
            if (rng.bernoulli(0.3)) {
                o.velocity = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
                o.footprint.pose.position -= o.velocity * t.toSeconds();
            }
            obstacles.push_back(o);
        }

        // Now and then a corridor so long that boxes on it are too
        // large to cast without overflow (their exact casts hit NaN),
        // yet small enough to square.
        double max_range = kMaxRange;
        if (rng.bernoulli(0.03)) {
            max_range = 1e158;
            for (std::size_t i = 0; i < obstacles.size(); i += 2) {
                obstacles[i].footprint = OrientedBox2{
                    Pose2{body.position + dir * rng.uniform(1e156, 5e157) +
                              normal * rng.uniform(-1e151, 1e151),
                          randomHeading(rng)},
                    rng.uniform(2e152, 1e153), rng.uniform(2e152, 1e153)};
                obstacles[i].velocity = Vec2(0.0, 0.0);
            }
        }

        const WorldSnapshot snap(map, obstacles, landmarks, Timestamp::origin());
        const auto full = oracle::nearestInPath(obstacles, body, w, max_range, t);
        if (full && std::isfinite(*full) && rng.bernoulli(0.2)) {
            const double v = rng.uniform();
            range = v < 0.4   ? *full
                    : v < 0.7 ? std::nextafter(*full, -kInf)
                              : std::nextafter(*full, kInf);
        }
        const auto want = withinRange(full, range);
        ASSERT_TRUE(sameValue(want, snap.corridorcast(body.position, dir, w,
                                                      max_range, t, range)))
            << "case " << c << " range " << range;
        if (max_range == kMaxRange) {
            ASSERT_TRUE(
                sameValue(want, radar.nearestInPath(snap, body, w, t, range)))
                << "case " << c << " range " << range;
        }
        if (want)
            ++kept;
        else if (full)
            ++cut;
        else
            ++none;
        // A hit nearer than every box's bounding circle reaches is
        // intersect()'s rounding noise on an edge along a ray.
        if (full && std::isfinite(*full)) {
            bool explained = false;
            for (const Obstacle &o : obstacles) {
                const OrientedBox2 b = o.footprintAt(t);
                const double reach = std::sqrt(b.half_length * b.half_length +
                                               b.half_width * b.half_width) +
                                     w + 1e-6 * scale;
                explained = explained ||
                            !std::isfinite(b.pose.position.squaredNorm()) ||
                            (b.pose.position - body.position).dot(dir) - reach <= *full;
            }
            noise_hits += !explained;
        }
    }
    EXPECT_GT(kept, kCases / 10);
    EXPECT_GT(cut, kCases / 10);
    EXPECT_GT(none, kCases / 20);
    // The noise class is exercised, not only constructed.
    EXPECT_GT(noise_hits, 0);
}

TEST(GeometryOracle, ClearanceBoundNeverExceedsTheGap)
{
    Rng rng(31337);
    const std::vector<double> offsets = boundaryOffsets();
    int apart = 0;
    for (int c = 0; c < kCases; ++c) {
        const Vec2 anchor = randomAnchor(rng);
        OrientedBox2 a = finiteBox(rng, anchor);
        OrientedBox2 b;
        if (rng.bernoulli(0.6)) {
            // Corner to corner across the center line, the circles a
            // boundary offset of the scale from touching: the tightest
            // case of the bound.
            b = finiteBox(rng, anchor);
            const double line = randomHeading(rng);
            const Vec2 along(std::cos(line), std::sin(line));
            a.pose.heading = line - std::atan2(a.half_width, a.half_length);
            b.pose.heading =
                line + M_PI - std::atan2(b.half_width, b.half_length);
            const double ra = std::hypot(a.half_length, a.half_width);
            const double rb = std::hypot(b.half_length, b.half_width);
            const double scale =
                std::max({std::fabs(a.pose.position.x()),
                          std::fabs(a.pose.position.y()), 1.0});
            const double off =
                offsets[static_cast<std::size_t>(rng.uniform(
                    0.0, static_cast<double>(offsets.size())))] *
                scale;
            b.pose.position = a.pose.position + along * (ra + rb + off);
        } else {
            b = partnerBox(rng, a, anchor);
        }
        const PreparedBox pa(a), pb(b);
        const double bound = pa.clearanceBound(pb);
        ASSERT_EQ(bits(bound), bits(pb.clearanceBound(pa))) << "case " << c;
        if (bound > 0.0) {
            ++apart;
            ASSERT_FALSE(oracle::overlaps(a, b)) << "case " << c;
            ASSERT_GE(oracle::distanceTo(a, b), bound) << "case " << c;
        }
        // Preparing for the bound does not change the exact answers.
        ASSERT_EQ(bits(oracle::distanceTo(a, b)), bits(pa.distanceTo(pb)))
            << "case " << c;
    }
    EXPECT_GT(apart, kCases / 10);
}

TEST(GeometryOracle, FirstCollisionGrazingPredictionsBitIdentical)
{
    Rng rng(2718);
    PredictionConfig pred_cfg;
    const std::vector<double> offsets = boundaryOffsets();
    const EgoFootprint ego;
    const double ego_radius = std::hypot(ego.half_length, ego.half_width);
    int collisions = 0;
    for (int c = 0; c < kCases / 4; ++c) {
        const Vec2 anchor = randomAnchor(rng);
        const double heading = randomHeading(rng);
        const Vec2 along(std::cos(heading), std::sin(heading));
        const Vec2 left(-along.y(), along.x());
        const Polyline2 path(
            std::vector<Vec2>{anchor, anchor + along * rng.uniform(10.0, 40.0)});
        pred_cfg.half_length = rng.uniform(0.2, 1.5);
        pred_cfg.half_width = rng.uniform(0.2, 1.5);
        const double pred_radius =
            std::hypot(pred_cfg.half_length, pred_cfg.half_width);

        // Static objects beside path samples (the sweep steps 0.5 m),
        // their circles a boundary offset from the ego's.
        std::vector<FusedObject> objects;
        const auto n = 1 + static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        for (std::size_t i = 0; i < n; ++i) {
            FusedObject obj;
            obj.track_id = static_cast<std::uint32_t>(i + 1);
            const double s = 0.5 * std::floor(rng.uniform(0.0, path.length()) / 0.5);
            const double scale = std::max(
                {std::fabs(anchor.x()), std::fabs(anchor.y()), 1.0});
            const double off =
                offsets[static_cast<std::size_t>(rng.uniform(
                    0.0, static_cast<double>(offsets.size())))] *
                scale;
            const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
            const double reach = rng.bernoulli(0.5)
                ? ego_radius + pred_radius + off
                : ego.half_width + pred_cfg.half_width + off;
            obj.position = path.sample(s) + left * (side * reach);
            if (rng.bernoulli(0.5)) {
                // Corner to corner at the first sample (time 0, the
                // prediction's first state): an ego front corner and
                // an object corner on the center line, the circles a
                // boundary offset apart. The velocity sets the
                // object's heading.
                const double ego_corner = heading +
                    side * std::atan2(ego.half_width, ego.half_length);
                const double object_heading = ego_corner + M_PI -
                    std::atan2(pred_cfg.half_width, pred_cfg.half_length);
                obj.position = anchor +
                    Vec2(std::cos(ego_corner), std::sin(ego_corner)) *
                        (ego_radius + pred_radius + off);
                obj.velocity = Vec2(std::cos(object_heading),
                                    std::sin(object_heading)) * 0.2;
            }
            objects.push_back(obj);
        }
        const Timestamp now = Timestamp::seconds(rng.uniform(0.0, 30.0));
        const auto want_preds = oracle::predictObjects(objects, now, pred_cfg);
        const auto got_preds = predictObjects(objects, now, pred_cfg);
        const double speed = rng.uniform(0.5, 8.0);
        const auto want = oracle::firstCollision(path, 0.0, speed,
                                                 want_preds, ego, 40.0);
        const auto got =
            firstCollision(path, 0.0, speed, got_preds, ego, 40.0);
        ASSERT_EQ(want.has_value(), got.has_value()) << "case " << c;
        if (want) {
            ++collisions;
            ASSERT_EQ(bits(want->arc_length), bits(got->arc_length))
                << "case " << c;
            ASSERT_EQ(want->track_id, got->track_id) << "case " << c;
        }
    }
    EXPECT_GT(collisions, 0);
}


/** Where a box pair lives: its anchor, the extent unit its boxes take,
 *  and the coordinate scale the boundary offsets are fractions of. */
struct Frame
{
    Vec2 anchor;
    double unit;
    double scale;
};

/**
 * Near the origin with vehicle-sized extents, with extents whose
 * squares underflow (1e-170 to 1e-150) or that are subnormal, or at a
 * 1e6 or 1e150 anchor (its y up to 1e8 times smaller, so the axes
 * round on different grids) with extents from vehicle-sized down to a
 * few ulps of the anchor, where corner placement rounds by a large
 * share of the extent and the computed radius no longer bounds the
 * corners.
 */
Frame
randomFrame(Rng &rng)
{
    const double u = rng.uniform();
    if (u < 0.25)
        return {Vec2(rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)), 1.0,
                10.0};
    if (u < 0.35) {
        const double unit = std::pow(10.0, -rng.uniform(150.0, 170.0));
        return {Vec2(0.0, 0.0), unit, unit};
    }
    if (u < 0.4)
        return {Vec2(0.0, 0.0), 1e-310, 1e-310};
    const double a = (u < 0.7 ? 1e6 : 1e150) * rng.uniform(0.5, 1.0);
    const double ulp = std::nextafter(a, 2.0 * a) - a;
    static const double units[] = {0.3, 1.0, 3.0, 30.0, 300.0, 1e6};
    const double unit = a < 1e7 && rng.bernoulli(0.3)
        ? 1.0
        : ulp * units[static_cast<std::size_t>(rng.uniform(0.0, 6.0))];
    return {Vec2(a, -a * std::pow(10.0, -rng.uniform(0.0, 8.0))), unit, a};
}

/** An extent in @p frame: mostly a few units, sometimes zero or
 *  subnormal whatever the unit. */
double
frameExtent(Rng &rng, const Frame &frame)
{
    const double u = rng.uniform();
    if (u < 0.08)
        return 0.0;
    if (u < 0.16)
        return rng.uniform(0.01, 10.0) * 1e-310;
    return rng.uniform(0.05, 3.0) * frame.unit;
}

/** The center that puts corner @p k of a box with these extents and
 *  heading at @p at (up to the rounding of placing it). */
Vec2
centerForCorner(double half_length, double half_width, double heading,
                std::size_t k, const Vec2 &at)
{
    const auto local = oracle::corners(
        OrientedBox2{Pose2{Vec2(0.0, 0.0), heading}, half_length, half_width});
    return at - local[k];
}

/** A heading that points corner @p k of a box with these extents along
 *  @p dir, turned by a jitter from exact to well off. */
double
cornerFacing(Rng &rng, double half_length, double half_width, std::size_t k,
             const Vec2 &dir)
{
    static const double jitters[] = {0.0, 0.0, 1e-12, -1e-12, 0.3, -0.3,
                                     M_PI / 4.0, -M_PI / 4.0};
    static const double sx[] = {1.0, -1.0, -1.0, 1.0};
    static const double sy[] = {1.0, 1.0, -1.0, -1.0};
    return std::atan2(dir.y(), dir.x()) -
           std::atan2(sy[k] * half_width, sx[k] * half_length) +
           jitters[static_cast<std::size_t>(rng.uniform(0.0, 8.0))];
}

/** A gap at the boundary: a boundary offset of the scale, a share of
 *  the unit, or zero. */
double
boundaryGap(Rng &rng, const Frame &frame, const std::vector<double> &offsets)
{
    const double u = rng.uniform();
    if (u < 0.6)
        return offsets[static_cast<std::size_t>(
                   rng.uniform(0.0, static_cast<double>(offsets.size())))] *
               frame.scale;
    if (u < 0.9)
        return rng.uniform(0.0, 1.0) * frame.unit;
    return 0.0;
}

TEST(GeometryOracle, CornerPruningBitIdentical)
{
    Rng rng(60221);
    const std::vector<double> offsets = boundaryOffsets();
    int vertex = 0, edge_line = 0, bound_close = 0, apart = 0, touching = 0;
    for (int c = 0; c < 2 * kCases; ++c) {
        const Frame frame = randomFrame(rng);
        OrientedBox2 b{Pose2{frame.anchor, randomHeading(rng)},
                       frameExtent(rng, frame), frameExtent(rng, frame)};
        OrientedBox2 a{Pose2{}, frameExtent(rng, frame),
                       frameExtent(rng, frame)};
        const auto cb = oracle::corners(b);
        const std::size_t k = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        const std::size_t j = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        const double u = rng.uniform();
        bool corner_to_corner = false;
        if (u < 0.3) {
            // a's corner j on the diagonal of b's vertex k, a gap out:
            // the nearest points are that vertex, reached from both of
            // b's edges that meet there.
            Vec2 diag = cb[k] - b.pose.position;
            if (!(diag.squaredNorm() > 0.0))
                diag = oracle::direction(b.pose);
            diag = diag * (1.0 / diag.norm());
            a.pose.heading =
                cornerFacing(rng, a.half_length, a.half_width, j, diag * -1.0);
            a.pose.position = centerForCorner(
                a.half_length, a.half_width, a.pose.heading, j,
                cb[k] + diag * boundaryGap(rng, frame, offsets));
            ++vertex;
        } else if (u < 0.6) {
            // a's corner j a boundary gap off the line of b's edge k,
            // mostly outside, somewhere along the edge.
            const Vec2 e = cb[(k + 1) % 4] - cb[k];
            Vec2 normal(e.y(), -e.x());
            if (!(normal.squaredNorm() > 0.0))
                normal = oracle::direction(b.pose);
            normal = normal * (1.0 / normal.norm());
            const double side = rng.bernoulli(0.8) ? 1.0 : -1.0;
            const Vec2 at = cb[k] + e * rng.uniform(0.0, 1.0) +
                            normal * (side * boundaryGap(rng, frame, offsets));
            a.pose.heading =
                cornerFacing(rng, a.half_length, a.half_width, j, normal * -1.0);
            a.pose.position = centerForCorner(a.half_length, a.half_width,
                                              a.pose.heading, j, at);
            ++edge_line;
        } else if (u < 0.8) {
            // Corner to corner across the center line, the bounding
            // circles a boundary gap apart: the clearance bound is
            // positive but within 1e-6 of the scale.
            const double line = randomHeading(rng);
            const Vec2 along(std::cos(line), std::sin(line));
            b.pose.heading =
                line + M_PI - std::atan2(b.half_width, b.half_length);
            a.pose.heading = line - std::atan2(a.half_width, a.half_length);
            a.pose.position = b.pose.position -
                along * (std::hypot(a.half_length, a.half_width) +
                         std::hypot(b.half_length, b.half_width) +
                         boundaryGap(rng, frame, offsets));
            corner_to_corner = true;
        } else {
            a.pose.heading = randomHeading(rng);
            a.pose.position = b.pose.position +
                Vec2(rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)) *
                    frame.unit;
        }
        if (rng.bernoulli(0.05)) {
            // A NaN or infinite component on either side.
            constexpr double kInf = std::numeric_limits<double>::infinity();
            OrientedBox2 &victim = rng.bernoulli(0.5) ? a : b;
            switch (static_cast<int>(rng.uniform(0.0, 6.0))) {
              case 0: victim.pose.heading = kNaN; break;
              case 1: victim.pose.heading = rng.bernoulli(0.5) ? kInf : -kInf; break;
              case 2: victim.half_length = kNaN; break;
              case 3: victim.half_width = kInf; break;
              case 4: victim.pose.position.y() = -kInf; break;
              default: victim.pose.position.x() = kNaN; break;
            }
        }
        const PreparedBox pa(a), pb(b);
        const double bound = pa.clearanceBound(pb);
        if (corner_to_corner && bound > 0.0 && bound < 1e-6 * frame.scale)
            ++bound_close;
        const double want = oracle::distanceTo(a, b);
        if (bound > 0.0) {
            ASSERT_FALSE(oracle::overlaps(a, b)) << "case " << c;
            ASSERT_GE(want, bound) << "case " << c;
        }
        ASSERT_EQ(bits(want), bits(pa.distanceTo(pb)))
            << "case " << c << ": " << want << " vs " << pa.distanceTo(pb);
        ASSERT_EQ(bits(oracle::distanceTo(b, a)), bits(pb.distanceTo(pa)))
            << "case " << c;
        ASSERT_EQ(bits(want), bits(a.distanceTo(b))) << "case " << c;
        (want > 0.0 ? apart : touching)++;
    }
    // Every placement, and both outcomes, well represented.
    EXPECT_GT(vertex, kCases / 2);
    EXPECT_GT(edge_line, kCases / 2);
    EXPECT_GT(bound_close, kCases / 40);
    EXPECT_GT(apart, kCases);
    EXPECT_GT(touching, kCases / 10);
}

TEST(GeometryOracle, SubUlpBoxesAtFarAnchorsBitIdentical)
{
    // Boxes a fraction of an ulp to a few ulps across, at a 1e6 or
    // 1e150 anchor whose y is up to 1e8 times smaller than its x (so
    // the two axes round on different grids): corners snap to the grid
    // well past the computed radius, and only the pruning margin keeps
    // such a corner's edges in the fold.
    Rng rng(4669);
    int apart = 0;
    for (int c = 0; c < 8 * kCases; ++c) {
        const double x = (c % 2 == 0 ? 1e6 : 1e150) * rng.uniform(0.5, 1.0);
        const Vec2 anchor(x, x * std::pow(10.0, -rng.uniform(0.0, 8.0)));
        const double unit =
            (std::nextafter(x, 2.0 * x) - x) * rng.uniform(0.1, 3.0);
        const auto box = [&] {
            const auto extent = [&] {
                return rng.bernoulli(0.05) ? 3e-320 : rng.uniform(0.0, 3.0) * unit;
            };
            return OrientedBox2{
                Pose2{anchor + Vec2(rng.uniform(-3.0, 3.0),
                                    rng.uniform(-3.0, 3.0)) * unit,
                      rng.uniform(-4.0, 4.0)},
                extent(), extent()};
        };
        const OrientedBox2 a = box(), b = box();
        const double want = oracle::distanceTo(a, b);
        ASSERT_EQ(bits(want), bits(PreparedBox(a).distanceTo(PreparedBox(b))))
            << "case " << c;
        ASSERT_EQ(bits(oracle::distanceTo(b, a)),
                  bits(PreparedBox(b).distanceTo(PreparedBox(a))))
            << "case " << c;
        apart += want > 0.0;
    }
    EXPECT_GT(apart, kCases);
}

/** The oracle's view of production predictions (same states, boxes
 *  re-derived per query). */
std::vector<oracle::Prediction>
asOracle(const std::vector<ObjectPrediction> &predictions)
{
    std::vector<oracle::Prediction> out;
    for (const ObjectPrediction &pred : predictions) {
        oracle::Prediction o;
        o.track_id = pred.track_id;
        for (const PredictedState &state : pred.states)
            o.states.push_back({state.time, state.footprint.box()});
        out.push_back(std::move(o));
    }
    return out;
}

::testing::AssertionResult
sameCollision(const std::optional<CollisionInfo> &want,
              const std::optional<CollisionInfo> &got)
{
    if (want.has_value() != got.has_value())
        return ::testing::AssertionFailure()
            << "hit " << want.has_value() << " vs " << got.has_value();
    if (want && (bits(want->arc_length) != bits(got->arc_length) ||
                 bits(want->time_to_impact) != bits(got->time_to_impact) ||
                 want->track_id != got->track_id))
        return ::testing::AssertionFailure()
            << "arc " << want->arc_length << " vs " << got->arc_length
            << ", track " << want->track_id << " vs " << got->track_id;
    return ::testing::AssertionSuccess();
}

/** firstCollision against the oracle's full scan, bit for bit; the
 *  production hit (if any) goes to @p hit. */
::testing::AssertionResult
sweepMatches(const Polyline2 &path, double start_s, double speed,
             const std::vector<ObjectPrediction> &predictions,
             std::optional<CollisionInfo> &hit)
{
    const EgoFootprint ego;
    const auto want = oracle::firstCollision(
        path, start_s, speed, asOracle(predictions), ego, 40.0);
    hit = firstCollision(path, start_s, speed, predictions, ego);
    return sameCollision(want, hit);
}

/** A 0.3 m square object state @p ns after the origin, centered at
 *  (@p x, @p y). */
PredictedState
stateAt(std::int64_t ns, double x, double y = 0.0)
{
    return PredictedState{Timestamp::nanos(ns),
                          OrientedBox2{Pose2{Vec2(x, y), 0.0}, 0.3, 0.3}};
}

ObjectPrediction
predictionOf(std::uint32_t track_id, std::vector<PredictedState> states)
{
    ObjectPrediction pred;
    pred.track_id = track_id;
    pred.states = std::move(states);
    return pred;
}

// The hand-built sweeps run the default ego (1.3 x 0.7) along +x from
// the origin. A state at x = 1.8 touches the ego at the 0.5 m sample
// but not at 0; a state at x = 100 never touches it.
constexpr std::int64_t kSecond = 1000000000;

TEST(GeometryOracle, FirstCollisionMidwayTieTakesTheEarlierState)
{
    const Polyline2 path(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    // At 1 m/s the 0.5 m sample is at 0.5 s, exactly midway between
    // the states at 0 and 1 s: the earlier one wins.
    std::optional<CollisionInfo> hit;
    const std::vector<ObjectPrediction> near_first{
        predictionOf(3, {stateAt(0, 1.8), stateAt(kSecond, 100.0)})};
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0, near_first, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->arc_length, 0.5);
    EXPECT_EQ(hit->track_id, 3u);

    const std::vector<ObjectPrediction> near_second{
        predictionOf(4, {stateAt(0, 100.0), stateAt(kSecond, 1.8)})};
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0, near_second, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->arc_length, 1.0);
}

TEST(GeometryOracle, FirstCollisionDuplicateTimestampsTakeTheFirst)
{
    const Polyline2 path(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    // At 2 m/s the 0.5 m sample is at 0.25 s, where two or three
    // states share a timestamp: the first of them is the one checked.
    const std::int64_t q = kSecond / 4;
    for (int near = 0; near < 3; ++near) {
        std::vector<PredictedState> states{stateAt(0, 100.0)};
        for (int d = 0; d < 3; ++d)
            states.push_back(stateAt(q, d == near ? 1.8 : 100.0));
        states.push_back(stateAt(2 * q, 100.0));
        states.push_back(stateAt(2 * q, 100.0));
        std::optional<CollisionInfo> hit;
        ASSERT_TRUE(sweepMatches(path, 0.0, 2.0,
                                 {predictionOf(1, std::move(states))}, hit))
            << "near duplicate " << near;
        EXPECT_EQ(hit.has_value(), near == 0) << "near duplicate " << near;
    }
    // Every state at one instant: only the first counts at every sample.
    std::vector<PredictedState> same;
    for (double x : {100.0, 1.8, 1.8})
        same.push_back(stateAt(0, x));
    std::optional<CollisionInfo> hit;
    ASSERT_TRUE(sweepMatches(path, 0.0, 2.0, {predictionOf(2, same)}, hit));
    EXPECT_FALSE(hit.has_value());
}

TEST(GeometryOracle, FirstCollisionOneOrNoStates)
{
    const Polyline2 path(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    std::optional<CollisionInfo> hit;
    // One state covers the samples within 0.5 s of it only.
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0,
                             {predictionOf(1, {stateAt(0, 1.8)})}, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->arc_length, 0.5);
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0,
                             {predictionOf(1, {stateAt(0, 5.0)})}, hit));
    EXPECT_FALSE(hit.has_value());
    // No states: the prediction is passed over, and the next one still
    // reports its hit.
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0, {predictionOf(1, {})}, hit));
    EXPECT_FALSE(hit.has_value());
    ASSERT_TRUE(sweepMatches(
        path, 0.0, 1.0,
        {predictionOf(1, {}), predictionOf(2, {stateAt(0, 1.8)})}, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->track_id, 2u);
}

TEST(GeometryOracle, FirstCollisionStatesEndingBeforeTheLookahead)
{
    const Polyline2 path(std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(60.0, 0.0)});
    // Two predictions of one static object at x = 20: the first's
    // states end at 1 s, long before the ego gets there; the second's
    // run to 30 s. The exhausted cursor passes the first over at every
    // later sample.
    std::vector<PredictedState> short_lived, long_lived;
    for (std::int64_t k = 0; k <= 4; ++k)
        short_lived.push_back(stateAt(k * kSecond / 4, 20.0));
    for (std::int64_t k = 0; k <= 120; ++k)
        long_lived.push_back(stateAt(k * kSecond / 4, 20.0));
    std::optional<CollisionInfo> hit;
    ASSERT_TRUE(sweepMatches(path, 0.0, 1.0,
                             {predictionOf(1, short_lived)}, hit));
    EXPECT_FALSE(hit.has_value());
    ASSERT_TRUE(sweepMatches(
        path, 0.0, 1.0,
        {predictionOf(1, short_lived), predictionOf(2, long_lived)}, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->track_id, 2u);
    // The last state still covers the sample 0.5 s past it (1.5 s),
    // not the one after: an object first touched at the 1.5 m sample
    // is hit, one first touched at 2 m is not.
    ASSERT_TRUE(sweepMatches(
        path, 0.0, 1.0,
        {predictionOf(1, {stateAt(0, 100.0), stateAt(kSecond, 3.0)})}, hit));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->arc_length, 1.5);
    ASSERT_TRUE(sweepMatches(
        path, 0.0, 1.0,
        {predictionOf(1, {stateAt(0, 100.0), stateAt(kSecond, 3.5)})}, hit));
    EXPECT_FALSE(hit.has_value());
}

TEST(GeometryOracle, FirstCollisionIrregularTimestampsBitIdentical)
{
    Rng rng(1618);
    // Sorted timestamps with duplicates, nanosecond steps and gaps;
    // speeds that put samples exactly on and midway between states.
    static const std::int64_t steps[] = {0, 0, 1, kSecond / 8, kSecond / 4,
                                         kSecond / 4, kSecond / 2, kSecond,
                                         3 * kSecond};
    static const double speeds[] = {0.5, 1.0, 2.0, 4.0};
    int hits = 0;
    for (int c = 0; c < kCases / 4; ++c) {
        const Polyline2 path(
            std::vector<Vec2>{Vec2(0.0, 0.0), Vec2(30.0, 0.0),
                              Vec2(45.0, rng.uniform(-8.0, 8.0))});
        std::vector<ObjectPrediction> predictions;
        const auto n = static_cast<std::size_t>(rng.uniform(0.0, 4.0));
        for (std::size_t i = 0; i < n; ++i) {
            std::vector<PredictedState> states;
            std::int64_t ns = static_cast<std::int64_t>(
                rng.uniform(0.0, 100.0) * kSecond);
            const auto m = static_cast<std::size_t>(rng.uniform(0.0, 12.0));
            for (std::size_t k = 0; k < m; ++k) {
                ns += steps[static_cast<std::size_t>(rng.uniform(0.0, 9.0))];
                const double s = rng.uniform(0.0, 20.0);
                states.push_back(
                    stateAt(ns, s + rng.uniform(-1.0, 3.0),
                            path.sample(s).y() + rng.uniform(-2.0, 2.0)));
            }
            predictions.push_back(predictionOf(
                static_cast<std::uint32_t>(i + 1), std::move(states)));
        }
        const double speed = rng.bernoulli(0.7)
            ? speeds[static_cast<std::size_t>(rng.uniform(0.0, 4.0))]
            : rng.uniform(0.3, 8.0);
        const double start_s = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 10.0);
        std::optional<CollisionInfo> hit;
        ASSERT_TRUE(sweepMatches(path, start_s, speed, predictions, hit))
            << "case " << c;
        hits += hit.has_value();
    }
    EXPECT_GT(hits, kCases / 40);
}


// --------------------------------------------- swept prediction cull

/** MpcPlanner::plan as it was before the swept cull: every object is
 *  predicted and swept. */
MpcOutput
planPredictingEveryObject(const MpcPlanner &planner, const PlannerInput &input)
{
    const MpcConfig &config = planner.config();
    MpcOutput out;
    out.command.issued_at = input.now;
    const auto [s, lateral] =
        input.reference_path.project(input.ego_pose.position);
    const double path_heading = input.reference_path.headingAt(s);
    const double heading_err =
        wrapAngle(input.ego_pose.heading - path_heading);
    out.lateral_error = lateral;
    out.heading_error = heading_err;
    const double lookahead = 1.0;
    const double kappa_ref = wrapAngle(
        input.reference_path.headingAt(s + lookahead) -
        input.reference_path.headingAt(s)) / lookahead;
    const LqrGain k = planner.lqrGain(input.ego_speed);
    double curvature =
        kappa_ref - (k.lateral * lateral + k.heading * heading_err);
    curvature = std::clamp(curvature, -config.max_curvature,
                           config.max_curvature);
    out.command.steer_curvature = curvature;
    const auto predictions = predictObjects(input.objects, input.now);
    double target = input.speed_limit;
    const auto collision = firstCollision(
        input.reference_path, s, std::max(input.ego_speed, 1.0),
        predictions);
    if (collision) {
        const double gap = collision->arc_length - config.standoff;
        if (gap <= 0.0) {
            target = 0.0;
            out.blocked = true;
        } else {
            target = std::min(
                target, std::sqrt(2.0 * config.comfort_decel * gap));
        }
    }
    out.target_speed = target;
    const double dv = target - input.ego_speed;
    out.command.acceleration = std::clamp(
        dv / config.dt, -config.hard_decel, config.max_accel);
    return out;
}

::testing::AssertionResult
samePlan(const MpcOutput &want, const MpcOutput &got)
{
    if (want.command.issued_at != got.command.issued_at ||
        bits(want.command.steer_curvature) !=
            bits(got.command.steer_curvature) ||
        bits(want.command.acceleration) != bits(got.command.acceleration) ||
        want.command.emergency_brake != got.command.emergency_brake ||
        bits(want.lateral_error) != bits(got.lateral_error) ||
        bits(want.heading_error) != bits(got.heading_error) ||
        bits(want.target_speed) != bits(got.target_speed) ||
        want.blocked != got.blocked)
        return ::testing::AssertionFailure()
            << "target " << want.target_speed << " vs " << got.target_speed
            << ", accel " << want.command.acceleration << " vs "
            << got.command.acceleration;
    return ::testing::AssertionSuccess();
}

/** A route from @p anchor with 1 to 4 segments, turning up to 2 rad at
 *  each interior vertex. */
Polyline2
randomRoute(Rng &rng, const Vec2 &anchor)
{
    std::vector<Vec2> points{anchor};
    double heading = randomHeading(rng);
    const int n_points = 2 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int i = 1; i < n_points; ++i) {
        heading += rng.bernoulli(0.3) ? rng.uniform(-2.0, 2.0)
                                      : rng.uniform(-0.3, 0.3);
        points.push_back(points.back() +
                         Vec2(std::cos(heading), std::sin(heading)) *
                             rng.uniform(2.0, 20.0));
    }
    return Polyline2(points);
}

/** Where the swept cull decides: an object near the route, one at the
 *  sample window's far edge, one whose centre segment ends a few ulps
 *  or about one margin either side of the widened sample box, or one
 *  with a NaN or infinite position or velocity. */
FusedObject
cullProbe(Rng &rng, const SweptBroadphase &broadphase, const Polyline2 &path,
          double start_s, double speed, const PredictionConfig &cfg,
          double reach, std::uint32_t track_id)
{
    FusedObject obj;
    obj.track_id = track_id;
    if (rng.bernoulli(0.6))
        obj.velocity = Vec2(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0));
    const double u = rng.uniform();
    if (u < 0.25) {
        obj.position = path.sample(rng.uniform(0.0, path.length())) +
            Vec2(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0));
    } else if (u < 0.45) {
        // Ahead at the edge of the window of matchable samples.
        if (rng.bernoulli(0.5))
            obj.velocity = Vec2(0.0, 0.0);
        double edge = start_s + speed * (cfg.horizon_s + 0.5);
        if (!std::isfinite(edge))
            edge = start_s;
        obj.position = path.sample(edge + rng.uniform(-3.0, 3.0)) +
            Vec2(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5));
    } else if (u < 0.95) {
        // On one side of the widened box: the segment's nearest
        // coordinate at reach plus a multiple of the margin, nudged by
        // a few ulps.
        const Aabb2 &box = broadphase.samples();
        const double scale =
            2.0 * std::max(maxAbs(box.lo), maxAbs(box.hi)) + reach + 10.0;
        const double margin = 2.0 * PreparedBox::broadphaseMargin(scale);
        double off = reach + margin * std::floor(rng.uniform(-2.0, 3.0));
        const int ulps = static_cast<int>(rng.uniform(-4.0, 5.0));
        for (int i = 0; i < std::abs(ulps); ++i)
            off = std::nextafter(off, ulps > 0 ? 1e300 : -1e300);
        if (rng.bernoulli(0.3))
            obj.velocity = Vec2(0.0, 0.0);
        const Vec2 travel = obj.velocity * cfg.horizon_s;
        const auto side = static_cast<int>(rng.uniform(0.0, 4.0));
        const int axis = side / 2;
        const double along_lo = (axis == 0 ? box.lo.y() : box.lo.x()) - reach;
        const double along_hi = (axis == 0 ? box.hi.y() : box.hi.x()) + reach;
        const double along = rng.uniform(along_lo, along_hi);
        const double d = axis == 0 ? travel.x() : travel.y();
        double across;
        if (side % 2 == 0) {
            // Beyond hi: the segment's least coordinate sits at hi + off.
            const double hi = axis == 0 ? box.hi.x() : box.hi.y();
            across = (hi + off) - std::min(d, 0.0);
        } else {
            const double lo = axis == 0 ? box.lo.x() : box.lo.y();
            across = (lo - off) - std::max(d, 0.0);
        }
        obj.position = axis == 0 ? Vec2(across, along) : Vec2(along, across);
    } else {
        static const double special[] = {
            kNaN, std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
        const double x =
            special[static_cast<std::size_t>(rng.uniform(0.0, 3.0))];
        obj.position = path.sample(rng.uniform(0.0, path.length()));
        double *slot[] = {&obj.position.x(), &obj.position.y(),
                          &obj.velocity.x(), &obj.velocity.y()};
        *slot[static_cast<std::size_t>(rng.uniform(0.0, 4.0))] = x;
    }
    return obj;
}

TEST(GeometryOracle, SweptCullKeepsFirstCollision)
{
    Rng rng(2024);
    // Speeds at which whole 0.5 m samples land on the window's edge
    // (speed * (4 s + 0.5 s) a multiple of 0.5 m), the 1 m/s clamp and
    // its neighbours, zero, and random ones.
    static const double speeds[] = {
        1.0, 2.0, 1.0 / 9.0 * 4.0, 5.0, std::nextafter(1.0, 0.0),
        std::nextafter(1.0, 2.0), 0.0, 0.5};
    std::size_t culled = 0, kept = 0, at_cut = 0, hits = 0, edge_hits = 0;
    for (int c = 0; c < kCases / 2; ++c) {
        const Vec2 anchor = rng.bernoulli(0.1)
            ? Vec2(1e12 + rng.uniform(-5.0, 5.0), 1e12)
            : randomAnchor(rng);
        const Polyline2 path = randomRoute(rng, anchor);
        PredictionConfig cfg;
        if (rng.bernoulli(0.3)) {
            cfg.horizon_s = rng.uniform(0.5, 6.0);
            cfg.step_s = rng.uniform(0.1, 1.0);
            cfg.half_length = rng.uniform(0.0, 2.0);
            cfg.half_width = rng.uniform(0.0, 2.0);
        }
        EgoFootprint ego;
        if (rng.bernoulli(0.2)) {
            ego.half_length = rng.uniform(0.0, 2.0);
            ego.half_width = rng.uniform(0.0, 1.0);
        }
        const double speed = rng.bernoulli(0.5)
            ? speeds[static_cast<std::size_t>(rng.uniform(0.0, 8.0))]
            : rng.uniform(0.2, 8.0);
        const double start_s = rng.bernoulli(0.2)
            ? path.length() - rng.uniform(0.0, 3.0)
            : rng.uniform(0.0, path.length());
        const double lookahead = rng.uniform(5.0, 60.0);
        const SweptBroadphase broadphase(path, start_s, speed, cfg, ego,
                                         lookahead);
        const double reach =
            std::hypot(ego.half_length, ego.half_width) +
            std::hypot(cfg.half_length, cfg.half_width);

        std::vector<FusedObject> objects, survivors;
        const auto n = static_cast<std::size_t>(rng.uniform(0.0, 6.0));
        for (std::size_t i = 0; i < n; ++i)
            objects.push_back(cullProbe(rng, broadphase, path, start_s,
                                        speed, cfg, reach,
                                        static_cast<std::uint32_t>(i + 1)));
        const Timestamp now = Timestamp::seconds(rng.uniform(0.0, 30.0));
        for (const FusedObject &obj : objects) {
            const double clear = broadphase.clearance(obj);
            const auto alone = firstCollision(
                path, start_s, speed, predictObjects({obj}, now, cfg), ego,
                lookahead);
            // Within a few margins of the cut.
            at_cut += std::fabs(clear) <=
                      8.0 * PreparedBox::broadphaseMargin(
                                2.0 * maxAbs(anchor) + 100.0);
            if (clear > 0.0) {
                // A culled object collides at no sample on its own.
                ++culled;
                ASSERT_FALSE(alone.has_value())
                    << "case " << c << " track " << obj.track_id
                    << " clearance " << clear;
            } else {
                ++kept;
                survivors.push_back(obj);
                hits += alone.has_value();
                edge_hits += alone.has_value() &&
                             alone->time_to_impact > cfg.horizon_s;
            }
        }
        ASSERT_TRUE(sameCollision(
            firstCollision(path, start_s, speed,
                           predictObjects(objects, now, cfg), ego, lookahead),
            firstCollision(path, start_s, speed,
                           predictObjects(survivors, now, cfg), ego,
                           lookahead)))
            << "case " << c;

        // The planner, whose sweep starts where the ego projects and runs
        // at max(speed, 1), against its copy that predicts everything.
        PlannerInput input;
        input.now = now;
        input.reference_path = path;
        const double s0 = rng.uniform(0.0, path.length());
        input.ego_pose = Pose2{path.sample(s0) + Vec2(rng.uniform(-1.0, 1.0),
                                                      rng.uniform(-1.0, 1.0)),
                               path.headingAt(s0) + rng.uniform(-0.3, 0.3)};
        input.ego_speed = rng.bernoulli(0.5)
            ? speeds[static_cast<std::size_t>(rng.uniform(0.0, 8.0))]
            : rng.uniform(0.0, 8.0);
        if (rng.bernoulli(0.02))
            input.ego_speed = kNaN;
        const double plan_s = path.project(input.ego_pose.position).first;
        const double plan_speed = std::max(input.ego_speed, 1.0);
        const SweptBroadphase plan_broadphase(path, plan_s, plan_speed);
        const double plan_reach = std::hypot(1.3, 0.7) + std::hypot(0.6, 0.6);
        for (std::size_t i = 0; i < n; ++i)
            input.objects.push_back(cullProbe(
                rng, plan_broadphase, path, plan_s, plan_speed,
                PredictionConfig{}, plan_reach,
                static_cast<std::uint32_t>(i + 1)));
        const MpcPlanner planner;
        ASSERT_TRUE(samePlan(planPredictingEveryObject(planner, input),
                             planner.plan(input)))
            << "case " << c;
    }
    EXPECT_GT(culled, 1000u);
    EXPECT_GT(kept, 1000u);
    EXPECT_GT(at_cut, 1000u);
    EXPECT_GT(hits, 300u);
    EXPECT_GT(edge_hits, 30u);

    // Where only the margin keeps an object: a zero-width ego at the
    // start of a level route and a zero-width static object behind it,
    // end to end, a few ulps past both radii at a large anchor. The
    // cut's gap before its margin is positive, yet the rounded ends
    // touch and the sweep hits at the first sample.
    std::size_t margin_hits = 0;
    for (int c = 0; c < 2000; ++c) {
        const double base = std::ldexp(1.0, 20 + c % 24);
        const Vec2 anchor(base + rng.uniform(0.0, 1.0), base);
        const Polyline2 path(
            std::vector<Vec2>{anchor, anchor + Vec2(30.0, 0.0)});
        PredictionConfig cfg;
        cfg.half_length = rng.uniform(0.1, 1.0);
        cfg.half_width = 0.0;
        EgoFootprint ego;
        ego.half_length = rng.uniform(0.5, 2.0);
        ego.half_width = 0.0;
        const SweptBroadphase broadphase(path, 0.0, 2.0, cfg, ego);
        const double reach = ego.half_length + cfg.half_length;
        FusedObject obj;
        obj.track_id = 1;
        obj.position = Vec2(anchor.x() - reach, anchor.y());
        for (int k = c % 5; k > 0; --k)
            obj.position.x() = std::nextafter(obj.position.x(), 0.0);
        const bool hit =
            firstCollision(path, 0.0, 2.0,
                           predictObjects({obj}, Timestamp::origin(), cfg),
                           ego)
                .has_value();
        ASSERT_FALSE(broadphase.clearance(obj) > 0.0 && hit) << "case " << c;
        margin_hits +=
            hit && broadphase.samples().lo.x() - obj.position.x() - reach > 0.0;
    }
    EXPECT_GT(margin_hits, 20u);
}

} // namespace
} // namespace sov
