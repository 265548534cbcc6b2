/**
 * @file
 * Brute-force oracle for the prepared-geometry kernel. The namespace
 * below holds the straightforward implementations of the box, raycast,
 * radar-corridor and collision-sweep queries, each box re-derived from
 * its pose (heap-allocated corners, per-call trig) on every query.
 * The production code prepares boxes once and reuses them; these
 * tests require its answers to match the oracle's *bit for bit* over
 * seeded random cases, including the degenerate ones: zero-extent,
 * coincident and touching boxes, edges too long to square, headings at
 * +-pi, coordinates near 1e6, NaN poses, rays starting on an edge and
 * rays parallel to one.
 *
 * The broadphase bounds (PreparedBox::clearanceBound and castRay's
 * side test) get their own cases at their boundary: rays grazing a
 * box's bounding circle at a corner, a few ulps to 1e-6 of the
 * coordinate scale off it; edges parallel or nearly parallel to the
 * ray; boxes whose circles nearly touch corner to corner; and boxes
 * with NaN or infinite headings, positions and extents.
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
#include "planning/collision.h"
#include "planning/prediction.h"
#include "sensors/radar.h"
#include "world/world.h"

namespace sov {
namespace oracle {

Vec2
transform(const Pose2 &pose, const Vec2 &local)
{
    const double c = std::cos(pose.heading), s = std::sin(pose.heading);
    return Vec2(pose.position.x() + c * local.x() - s * local.y(),
                pose.position.y() + s * local.x() + c * local.y());
}

Vec2
inverseTransform(const Pose2 &pose, const Vec2 &world)
{
    const double c = std::cos(pose.heading), s = std::sin(pose.heading);
    const Vec2 d = world - pose.position;
    return Vec2(c * d.x() + s * d.y(), -s * d.x() + c * d.y());
}

Vec2
direction(const Pose2 &pose)
{
    return Vec2(std::cos(pose.heading), std::sin(pose.heading));
}

Vec2
closestPoint(const Segment2 &seg, const Vec2 &p)
{
    const Vec2 ab = seg.b - seg.a;
    const double len2 = ab.squaredNorm();
    if (len2 < 1e-18)
        return seg.a;
    double t = (p - seg.a).dot(ab) / len2;
    t = std::clamp(t, 0.0, 1.0);
    return seg.a + ab * t;
}

double
segmentDistance(const Segment2 &seg, const Vec2 &p)
{
    return p.distanceTo(closestPoint(seg, p));
}

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

std::vector<Vec2>
corners(const OrientedBox2 &box)
{
    return {
        transform(box.pose, Vec2(box.half_length, box.half_width)),
        transform(box.pose, Vec2(-box.half_length, box.half_width)),
        transform(box.pose, Vec2(-box.half_length, -box.half_width)),
        transform(box.pose, Vec2(box.half_length, -box.half_width)),
    };
}

bool
axisOverlap(const Vec2 &axis, const std::vector<Vec2> &ca,
            const std::vector<Vec2> &cb)
{
    auto range = [&axis](const std::vector<Vec2> &cs) {
        double lo = cs[0].dot(axis), hi = lo;
        for (std::size_t i = 1; i < cs.size(); ++i) {
            const double v = cs[i].dot(axis);
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        return std::pair<double, double>(lo, hi);
    };
    const auto [alo, ahi] = range(ca);
    const auto [blo, bhi] = range(cb);
    return alo <= bhi && ahi >= blo;
}

bool
overlaps(const OrientedBox2 &a, const OrientedBox2 &o)
{
    const auto ca = corners(a);
    const auto cb = corners(o);
    const Vec2 axes[4] = {
        direction(a.pose),
        Vec2(-direction(a.pose).y(), direction(a.pose).x()),
        direction(o.pose),
        Vec2(-direction(o.pose).y(), direction(o.pose).x()),
    };
    for (const auto &axis : axes) {
        if (!axisOverlap(axis, ca, cb))
            return false;
    }
    return true;
}

double
distanceTo(const OrientedBox2 &a, const OrientedBox2 &o)
{
    if (overlaps(a, o))
        return 0.0;
    const auto ca = corners(a);
    const auto cb = corners(o);
    double best = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < 4; ++i) {
        const Segment2 ea{ca[i], ca[(i + 1) % 4]};
        const Segment2 eb{cb[i], cb[(i + 1) % 4]};
        for (std::size_t j = 0; j < 4; ++j) {
            best = std::min(best, segmentDistance(ea, cb[j]));
            best = std::min(best, segmentDistance(eb, ca[j]));
        }
    }
    return best;
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

std::optional<double>
nearestInPath(const std::vector<Obstacle> &obstacles, const Pose2 &body,
              double corridor_half_width, double max_range, Timestamp t)
{
    const Vec2 dir = direction(body);
    const Vec2 normal(-dir.y(), dir.x());
    std::optional<double> best;
    for (const double lateral :
         {-corridor_half_width, 0.0, corridor_half_width}) {
        const Vec2 origin = body.position + normal * lateral;
        const auto hit = raycast(obstacles, origin, dir, max_range, t);
        if (hit && (!best || *hit < *best))
            best = hit;
    }
    return best;
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
    std::vector<PreparedBox> footprints;
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
        snap.prepareFootprints(t, footprints);
        const WorldSnapshot prepared = snap.withFootprints(footprints, t);

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
        ASSERT_TRUE(sameBits(want, prepared.raycast(origin, dir, range, t)))
            << "case " << c;

        const Pose2 body{origin, randomHeading(rng)};
        const double corridor = rng.uniform(0.0, 1.5);
        const auto want_path = oracle::nearestInPath(
            obstacles, body, corridor, radar_cfg.max_range, t);
        ASSERT_TRUE(sameBits(want_path,
                             radar.nearestInPath(snap, body, corridor, t)))
            << "case " << c;
        ASSERT_TRUE(sameBits(want_path,
                             radar.nearestInPath(prepared, body, corridor, t)))
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

/** Compare the oracle, a fresh snapshot and a prepared one (NaN hits
 *  compared by sameValue() when @p any_nan). */
::testing::AssertionResult
raycastMatches(const std::vector<Obstacle> &obstacles, const Vec2 &origin,
               const Vec2 &dir, double range, Timestamp t,
               bool any_nan = false)
{
    static const LaneMap map;
    static const std::vector<Landmark> landmarks;
    std::vector<PreparedBox> footprints;
    const WorldSnapshot snap(map, obstacles, landmarks, Timestamp::origin());
    snap.prepareFootprints(t, footprints);
    const WorldSnapshot prepared = snap.withFootprints(footprints, t);
    const auto same = [any_nan](const std::optional<double> &a,
                                const std::optional<double> &b) {
        return any_nan ? sameValue(a, b) : sameBits(a, b);
    };
    const auto want = oracle::raycast(obstacles, origin, dir, range, t);
    if (auto r = same(want, snap.raycast(origin, dir, range, t)); !r)
        return r << " (fresh)";
    if (auto r = same(want, prepared.raycast(origin, dir, range, t)); !r)
        return r << " (prepared)";
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

} // namespace
} // namespace sov
