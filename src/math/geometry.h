/**
 * @file
 * 2-D planar geometry: poses, segments, and intersection/projection
 * helpers used by the lane map, planner, and collision checker.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <vector>

#include "math/vec.h"

namespace sov {

/** Normalize an angle to (-pi, pi]. */
double wrapAngle(double radians);

/** The larger coordinate magnitude of @p v (NaN when |x| is NaN): the
 *  coordinate scale the broadphase margins are taken of. */
inline double
maxAbs(const Vec2 &v)
{
    return std::max(std::fabs(v.x()), std::fabs(v.y()));
}

/** Planar rigid-body pose: position plus heading. */
struct Pose2
{
    Vec2 position{0.0, 0.0};
    double heading = 0.0; //!< radians, CCW from +x

    /** Map a point from this pose's local frame to the world frame. */
    Vec2 transform(const Vec2 &local) const;

    /** Map a world-frame point into this pose's local frame. */
    Vec2 inverseTransform(const Vec2 &world) const;

    /** Compose: the pose of (this ∘ other) in the world frame. */
    Pose2 compose(const Pose2 &other) const;

    /** Unit heading vector. */
    Vec2 direction() const;
};

/** A 2-D line segment. */
struct Segment2
{
    Vec2 a;
    Vec2 b;

    double length() const { return a.distanceTo(b); }

    /** Closest point on the segment to @p p. */
    Vec2 closestPoint(const Vec2 &p) const;

    /** Distance from @p p to the segment. */
    double distanceTo(const Vec2 &p) const;

    /** Intersection point with another segment, if any. */
    std::optional<Vec2> intersect(const Segment2 &o) const;
};

/** Axis-aligned bounding box. */
struct Aabb2
{
    Vec2 lo;
    Vec2 hi;

    bool contains(const Vec2 &p) const;
    bool overlaps(const Aabb2 &o) const;
    /** Grow symmetrically by @p margin on all sides. */
    Aabb2 inflated(double margin) const;
};

/** Oriented rectangle (vehicle/obstacle footprint). */
struct OrientedBox2
{
    Pose2 pose;          //!< center + heading
    double half_length;  //!< along heading
    double half_width;   //!< across heading

    /** The four corners, CCW. */
    std::array<Vec2, 4> corners() const;

    /** Separating-axis overlap test against another box (prepares
     *  both; see PreparedBox). */
    bool overlaps(const OrientedBox2 &o) const;

    /** Containment test for a point. */
    bool contains(const Vec2 &p) const;

    /** Euclidean clearance to another box; 0 when they overlap
     *  (prepares both; see PreparedBox). */
    double distanceTo(const OrientedBox2 &o) const;
};

/**
 * A ray cast: the Segment2 from the ray origin to its far end, with
 * what PreparedBox's broadphase side test reads computed once per cast.
 */
struct PreparedRay
{
    explicit PreparedRay(const Segment2 &ray);

    Segment2 seg;
    Vec2 r;       //!< seg.b - seg.a, the vector Segment2::intersect forms
    double len;   //!< |r|
    double scale; //!< largest coordinate magnitude of either end
};

/**
 * An OrientedBox2 with its heading trig, corners and edge vectors
 * computed once, for boxes queried many times (a physics step's
 * obstacle footprints, a prediction's states). Every query runs the
 * arithmetic of Pose2::transform / inverseTransform and
 * Segment2::closestPoint / intersect in the same order (distanceTo's
 * single sqrt and its division skip are exact; see geometry.cpp), so
 * its results are bit-identical to deriving the box afresh per query;
 * the OrientedBox2 queries are thin wrappers over these.
 *
 * Preparation is lazy: assign() records the box and its bounding
 * radius only; the trig, corners and edges are built by the first
 * query that reads them (the trig only when the heading changed since
 * it was last computed). The broadphase bounds (clearanceBound(),
 * castRay()'s side test) read the center and radius alone, so a box
 * they reject is never prepared. Because the first query writes the
 * cache, a PreparedBox must not be queried from two threads at once
 * before it has been prepared.
 */
class PreparedBox
{
  public:
    /** A zero-extent box at the origin, heading 0. */
    PreparedBox();
    explicit PreparedBox(const OrientedBox2 &box);

    /**
     * Record @p box and its radius(); the rest is prepared on first
     * use. The heading trig is kept when the heading is bitwise
     * unchanged (cos and sin are pure functions), so boxes
     * that only translate (static and constant-velocity obstacles, the
     * ego on a straight) skip it.
     */
    void assign(const OrientedBox2 &box);

    const OrientedBox2 &box() const { return box_; }
    /** The four corners, CCW (OrientedBox2::corners()). */
    const std::array<Vec2, 4> &corners() const;
    /** sqrt(half_length^2 + half_width^2), the center-to-corner
     *  distance before rounding (+inf when the squares overflow). */
    double radius() const { return radius_; }

    /** Separating-axis overlap test. */
    bool overlaps(const PreparedBox &o) const;

    /** Containment test for a point. */
    bool contains(const Vec2 &p) const;

    /**
     * Euclidean clearance; 0 when the boxes overlap. The least of the
     * 32 corner-to-edge candidates, with two exact cuts: a positive
     * clearanceBound() stands in for the SAT test, and a corner whose
     * distance to the other box's bounding circle exceeds the best
     * candidate of the two nearest corners skips its four edges
     * (see geometry.cpp).
     */
    double distanceTo(const PreparedBox &o) const;

    /**
     * Broadphase lower bound on distanceTo(@p o): the center distance
     * less both bounding radii and a rounding margin (see
     * broadphaseMargin()). When it is > 0, overlaps(@p o) is false and
     * distanceTo(@p o) >= the bound, bit for bit. -inf when a heading,
     * center, extent or radius of either box is not finite: such boxes
     * take the exact query, whatever that makes of them.
     */
    double clearanceBound(const PreparedBox &o) const;

    /**
     * Fold this box into a raycast along @p ray: a ray starting inside
     * the box hits at 0, otherwise the nearest edge crossing replaces
     * @p best when closer. Folding every box in order is the whole
     * cast. A finite box whose bounding circle lies clear of the ray's
     * supporting line is skipped unprepared: no edge crossing can
     * round into range and the origin is outside it.
     */
    void castRay(const PreparedRay &ray, std::optional<double> &best) const;

    /**
     * The absolute rounding margin the broadphase bounds subtract for
     * coordinates of magnitude up to @p scale: 1e-9 of it, about 1e7
     * times the few dozen ulps that corner placement, the cross
     * products and the clearance fold can lose, plus a 1e-150 floor.
     * Below about 1.5e-154 squares underflow, so a norm or radius can
     * be off by up to ~3e-162 absolute; the floor covers that, and
     * keeps the squares the bounds compare normal numbers.
     */
    static double broadphaseMargin(double scale);

  private:
    /** Trig (when the heading changed), corners, edges and their
     *  lengths from box_, on first use after assign(). */
    void prepare() const;

    /** The least of @p best2 and the squared distances from @p q to
     *  this (prepared) box's four edges. */
    double foldEdges(const Vec2 &q, double best2) const;

    /** broadphaseMargin() of the coordinate scale of this box and
     *  @p o: both centers' largest magnitudes plus both radii. */
    double pairMargin(const PreparedBox &o) const;

    OrientedBox2 box_;
    double radius_;
    /** Heading, center, extents and radius_ all finite: only such a
     *  box may be rejected by a broadphase bound. */
    bool finite_;
    mutable bool prepared_ = false;
    mutable double trig_heading_; //!< the heading c_ and s_ belong to
    mutable double c_;            //!< cos(heading)
    mutable double s_;            //!< sin(heading)
    mutable std::array<Vec2, 4> corners_;
    mutable std::array<Vec2, 4> edges_;      //!< corner i+1 - corner i
    mutable std::array<Vec2, 4> ends_;       //!< corner i + edge i
    mutable std::array<double, 4> edge_len2_; //!< squared edge lengths
};

/**
 * Arc-length parameterized polyline; the backbone of lane center-lines
 * and planned paths.
 */
class Polyline2
{
  public:
    Polyline2() = default;
    explicit Polyline2(std::vector<Vec2> points);

    const std::vector<Vec2> &points() const { return points_; }
    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }

    /** Total arc length. */
    double length() const;

    /** Point at arc length s (clamped to [0, length]); both
     *  coordinates NaN for a NaN @p s. */
    Vec2 sample(double s) const;

    /** Tangent heading (radians) at arc length s. */
    double headingAt(double s) const;

    /**
     * The bounding box of the polyline from arc length @p s0 to
     * @p s1 >= @p s0: of sample(s0), sample(s1) and every vertex whose
     * arc length lies strictly between them. Every sample(s) with s in
     * [s0, s1] lies in it up to the rounding of its interpolation.
     */
    Aabb2 boundsBetween(double s0, double s1) const;

    /**
     * Project a point onto the polyline.
     * @return (arc length of the projection, signed lateral offset);
     *         positive offset is to the left of travel direction.
     */
    std::pair<double, double> project(const Vec2 &p) const;

    /** Append a point, extending the cumulative length table. */
    void append(const Vec2 &p);

  private:
    std::vector<Vec2> points_;
    std::vector<double> cumlen_; //!< cumulative arc length at each vertex
};

} // namespace sov
