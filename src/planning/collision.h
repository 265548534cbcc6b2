/**
 * @file
 * Collision detection (Fig. 5): sweep the ego footprint along the
 * reference path at the planned speed and test against predicted
 * object footprints at matching times.
 */
#pragma once

#include <optional>
#include <span>

#include "math/geometry.h"
#include "planning/prediction.h"

namespace sov {

/** Ego vehicle footprint dimensions. */
struct EgoFootprint
{
    double half_length = 1.3; //!< 2-seater pod scale
    double half_width = 0.7;
};

/** A detected future collision. */
struct CollisionInfo
{
    double arc_length;      //!< distance along the path to impact
    double time_to_impact;  //!< seconds
    std::uint32_t track_id; //!< offending object
};

/**
 * Earliest collision along @p path when traversed at @p speed: the
 * ego footprint at each 0.5 m path sample against every prediction's
 * state nearest in time to the sample (first of equals; none when no
 * state is within 0.5 s).
 * @param predictions Each one's states in non-decreasing time order,
 *        as predictObjects() builds them (asserted): the sweep keeps
 *        one cursor per prediction into them, which the never
 *        decreasing sample time moves forward.
 * @param start_s Arc length of the ego's current position on the path.
 * @param max_lookahead Meters of path checked ahead.
 */
std::optional<CollisionInfo> firstCollision(
    const Polyline2 &path, double start_s, double speed,
    const std::vector<ObjectPrediction> &predictions,
    const EgoFootprint &ego = {}, double max_lookahead = 40.0);

/** firstCollision() over a span of predictions (a planner's reused
 *  storage); returns at once when it is empty. */
std::optional<CollisionInfo> firstCollision(
    const Polyline2 &path, double start_s, double speed,
    std::span<const ObjectPrediction> predictions,
    const EgoFootprint &ego = {}, double max_lookahead = 40.0);

/**
 * Swept broadphase of firstCollision(), taken before objects are
 * predicted: an object none of whose predicted states can overlap the
 * ego at any path sample the sweep tests against a state may be left
 * unpredicted, and the sweep's answer keeps its bits.
 *
 * It holds the bounding box of the ego sample centres whose time can
 * match a predicted state: samples up to the lookahead with s - start_s
 * <= speed (horizon + 0.5 s), plus a rounding allowance (the states
 * end at the horizon and a sample takes one within 0.5 s). clearance()
 * widens that box by the ego's and the object's bounding radii and a
 * rounding margin and measures how far the object's centre segment
 * p .. p + v horizon, which holds every state centre, stays clear of
 * it. The argument is in DESIGN.md (Broadphase, swept prediction
 * cull).
 */
class SweptBroadphase
{
  public:
    SweptBroadphase(const Polyline2 &path, double start_s, double speed,
                    const PredictionConfig &prediction = {},
                    const EgoFootprint &ego = {},
                    double max_lookahead = 40.0);

    /**
     * Axis-aligned gap between @p object's centre segment and the
     * widened sample box. When it is > 0, no state predictObject()
     * makes of @p object overlaps the ego at a sample firstCollision()
     * could match it to. NaN when the path, the window or the object
     * is not finite or its coordinates reach 1e100, so
     * !(clearance > 0) keeps every such object.
     */
    double clearance(const FusedObject &object) const;

    /** The bounding box of the matchable sample centres, unwidened. */
    const Aabb2 &samples() const { return samples_; }

  private:
    Aabb2 samples_;
    double horizon_;
    /** Sum of the ego's and the object's bounding radii. */
    double reach_;
    /** maxAbs() of both sample box corners plus reach_; NaN when the
     *  box cannot be trusted. */
    double scale_;
};

} // namespace sov
