/**
 * @file
 * Collision detection (Fig. 5): sweep the ego footprint along the
 * reference path at the planned speed and test against predicted
 * object footprints at matching times.
 */
#pragma once

#include <optional>

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

} // namespace sov
