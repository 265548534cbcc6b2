/**
 * @file
 * Action/traffic prediction (Fig. 5): short-horizon constant-velocity
 * forecasts of perceived objects, consumed by collision checking and
 * speed planning.
 */
#pragma once

#include <vector>

#include "core/time.h"
#include "math/geometry.h"
#include "tracking/spatial_sync.h"

namespace sov {

/** A predicted object footprint at one future instant, prepared on
 *  first use by the collision checks that query it at every path
 *  sample (most never get past their broadphase and stay unprepared). */
struct PredictedState
{
    PredictedState(Timestamp t, const OrientedBox2 &box)
        : time(t), footprint(box)
    {
    }

    Timestamp time;
    PreparedBox footprint;
};

/** A predicted trajectory of one object. */
struct ObjectPrediction
{
    std::uint32_t track_id = 0;
    ObjectClass cls = ObjectClass::Static;
    std::vector<PredictedState> states;
};

/** Prediction settings. */
struct PredictionConfig
{
    double horizon_s = 4.0;
    double step_s = 0.25;
    /** Default object footprint half-extents when size is unknown. */
    double half_length = 0.6;
    double half_width = 0.6;
};

/** Constant-velocity prediction of every object. */
std::vector<ObjectPrediction> predictObjects(
    const std::vector<FusedObject> &objects, Timestamp now,
    const PredictionConfig &config = {});

/** Constant-velocity prediction of @p object into @p out, whose states
 *  are replaced, each constructed in place: a reused @p out keeps its
 *  capacity, so a warm one does not allocate. */
void predictObject(const FusedObject &object, Timestamp now,
                   const PredictionConfig &config, ObjectPrediction &out);

} // namespace sov
