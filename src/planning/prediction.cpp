#include "planning/prediction.h"

#include <cmath>

namespace sov {

std::vector<ObjectPrediction>
predictObjects(const std::vector<FusedObject> &objects, Timestamp now,
               const PredictionConfig &config)
{
    std::vector<ObjectPrediction> predictions(objects.size());
    for (std::size_t i = 0; i < objects.size(); ++i)
        predictObject(objects[i], now, config, predictions[i]);
    return predictions;
}

void
predictObject(const FusedObject &object, Timestamp now,
              const PredictionConfig &config, ObjectPrediction &out)
{
    out.track_id = object.track_id;
    out.cls = object.cls;
    out.states.clear();
    // One state per step in [0, horizon]; the accumulated dt can land
    // one step past the quotient, hence + 2.
    const double steps = config.horizon_s / config.step_s;
    out.states.reserve(steps >= 0.0 && steps < 1e6
                           ? static_cast<std::size_t>(steps) + 2
                           : 0);
    const double heading = object.velocity.norm() > 0.1
        ? std::atan2(object.velocity.y(), object.velocity.x())
        : 0.0;
    for (double dt = 0.0; dt <= config.horizon_s; dt += config.step_s) {
        out.states.emplace_back(
            now + Duration::seconds(dt),
            OrientedBox2{Pose2{object.position + object.velocity * dt,
                               heading},
                         config.half_length, config.half_width});
    }
}

} // namespace sov
