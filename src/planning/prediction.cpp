#include "planning/prediction.h"

#include <cmath>

namespace sov {

std::vector<ObjectPrediction>
predictObjects(const std::vector<FusedObject> &objects, Timestamp now,
               const PredictionConfig &config)
{
    std::vector<ObjectPrediction> predictions;
    predictions.reserve(objects.size());
    for (const auto &obj : objects) {
        ObjectPrediction pred;
        pred.track_id = obj.track_id;
        pred.cls = obj.cls;
        const double heading = obj.velocity.norm() > 0.1
            ? std::atan2(obj.velocity.y(), obj.velocity.x())
            : 0.0;
        // Every state shares the heading: assign() keeps its trig.
        PreparedBox footprint;
        for (double dt = 0.0; dt <= config.horizon_s;
             dt += config.step_s) {
            footprint.assign(OrientedBox2{
                Pose2{obj.position + obj.velocity * dt, heading},
                config.half_length, config.half_width});
            pred.states.push_back(
                PredictedState{now + Duration::seconds(dt), footprint});
        }
        predictions.push_back(std::move(pred));
    }
    return predictions;
}

} // namespace sov
