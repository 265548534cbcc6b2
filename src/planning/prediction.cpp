#include "planning/prediction.h"

#include <cmath>

namespace sov {

std::vector<ObjectPrediction>
predictObjects(const std::vector<FusedObject> &objects, Timestamp now,
               const PredictionConfig &config)
{
    std::vector<ObjectPrediction> predictions;
    predictions.reserve(objects.size());
    // One state per step in [0, horizon]; the accumulated dt can land
    // one step past the quotient, hence + 2.
    const double steps = config.horizon_s / config.step_s;
    const std::size_t states_per_object =
        steps >= 0.0 && steps < 1e6 ? static_cast<std::size_t>(steps) + 2
                                    : 0;
    for (const auto &obj : objects) {
        ObjectPrediction pred;
        pred.track_id = obj.track_id;
        pred.cls = obj.cls;
        const double heading = obj.velocity.norm() > 0.1
            ? std::atan2(obj.velocity.y(), obj.velocity.x())
            : 0.0;
        pred.states.reserve(states_per_object);
        for (double dt = 0.0; dt <= config.horizon_s;
             dt += config.step_s) {
            pred.states.push_back(PredictedState{
                now + Duration::seconds(dt),
                PreparedBox(OrientedBox2{
                    Pose2{obj.position + obj.velocity * dt, heading},
                    config.half_length, config.half_width})});
        }
        predictions.push_back(std::move(pred));
    }
    return predictions;
}

} // namespace sov
