#include "fault/sensor_faults.h"

namespace sov::fault {

SensorFaultHub::SensorFaultHub(FaultPlan *plan)
{
    if (plan == nullptr)
        return;
    for (std::size_t i = 0; i < kFaultTargetCount; ++i) {
        by_target_[i] = plan->channelsFor(static_cast<FaultTarget>(i));
        size_ += by_target_[i].size();
    }
}

} // namespace sov::fault
