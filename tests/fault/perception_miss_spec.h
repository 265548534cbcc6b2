/**
 * @file
 * Shared test spec: the detector misses each object with a fixed
 * probability (Sec. III-C scenario 2, "vision algorithms produce wrong
 * results, e.g., missing an object").
 */
#pragma once

#include "fault/fault_plan.h"

namespace sov::test {

/** A Perception/Dropout spec named "perception-miss". Added to a plan
 *  built as FaultPlan(Rng(seed).fork("fault")), its channel draws on
 *  the stream Rng(seed).fork("fault").fork("fault/perception-miss"). */
inline fault::FaultSpec
perceptionMiss(double probability)
{
    fault::FaultSpec spec;
    spec.name = "perception-miss";
    spec.target = fault::FaultTarget::Perception;
    spec.mode = fault::FaultMode::Dropout;
    spec.probability = probability;
    return spec;
}

} // namespace sov::test
