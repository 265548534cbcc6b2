#include "fault/fault_plan.h"

#include <cmath>

#include "core/logging.h"

namespace sov::fault {

const char *
toString(FaultTarget target)
{
    switch (target) {
    case FaultTarget::Camera: return "camera";
    case FaultTarget::Radar: return "radar";
    case FaultTarget::Perception: return "perception";
    case FaultTarget::PipelineStage: return "stage";
    case FaultTarget::CanBus: return "can";
    }
    return "?";
}

const char *
toString(FaultMode mode)
{
    switch (mode) {
    case FaultMode::Dropout: return "dropout";
    case FaultMode::Freeze: return "freeze";
    case FaultMode::LatencySpike: return "latency-spike";
    case FaultMode::Corruption: return "corruption";
    case FaultMode::Crash: return "crash";
    case FaultMode::Hang: return "hang";
    case FaultMode::LatencyMultiplier: return "latency-multiplier";
    }
    return "?";
}

bool
FaultChannel::shouldInject(Timestamp t)
{
    if (t < spec_.window_start || t >= spec_.window_end)
        return false;
    if (spec_.probability <= 0.0)
        return false;
    // p == 1 decides without drawing so deterministic windows leave
    // the channel stream untouched.
    const bool fire =
        spec_.probability >= 1.0 || rng_.bernoulli(spec_.probability);
    if (fire) {
        ++injections_;
        if (recorder_)
            recorder_->instant(trace_name_, trace_category_, trace_track_,
                               t);
    }
    return fire;
}

void
FaultChannel::setTraceRecorder(obs::TraceRecorder *recorder)
{
    recorder_ = recorder;
    if (!recorder_)
        return;
    trace_name_ = recorder_->intern(spec_.name);
    trace_category_ = recorder_->intern("fault");
    trace_track_ = recorder_->intern(toString(spec_.target));
}

double
FaultChannel::corrupt(double value)
{
    if (spec_.corruption_sigma <= 0.0)
        return value;
    return value + rng_.gaussian(0.0, spec_.corruption_sigma);
}

FaultChannel &
FaultPlan::add(const FaultSpec &spec)
{
    SOV_ASSERT(!spec.name.empty());
    SOV_ASSERT(spec.probability >= 0.0 && spec.probability <= 1.0);
    SOV_ASSERT(spec.window_end >= spec.window_start);
    SOV_ASSERT(spec.latency >= Duration::zero());
    SOV_ASSERT(std::isfinite(spec.multiplier) && spec.multiplier >= 0.0);
    SOV_ASSERT(std::isfinite(spec.corruption_sigma) &&
               spec.corruption_sigma >= 0.0);
    for (const auto &existing : channels_)
        SOV_ASSERT(existing->spec().name != spec.name);
    channels_.push_back(std::make_unique<FaultChannel>(
        spec, rng_.fork("fault/" + spec.name)));
    channels_.back()->setTraceRecorder(recorder_);
    return *channels_.back();
}

void
FaultPlan::setTraceRecorder(obs::TraceRecorder *recorder)
{
    recorder_ = recorder;
    for (const auto &channel : channels_)
        channel->setTraceRecorder(recorder);
}

std::vector<FaultChannel *>
FaultPlan::channelsFor(FaultTarget target)
{
    std::vector<FaultChannel *> out;
    for (const auto &channel : channels_) {
        if (channel->spec().target == target)
            out.push_back(channel.get());
    }
    return out;
}

std::uint64_t
FaultPlan::totalInjections() const
{
    std::uint64_t total = 0;
    for (const auto &channel : channels_)
        total += channel->injections();
    return total;
}

} // namespace sov::fault
