#include "fault/stage_faults.h"

#include <map>

#include "core/logging.h"

namespace sov::fault {

void
StageFaultInjector::addChannel(FaultChannel *channel)
{
    SOV_ASSERT(channel != nullptr);
    const FaultSpec &spec = channel->spec();
    if (spec.mode == FaultMode::Dropout || spec.mode == FaultMode::Freeze ||
        spec.mode == FaultMode::Corruption) {
        SOV_FATAL("stage fault '" + spec.name + "' has sensor mode " +
                  toString(spec.mode));
    }
    channels_.push_back(channel);
}

Duration
StageFaultInjector::execute(std::size_t frame)
{
    // Always run the inner executor: its sampler stream must advance
    // exactly as in a fault-free run, firing or not.
    Duration duration = inner_->execute(frame);
    outcome_ = inner_->lastOutcome();
    if (outcome_ != runtime::StageOutcome::Ok)
        return duration; // a nested injector already failed the attempt

    const Timestamp t = clock_ ? clock_() : Timestamp::origin();
    for (FaultChannel *channel : channels_) {
        if (!channel->shouldInject(t))
            continue;
        const FaultSpec &spec = channel->spec();
        switch (spec.mode) {
        case FaultMode::Crash:
            // The returned duration is the crash-detection time.
            outcome_ = runtime::StageOutcome::Crash;
            return spec.latency;
        case FaultMode::Hang:
            // Without a watchdog the stage occupies its lane for the
            // hang time (effectively forever unless the spec says
            // otherwise); a watchdog truncates it at the timeout.
            outcome_ = runtime::StageOutcome::Hang;
            return spec.latency > Duration::zero()
                ? spec.latency
                : Duration::seconds(3600.0);
        case FaultMode::LatencyMultiplier:
            duration = duration * spec.multiplier;
            break;
        case FaultMode::LatencySpike:
            duration += spec.latency;
            break;
        default:
            break; // addChannel refused the sensor modes
        }
    }
    return duration;
}

std::size_t
installStageFaults(runtime::StageGraph &graph, FaultPlan &plan,
                   StageFaultInjector::Clock clock)
{
    std::map<runtime::StageId, StageFaultInjector *> installed;
    for (FaultChannel *channel :
         plan.channelsFor(FaultTarget::PipelineStage)) {
        const runtime::StageId id =
            graph.findStage(channel->spec().stage);
        auto it = installed.find(id);
        if (it == installed.end()) {
            // Two-step swap: park a placeholder to free the original,
            // then install the injector wrapping it.
            std::unique_ptr<runtime::StageExecutor> original =
                graph.replaceExecutor(
                    id, std::make_unique<runtime::FixedExecutor>(
                            Duration::zero()));
            auto injector = std::make_unique<StageFaultInjector>(
                std::move(original), clock);
            StageFaultInjector *raw = injector.get();
            graph.replaceExecutor(id, std::move(injector));
            it = installed.emplace(id, raw).first;
        }
        it->second->addChannel(channel);
    }
    return installed.size();
}

} // namespace sov::fault
