#include "obs/metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "core/hash.h"
#include "core/logging.h"

namespace sov::obs {

namespace {

template <typename Map>
std::vector<std::string>
keysOf(const Map &map)
{
    std::vector<std::string> names;
    names.reserve(map.size());
    for (const auto &kv : map)
        names.push_back(kv.first);
    return names;
}

} // namespace

void
MetricRegistry::incr(const std::string &name, std::uint64_t delta)
{
    counters_[name] += delta;
}

std::uint64_t
MetricRegistry::counter(const std::string &name) const
{
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

std::vector<std::string>
MetricRegistry::counterNames() const
{
    return keysOf(counters_);
}

void
MetricRegistry::setGauge(const std::string &name, double value)
{
    gauges_[name] = value;
}

double
MetricRegistry::gauge(const std::string &name) const
{
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

std::vector<std::string>
MetricRegistry::gaugeNames() const
{
    return keysOf(gauges_);
}

void
MetricRegistry::record(const std::string &name, Duration latency)
{
    hists_[name].add(latency.toMillis());
}

void
MetricRegistry::recordTotal(Duration latency)
{
    static const std::string total = "total";
    record(total, latency);
}

HistogramId
MetricRegistry::histogramId(const std::string &name)
{
    std::vector<Interned> &entries = interned_.entries;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].name == name)
            return static_cast<HistogramId>(i);
    }
    entries.push_back(Interned{name, nullptr});
    return static_cast<HistogramId>(entries.size() - 1);
}

void
MetricRegistry::record(HistogramId id, Duration latency)
{
    SOV_ASSERT(id < interned_.entries.size());
    Interned &entry = interned_.entries[id];
    if (!entry.samples)
        entry.samples = &hists_[entry.name];
    entry.samples->add(latency.toMillis());
}

void
MetricRegistry::recordValue(const std::string &name, double value)
{
    hists_[name].add(value);
}

std::vector<std::string>
MetricRegistry::histogramNames() const
{
    return keysOf(hists_);
}

PercentileBuffer *
MetricRegistry::findHist(const std::string &name) const
{
    const auto it = hists_.find(name);
    return it == hists_.end() ? nullptr : &it->second;
}

std::size_t
MetricRegistry::count(const std::string &name) const
{
    const PercentileBuffer *h = findHist(name);
    return h ? h->count() : 0;
}

double
MetricRegistry::mean(const std::string &name) const
{
    const PercentileBuffer *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->mean();
}

double
MetricRegistry::min(const std::string &name) const
{
    PercentileBuffer *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->min();
}

double
MetricRegistry::max(const std::string &name) const
{
    PercentileBuffer *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->max();
}

double
MetricRegistry::percentile(const std::string &name, double p) const
{
    PercentileBuffer *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    return h->percentile(p);
}

double
MetricRegistry::stddev(const std::string &name) const
{
    const PercentileBuffer *h = findHist(name);
    SOV_ASSERT(h != nullptr);
    RunningStats rs;
    for (double x : h->samples())
        rs.add(x);
    return rs.stddev();
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    for (const auto &[name, value] : other.counters_)
        counters_[name] += value;
    for (const auto &[name, value] : other.gauges_) {
        const auto it = gauges_.find(name);
        if (it == gauges_.end())
            gauges_[name] = value;
        else
            it->second = std::max(it->second, value);
    }
    for (const auto &[name, samples] : other.hists_)
        hists_[name].merge(samples);
}

std::uint64_t
MetricRegistry::fingerprint() const
{
    std::uint64_t h = kFnv1aOffset;
    for (const auto &[name, value] : counters_) {
        fnv1aTerminatedString(h, name);
        fnv1aPod(h, value);
    }
    for (const auto &[name, value] : gauges_) {
        fnv1aTerminatedString(h, name);
        fnv1aPod(h, value);
    }
    for (auto &[name, samples] : hists_) {
        fnv1aTerminatedString(h, name);
        const std::uint64_t n = samples.count();
        fnv1aPod(h, n);
        // Sorted samples: insertion order (completion order under a
        // thread pool) must not leak into the fingerprint.
        QuantileDigest digest{0.01};
        for (double x : samples.sortedSamples()) {
            fnv1aPod(h, x);
            digest.add(x);
        }
        // The digest buckets are a pure function of the samples; they
        // are still hashed so committed fingerprints keep their values.
        for (const auto &[index, weight] : digest.buckets()) {
            fnv1aPod(h, index);
            fnv1aPod(h, weight);
        }
    }
    return h;
}

std::string
MetricRegistry::summary() const
{
    std::ostringstream os;
    for (auto &[name, samples] : hists_) {
        os << name << ": best=" << samples.min()
           << "ms mean=" << samples.mean()
           << "ms p99=" << samples.percentile(99.0) << "ms\n";
    }
    return os.str();
}

void
MetricRegistry::toJson(std::ostream &os) const
{
    os << "{\"counters\":{";
    bool first = true;
    for (const auto &[name, value] : counters_) {
        os << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    os << "},\"gauges\":{";
    first = true;
    for (const auto &[name, value] : gauges_) {
        os << (first ? "" : ",") << "\"" << name << "\":" << value;
        first = false;
    }
    os << "},\"histograms\":{";
    first = true;
    for (auto &[name, samples] : hists_) {
        os << (first ? "" : ",") << "\"" << name << "\":{"
           << "\"count\":" << samples.count()
           << ",\"mean\":" << samples.mean()
           << ",\"min\":" << samples.min()
           << ",\"max\":" << samples.max()
           << ",\"p50\":" << samples.percentile(50.0)
           << ",\"p99\":" << samples.percentile(99.0) << "}";
        first = false;
    }
    os << "}}";
}

bool
MetricRegistry::empty() const
{
    return counters_.empty() && gauges_.empty() && hists_.empty();
}

void
MetricRegistry::clear()
{
    counters_.clear();
    gauges_.clear();
    hists_.clear();
    interned_.forget();
}

} // namespace sov::obs
