#include "measure.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

Percentile
percentile(std::vector<double> values, double p)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    const auto n = static_cast<double>(values.size());
    auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    out.value = values[rank - 1];
    out.beyond = values.size() - rank;
    out.valid = out.beyond >= kMinBeyond;
    return out;
}

double
backlogSlope(const std::vector<BacklogSample> &samples)
{
    if (samples.size() < 2)
        return 0.0;
    double mt = 0.0, mq = 0.0;
    for (const BacklogSample &s : samples) {
        mt += s.t_s;
        mq += s.queued;
    }
    mt /= static_cast<double>(samples.size());
    mq /= static_cast<double>(samples.size());
    double cov = 0.0, var = 0.0;
    for (const BacklogSample &s : samples) {
        cov += (s.t_s - mt) * (s.queued - mq);
        var += (s.t_s - mt) * (s.t_s - mt);
    }
    return var > 0.0 ? cov / var : 0.0;
}

bool
backlogGrowing(const std::vector<BacklogSample> &samples,
               double limit_shards)
{
    if (samples.size() < 2)
        return false;
    const double span_s = samples.back().t_s - samples.front().t_s;
    return backlogSlope(samples) * span_s > limit_shards;
}

double
saturatedRate(const std::vector<BacklogSample> &samples,
              const std::vector<double> &done, double bin_s,
              double min_queued)
{
    std::vector<double> rates;
    std::size_t first = 0;
    while (first < samples.size()) {
        std::size_t last = first;
        bool saturated = samples[first].queued >= min_queued;
        while (last + 1 < samples.size() &&
               samples[last + 1].t_s - samples[first].t_s <= bin_s) {
            ++last;
            saturated = saturated && samples[last].queued >= min_queued;
        }
        const double dt = samples[last].t_s - samples[first].t_s;
        if (saturated && dt >= 0.5 * bin_s)
            rates.push_back((done[last] - done[first]) / dt);
        first = last + 1;
    }
    if (rates.empty())
        return 0.0;
    std::sort(rates.begin(), rates.end());
    const std::size_t n = rates.size();
    return n % 2 ? rates[n / 2] : 0.5 * (rates[n / 2 - 1] + rates[n / 2]);
}

bool
meetsLimits(const RatePoint &point, double ttfr_limit_ms,
            double failed_frac_limit)
{
    return point.ttfr.valid && point.ttfr.value <= ttfr_limit_ms &&
           point.failed_frac <= failed_frac_limit && !point.backlog_growing;
}

double
maxSustainedRate(std::vector<RatePoint> points, double ttfr_limit_ms,
                 double failed_frac_limit)
{
    std::sort(points.begin(), points.end(),
              [](const RatePoint &a, const RatePoint &b) {
                  return a.rate < b.rate;
              });
    double best = 0.0;
    for (const RatePoint &p : points) {
        if (!meetsLimits(p, ttfr_limit_ms, failed_frac_limit))
            break;
        best = p.rate;
    }
    return best;
}

std::uint32_t
SpanRecorder::intern(const std::string &name)
{
    const auto it = name_ids_.find(name);
    if (it != name_ids_.end())
        return it->second;
    const auto id = static_cast<std::uint32_t>(names_.size());
    names_.push_back(name);
    name_ids_.emplace(name, id);
    return id;
}

std::uint32_t
SpanRecorder::begin(std::uint32_t name, std::uint64_t op)
{
    Span s;
    s.name = name;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = stack_.empty() ? 0 : stack_.back();
    s.op = op;
    spans_.push_back(s);
    stack_.push_back(s.id);
    // Read the clock last so bookkeeping stays outside the span.
    spans_.back().start_ns = nowNs();
    return s.id;
}

void
SpanRecorder::end(std::uint32_t id)
{
    const std::int64_t t = nowNs();
    spans_[id - 1].end_ns = t;
    if (!stack_.empty() && stack_.back() == id)
        stack_.pop_back();
}

std::vector<double>
SpanRecorder::durationsNs(const std::string &name) const
{
    std::vector<double> out;
    const auto it = name_ids_.find(name);
    if (it == name_ids_.end())
        return out;
    for (const Span &s : spans_)
        if (s.name == it->second)
            out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

std::vector<LayerRow>
selfTimes(const std::vector<Span> &spans,
          const std::vector<std::string> &names)
{
    std::unordered_map<std::uint32_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back(&s);

    std::map<std::string, LayerRow> rows;
    for (const Span &s : spans) {
        const double dur = static_cast<double>(s.end_ns - s.start_ns);
        double covered = 0.0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<std::int64_t, std::int64_t>> iv;
            for (const Span *c : it->second) {
                const std::int64_t a = std::max(c->start_ns, s.start_ns);
                const std::int64_t b = std::min(c->end_ns, s.end_ns);
                if (b > a)
                    iv.emplace_back(a, b);
            }
            std::sort(iv.begin(), iv.end());
            std::int64_t cur_a = 0, cur_b = 0;
            bool open = false;
            for (const auto &[a, b] : iv) {
                if (open && a <= cur_b) {
                    cur_b = std::max(cur_b, b);
                    continue;
                }
                if (open)
                    covered += static_cast<double>(cur_b - cur_a);
                cur_a = a;
                cur_b = b;
                open = true;
            }
            if (open)
                covered += static_cast<double>(cur_b - cur_a);
        }
        LayerRow &row = rows[names.at(s.name)];
        row.name = names.at(s.name);
        ++row.calls;
        row.total_ns += dur;
        row.self_ns += dur - covered;
    }
    std::vector<LayerRow> out;
    out.reserve(rows.size());
    for (auto &[name, row] : rows)
        out.push_back(row);
    return out;
}

bool
writeChromeTrace(const std::string &path, const SpanRecorder &rec,
                 const std::string &track)
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::int64_t origin = 0;
    for (const Span &s : rec.spans())
        if (origin == 0 || s.start_ns < origin)
            origin = s.start_ns;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n"
                  "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
                  "\"tid\": 1, \"args\": {\"name\": \"%s\"}}",
                  track.c_str());
    out << buf;
    for (const Span &s : rec.spans()) {
        const std::string &name = rec.names().at(s.name);
        const std::string layer = name.substr(0, name.find('.'));
        std::snprintf(
            buf, sizeof(buf),
            ",\n{\"ph\": \"X\", \"name\": \"%s\", \"cat\": \"%s\", "
            "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
            "\"args\": {\"id\": %u, \"parent\": %u, \"op\": %llu}}",
            name.c_str(), layer.c_str(),
            static_cast<double>(s.start_ns - origin) / 1000.0,
            static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.id,
            s.parent, static_cast<unsigned long long>(s.op));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench
