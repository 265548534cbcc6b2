/**
 * @file
 * The benchmark's own arithmetic and tracing: host clocks,
 * percentiles that refuse thin tails, open-loop backlog and knee
 * selection, and an in-memory span recorder with self-time
 * attribution and Chrome-trace export.
 *
 * Everything here is host time (wall clock of this process). Model
 * time from the simulator only ever appears as a correctness check or
 * a work count, never as a reported duration.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock readings. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Milliseconds between two clock readings. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** A percentile with its sample count. */
struct Percentile
{
    double value = 0.0;
    std::size_t samples = 0;
    /** Samples strictly above the nearest-rank position. */
    std::size_t beyond = 0;
    /** False when fewer than kMinBeyond samples lie beyond it. */
    bool valid = false;
};

/** A tail percentile needs at least this many samples beyond it. */
inline constexpr std::size_t kMinBeyond = 10;

/** Nearest-rank percentile @p p (0..100) of @p values; refused
 *  (valid == false) when fewer than kMinBeyond samples lie beyond. */
Percentile percentile(std::vector<double> values, double p);

/** One backlog observation of an open-loop window. */
struct BacklogSample
{
    double t_s = 0.0;   //!< seconds since the window opened
    double queued = 0.0; //!< shards admitted but not dispatched
};

/** Least-squares slope of the backlog, shards per second. */
double backlogSlope(const std::vector<BacklogSample> &samples);

/** True when the backlog grows by more than @p limit_shards over the
 *  window, judged by the least-squares trend (not the endpoints, which
 *  a single large job arriving late would dominate). */
bool backlogGrowing(const std::vector<BacklogSample> &samples,
                    double limit_shards);

/**
 * Work rate while saturated: @p done[i] is a cumulative work counter
 * read with @p samples[i]. The window is cut into bins of @p bin_s;
 * a bin counts when every sample in it shows at least @p min_queued
 * queued shards (workers never idle), and the result is the median of
 * those bins' rates — short host stalls move single bins, not the
 * median. Zero when no bin is saturated.
 */
double saturatedRate(const std::vector<BacklogSample> &samples,
                     const std::vector<double> &done, double bin_s,
                     double min_queued);

/** The verdict of one fixed offered rate. */
struct RatePoint
{
    double rate = 0.0;           //!< offered jobs per second
    Percentile ttfr;             //!< at the limit percentile
    double failed_frac = 0.0;
    bool backlog_growing = false;
};

/** True when @p point meets the TTFR limit (a refused percentile never
 *  does), the failure limit, and shows no backlog growth. */
bool meetsLimits(const RatePoint &point, double ttfr_limit_ms,
                 double failed_frac_limit);

/** The highest offered rate such that it and every lower rate meet
 *  the limits; 0 when even the lowest fails. Input in any order. */
double maxSustainedRate(std::vector<RatePoint> points,
                        double ttfr_limit_ms, double failed_frac_limit);

// ---- tracing -----------------------------------------------------

/** One recorded host-time span. */
struct Span
{
    std::uint32_t name = 0;   //!< index into SpanRecorder::names()
    std::uint32_t id = 0;     //!< 1-based, unique per recorder
    std::uint32_t parent = 0; //!< 0 = root
    std::uint64_t op = 0;     //!< scenario / job / frame identifier
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/**
 * In-memory span store for one recording thread. Spans stay in memory
 * and are written when the benchmark ends. A disabled recorder makes
 * every scope a no-op, so untraced runs pay one branch per call.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled = false) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Intern @p name (stable pointer-free id). */
    std::uint32_t intern(const std::string &name);

    std::uint32_t begin(std::uint32_t name, std::uint64_t op);
    void end(std::uint32_t id);

    const std::vector<Span> &spans() const { return spans_; }
    const std::vector<std::string> &names() const { return names_; }

    /** Durations (ns) of every span named @p name. */
    std::vector<double> durationsNs(const std::string &name) const;

  private:
    bool enabled_;
    std::vector<std::string> names_;
    std::map<std::string, std::uint32_t> name_ids_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> stack_; //!< open span ids
};

/** RAII span around one public call. */
class SpanScope
{
  public:
    SpanScope(SpanRecorder &rec, std::uint32_t name, std::uint64_t op = 0)
        : rec_(rec), id_(rec.enabled() ? rec.begin(name, op) : 0)
    {
    }
    ~SpanScope()
    {
        if (id_)
            rec_.end(id_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    SpanRecorder &rec_;
    std::uint32_t id_;
};

/** Per-name aggregate of a span set. */
struct LayerRow
{
    std::string name;
    std::size_t calls = 0;
    double total_ns = 0.0;
    double self_ns = 0.0; //!< total minus the part children cover
};

/**
 * Aggregate spans by name. A span's self time is its duration minus
 * the union of its children's intervals clipped to it (children may
 * overlap each other when recorded from several threads).
 */
std::vector<LayerRow> selfTimes(const std::vector<Span> &spans,
                                const std::vector<std::string> &names);

/** Write every span of @p rec as Chrome-trace "X" events on one
 *  thread track named @p track (category = the span's layer). */
bool writeChromeTrace(const std::string &path, const SpanRecorder &rec,
                      const std::string &track);

} // namespace perfbench
