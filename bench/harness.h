#pragma once

/**
 * @file
 * Shared benchmark-report harness: every bench_* binary emits one
 * BENCH_<name>.json through BenchReport so CI validates a single
 * schema (bench/report_schema.json) instead of bespoke ofstream
 * writers per bench.
 *
 * The envelope is fixed — schema / bench / smoke / meta / rows /
 * gates [/ metrics / extra] / pass — with insertion-ordered keys so
 * reports diff cleanly run to run. Values are scalars only; nested
 * structure goes through rows (named tables of flat rows) or extra
 * (pre-serialized JSON embedded verbatim, e.g. a FleetReport).
 * `pass` is the AND of the registered gates and doubles as the
 * process exit code, keeping shell-level CI gates one-liners.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hash.h"
#include "core/logging.h"
#include "obs/metrics.h"

namespace sov::bench {

/** FNV-1a over raw bytes, chainable through @p h. Bench digests
 *  start from the truncated basis (see core/hash.h for why). */
inline std::uint64_t
fnv1a(const void *bytes, std::size_t n,
      std::uint64_t h = kFnv1aTruncatedOffset)
{
    return sov::fnv1a(bytes, n, h);
}

/** 16-digit zero-padded lowercase hex (fingerprint formatting). */
std::string hex(std::uint64_t v);

/**
 * The machine and build this process runs on, as one line: CPU model,
 * core count, detected SIMD level, CMake build type and compiler, and
 * on sanitized builds only, the SOV_SANITIZE mode. Every BenchReport
 * carries it as meta.host; tools/bench_diff.py compares host-clock
 * values (rates, TTFR) only between reports whose stamps are equal.
 */
const std::string &hostStamp();

/**
 * True when built with SOV_SANITIZE (ASan/UBSan or TSan). Host-clock
 * speed means nothing there, so benches skip their speed floors.
 */
bool sanitizedBuild();

/** The most worker threads a bench's thread pool may be asked for. */
inline constexpr std::int64_t kMaxBenchThreads = 1024;

/**
 * The thread counts a scaling sweep runs: 1, 2, 4 and @p max_threads,
 * none above @p max_threads, ascending and without repeats. Empty when
 * @p max_threads is outside [1, kMaxBenchThreads]: the bench prints its
 * usage and exits 2 before it builds any pool (a negative count cast
 * to std::size_t would ask for about 2^64 threads).
 */
std::vector<std::size_t> threadLadder(std::int64_t max_threads);

/**
 * Interleaved best-of-N wall time, in nanoseconds per call of each
 * variant. Every rep runs f[0](), f[1](), ... once each, in order, so
 * all variants ride the same host phase (a clock that sags over
 * consecutive runs, a noisy neighbour) and no block order taxes
 * whichever ran last; each variant's result is its fastest rep.
 * @p reps must be at least 1.
 */
template <typename... F>
std::array<double, sizeof...(F)>
interleavedBestNs(std::int64_t reps, F &&...f)
{
    SOV_ASSERT(reps >= 1);
    std::array<double, sizeof...(F)> best;
    best.fill(std::numeric_limits<double>::infinity());
    const auto time = [&best](std::size_t i, auto &call) {
        const auto t0 = std::chrono::steady_clock::now();
        call();
        const auto t1 = std::chrono::steady_clock::now();
        best[i] = std::min(
            best[i], std::chrono::duration<double, std::nano>(t1 - t0).count());
    };
    for (std::int64_t rep = 0; rep < reps; ++rep) {
        std::size_t i = 0;
        (time(i++, f), ...);
    }
    return best;
}

/** One scalar JSON value (bool / integer / number / string). */
class Value
{
public:
    template <typename T>
    static Value
    of(const T &v)
    {
        Value out;
        if constexpr (std::is_same_v<T, bool>) {
            out.kind_ = Kind::Bool;
            out.bool_ = v;
        } else if constexpr (std::is_floating_point_v<T>) {
            out.kind_ = Kind::Double;
            out.double_ = static_cast<double>(v);
        } else if constexpr (std::is_integral_v<T> &&
                             std::is_signed_v<T>) {
            out.kind_ = Kind::Int;
            out.int_ = static_cast<std::int64_t>(v);
        } else if constexpr (std::is_integral_v<T>) {
            out.kind_ = Kind::Uint;
            out.uint_ = static_cast<std::uint64_t>(v);
        } else {
            out.kind_ = Kind::String;
            out.string_ = v;
        }
        return out;
    }

    void write(std::ostream &os) const;

private:
    enum class Kind { Bool, Int, Uint, Double, String };

    Kind kind_ = Kind::Double;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
};

/** One flat row of a named table; keys keep insertion order. */
class Row
{
public:
    template <typename T>
    Row &
    set(const std::string &key, const T &v)
    {
        fields_.emplace_back(key, Value::of(v));
        return *this;
    }

private:
    friend class BenchReport;
    std::vector<std::pair<std::string, Value>> fields_;
};

class BenchReport
{
public:
    explicit BenchReport(std::string name);

    void setSmoke(bool smoke) { smoke_ = smoke; }

    /** Scalar header field; re-setting a key overwrites in place. */
    template <typename T>
    void
    meta(const std::string &key, const T &v)
    {
        for (auto &kv : meta_) {
            if (kv.first == key) {
                kv.second = Value::of(v);
                return;
            }
        }
        meta_.emplace_back(key, Value::of(v));
    }

    /** Appends (and returns) a new row of the named table. */
    Row &addRow(const std::string &table);

    /** Registers a named pass/fail gate; `pass` ANDs them all. */
    void gate(const std::string &name, bool pass,
              std::string detail = "");

    /** Embeds a MetricRegistry snapshot under "metrics". */
    void attachMetrics(const obs::MetricRegistry &metrics);

    /** Embeds pre-serialized JSON verbatim under extra.<key>. */
    void extra(const std::string &key, std::string raw_json);

    bool pass() const;
    std::string defaultPath() const; //!< "BENCH_<name>.json"
    void toJson(std::ostream &os) const;

    /** Writes the report ("" -> defaultPath()), prints the path, and
     *  returns the process exit code (0 iff every gate passed). */
    int write(const std::string &path = "") const;

private:
    struct Gate
    {
        std::string name;
        bool pass = false;
        std::string detail;
    };

    std::string name_;
    bool smoke_ = false;
    std::vector<std::pair<std::string, Value>> meta_;
    std::vector<std::pair<std::string, std::vector<Row>>> tables_;
    std::vector<Gate> gates_;
    std::string metrics_json_;
    std::vector<std::pair<std::string, std::string>> extra_;
};

} // namespace sov::bench
