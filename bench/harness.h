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
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/hash.h"
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

/** Best-of-N wall time of f(), in nanoseconds per call. */
template <typename F>
double
bestNs(int reps, F &&f)
{
    double best = 1e30;
    for (int i = 0; i < reps; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        f();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(
            best,
            static_cast<double>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count()));
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
