/**
 * @file
 * Line protocol of the socket front end.
 *
 * One request per line, whitespace-separated tokens, key=value
 * options; one response per line except ROWS/CATALOG, which stream
 * prefixed lines and end with a terminal OK. Grammar (DESIGN.md has
 * the full version):
 *
 *   request  := SUBMIT <tenant> <set> [seed=N] [seeds=N]
 *                      [horizon_s=X] [deadline_s=X] [label=S]
 *             | STATUS <job> | CANCEL <job>
 *             | WAIT <job> [timeout_s=X]
 *             | ROWS <job> [from=N]
 *             | STATS | CATALOG | PING | QUIT
 *   response := OK <verb-specific fields>
 *             | ERR <code> [detail]
 *             | ROW <job> <seq> <k=v ...>     (ROWS stream lines)
 *             | SET <name> <description>      (CATALOG stream lines)
 *
 * Each verb takes only its own options, each at most once. Integers
 * are unsigned decimals (no sign), seconds are finite decimals, and
 * every value is parsed whole and range-checked (the kMax* caps
 * below); any other option makes the request Invalid, so a bad value
 * is refused before a job is built instead of falling back to a
 * default.
 *
 * Parsing and formatting are pure functions so tests cover the
 * protocol without a socket in sight.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fleet/fleet_report.h"
#include "serve/job.h"

namespace sov::serve {

/** SUBMIT seeds=N accepts N in [1, kMaxSeeds]. */
inline constexpr std::uint64_t kMaxSeeds = 1024;
/** SUBMIT horizon_s=X accepts X in (0, kMaxHorizonS]. */
inline constexpr double kMaxHorizonS = 3600.0;
/** SUBMIT deadline_s=X accepts X in (0, kMaxWaitS]; WAIT timeout_s=X
 *  accepts X <= kMaxWaitS (negative = wait forever). One week. */
inline constexpr double kMaxWaitS = 7.0 * 86400.0;

enum class Verb
{
    Submit,
    Status,
    Cancel,
    Wait,
    Rows,
    Stats,
    Catalog,
    Ping,
    Quit,
    Invalid,
};

/** One parsed request line. */
struct Request
{
    Verb verb = Verb::Invalid;
    std::string tenant;  //!< SUBMIT
    std::string set;     //!< SUBMIT (catalog entry)
    JobId job = 0;       //!< STATUS / CANCEL / WAIT / ROWS
    // Options, validated by parseRequest; unset = not on the line.
    std::optional<std::uint64_t> seed;  //!< SUBMIT seed=
    std::optional<std::uint64_t> seeds; //!< SUBMIT seeds=
    std::optional<double> horizon_s;    //!< SUBMIT horizon_s=
    std::optional<double> deadline_s;   //!< SUBMIT deadline_s=
    std::optional<std::string> label;   //!< SUBMIT label=
    std::optional<double> timeout_s;    //!< WAIT timeout_s=
    std::optional<std::uint64_t> from;  //!< ROWS from=
    std::string error;   //!< parse failure reason (verb == Invalid)
};

/** Parse one request line (no trailing newline). */
Request parseRequest(const std::string &line);

/** "job=<id> state=<s> total=... fingerprint=<hex16>" fields. */
std::string formatSnapshot(const JobSnapshot &snapshot);

/** One "ROW <job> <seq> name=... collided=..." stream line. */
std::string formatRow(JobId job, std::size_t seq,
                      const fleet::ScenarioOutcome &row);

} // namespace sov::serve
