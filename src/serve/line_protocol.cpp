#include "serve/line_protocol.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <vector>

namespace sov::serve {

namespace {

std::vector<std::string> tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream in(line);
    std::string token;
    while (in >> token)
        tokens.push_back(std::move(token));
    return tokens;
}

/** @p value as a whole unsigned decimal in [@p lo, @p hi]. */
std::optional<std::uint64_t> wholeU64(const std::string &value,
                                      std::uint64_t lo, std::uint64_t hi)
{
    std::uint64_t out = 0;
    const char *last = value.data() + value.size();
    const auto [end, ec] = std::from_chars(value.data(), last, out);
    if (ec != std::errc{} || end != last || out < lo || out > hi)
        return std::nullopt;
    return out;
}

/** @p value as a whole finite decimal in (@p above, @p hi]. */
std::optional<double> wholeSeconds(const std::string &value, double above,
                                   double hi)
{
    double out = 0.0;
    const char *last = value.data() + value.size();
    const auto [end, ec] = std::from_chars(value.data(), last, out);
    if (ec != std::errc{} || end != last || !std::isfinite(out) ||
        !(out > above) || out > hi)
        return std::nullopt;
    return out;
}

/** Store option @p key=@p value of @p verb in @p request; returns the
 *  rejection reason, empty when the option is accepted. */
std::string setOption(Verb verb, const std::string &key,
                      const std::string &value, Request &request)
{
    const auto set = [&](auto &slot, auto parsed) -> std::string {
        if (slot)
            return "duplicate option '" + key + "'";
        if (!parsed)
            return "bad value " + key + "=" + value;
        slot = std::move(parsed);
        return {};
    };
    constexpr std::uint64_t kAnyU64 =
        std::numeric_limits<std::uint64_t>::max();
    constexpr double kAnyNegative = -std::numeric_limits<double>::infinity();
    if (verb == Verb::Submit) {
        if (key == "seed")
            return set(request.seed, wholeU64(value, 0, kAnyU64));
        if (key == "seeds")
            return set(request.seeds, wholeU64(value, 1, kMaxSeeds));
        if (key == "horizon_s")
            return set(request.horizon_s,
                       wholeSeconds(value, 0.0, kMaxHorizonS));
        if (key == "deadline_s")
            return set(request.deadline_s,
                       wholeSeconds(value, 0.0, kMaxWaitS));
        if (key == "label")
            return set(request.label, std::optional<std::string>(value));
    }
    if (verb == Verb::Wait && key == "timeout_s")
        return set(request.timeout_s,
                   wholeSeconds(value, kAnyNegative, kMaxWaitS));
    if (verb == Verb::Rows && key == "from")
        return set(request.from, wholeU64(value, 0, kAnyU64));
    return "unknown option '" + key + "'";
}

/** Fold "key=value" trailing tokens into @p request's options. */
bool parseParams(Verb verb, const std::vector<std::string> &tokens,
                 std::size_t first, Request &request)
{
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string::npos || eq == 0) {
            request.error = "malformed option '" + tokens[i] + "'";
            return false;
        }
        request.error = setOption(verb, tokens[i].substr(0, eq),
                                  tokens[i].substr(eq + 1), request);
        if (!request.error.empty())
            return false;
    }
    return true;
}

bool parseJobId(const std::string &token, JobId &out)
{
    const auto id = wholeU64(token, 1, std::numeric_limits<JobId>::max());
    if (id)
        out = *id;
    return id.has_value();
}

/** Verbs of the form "<VERB> <job> [k=v ...]". */
Request parseJobVerb(Verb verb, const std::vector<std::string> &tokens)
{
    Request request;
    if (tokens.size() < 2) {
        request.error = "missing job id";
        return request;
    }
    if (!parseJobId(tokens[1], request.job)) {
        request.error = "bad job id '" + tokens[1] + "'";
        return request;
    }
    if (!parseParams(verb, tokens, 2, request))
        return request;
    request.verb = verb;
    return request;
}

std::string formatDouble(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    return buf;
}

std::string formatHex64(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace

Request parseRequest(const std::string &line)
{
    Request request;
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) {
        request.error = "empty request";
        return request;
    }
    const std::string &verb = tokens[0];
    if (verb == "SUBMIT") {
        if (tokens.size() < 3) {
            request.error = "usage: SUBMIT <tenant> <set> [k=v ...]";
            return request;
        }
        request.tenant = tokens[1];
        request.set = tokens[2];
        if (!parseParams(Verb::Submit, tokens, 3, request))
            return request;
        request.verb = Verb::Submit;
        return request;
    }
    if (verb == "STATUS")
        return parseJobVerb(Verb::Status, tokens);
    if (verb == "CANCEL")
        return parseJobVerb(Verb::Cancel, tokens);
    if (verb == "WAIT")
        return parseJobVerb(Verb::Wait, tokens);
    if (verb == "ROWS")
        return parseJobVerb(Verb::Rows, tokens);
    if (verb == "STATS" || verb == "CATALOG" || verb == "PING" ||
        verb == "QUIT") {
        if (tokens.size() != 1) {
            request.error = verb + " takes no arguments";
            return request;
        }
        request.verb = verb == "STATS"     ? Verb::Stats
                       : verb == "CATALOG" ? Verb::Catalog
                       : verb == "PING"    ? Verb::Ping
                                           : Verb::Quit;
        return request;
    }
    request.error = "unknown verb '" + verb + "'";
    return request;
}

std::string formatSnapshot(const JobSnapshot &snapshot)
{
    std::ostringstream out;
    out << "job=" << snapshot.id << " tenant=" << snapshot.tenant
        << " state=" << toString(snapshot.state)
        << " total=" << snapshot.total
        << " completed=" << snapshot.completed
        << " cache_hits=" << snapshot.cache_hits
        << " revoked=" << snapshot.revoked
        << " ttfr_ms=" << formatDouble(snapshot.ttfr_ms)
        << " wall_ms=" << formatDouble(snapshot.wall_ms)
        << " fingerprint=" << formatHex64(snapshot.fingerprint);
    if (!snapshot.label.empty())
        out << " label=" << snapshot.label;
    return out.str();
}

std::string formatRow(JobId job, std::size_t seq,
                      const fleet::ScenarioOutcome &row)
{
    std::ostringstream out;
    out << "ROW " << job << ' ' << seq << " name=" << row.name
        << " index=" << row.index << " seed=" << row.seed
        << " collided=" << (row.collided ? 1 : 0)
        << " stopped=" << (row.stopped ? 1 : 0)
        << " min_gap=" << formatDouble(row.min_gap)
        << " availability=" << formatDouble(row.availability)
        << " deadline_misses=" << row.deadline_misses
        << " worst_level=" << static_cast<int>(row.worst_level);
    return out.str();
}

} // namespace sov::serve
