#include "core/config.h"

#include <cstdio>
#include <cstdlib>

#include "core/logging.h"

namespace sov {

Config
Config::fromArgs(int argc, const char *const *argv)
{
    Config cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
            cfg.stray_.push_back(arg);
            continue;
        }
        cfg.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
    return cfg;
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    markRead(key);
    return values_.count(key) != 0;
}

double
Config::getDouble(const std::string &key, double fallback) const
{
    markRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        SOV_FATAL("config key '" + key + "' is not a number: " + it->second);
    return v;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t fallback) const
{
    markRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        SOV_FATAL("config key '" + key + "' is not an integer: " + it->second);
    return v;
}

bool
Config::getBool(const std::string &key, bool fallback) const
{
    markRead(key);
    auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    SOV_FATAL("config key '" + key + "' is not a boolean: " + v);
}

std::string
Config::getString(const std::string &key, const std::string &fallback) const
{
    markRead(key);
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &kv : values_)
        out.push_back(kv.first);
    return out;
}

void
Config::rejectUnread(const std::string &usage) const
{
    bool rejected = false;
    for (const std::string &token : stray_) {
        std::fprintf(stderr, "not a key=value flag: '%s'\n", token.c_str());
        rejected = true;
    }
    for (const auto &kv : values_) {
        if (read_.count(kv.first) == 0) {
            std::fprintf(stderr, "unknown key: '%s'\n", kv.first.c_str());
            rejected = true;
        }
    }
    if (!rejected)
        return;
    std::fprintf(stderr, "%s\n", usage.c_str());
    std::exit(2);
}

} // namespace sov
