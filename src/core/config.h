/**
 * @file
 * Minimal typed key-value configuration store.
 *
 * Examples and benches accept "key=value" command-line overrides so
 * parameter sweeps don't require recompilation. Each of them reads its
 * keys first and then calls rejectUnread(), so a misspelled or unknown
 * flag stops it with its usage line instead of being ignored.
 */
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace sov {

/** String-keyed configuration with typed accessors and defaults. */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens (e.g. from argv); others are kept
     *  aside for rejectUnread(). */
    static Config fromArgs(int argc, const char *const *argv);

    /** Set a raw string value, overwriting any previous one. */
    void set(const std::string &key, const std::string &value);

    bool has(const std::string &key) const;

    /** Typed getters returning @p fallback when the key is absent.
     *  A present-but-malformed value is a user error (fatal). */
    double getDouble(const std::string &key, double fallback) const;
    std::int64_t getInt(const std::string &key, std::int64_t fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /** All keys, sorted (for help/debug dumps). */
    std::vector<std::string> keys() const;

    /**
     * The strict end of flag parsing: when fromArgs() met a token that
     * is not key=value, or a key is set that no getter or has() has
     * asked for, print each and then @p usage to stderr and exit 2.
     * Call it once every key is read, before any work.
     */
    void rejectUnread(const std::string &usage) const;

  private:
    /** Note that @p key was asked for. */
    void markRead(const std::string &key) const { read_.insert(key); }

    std::map<std::string, std::string> values_;
    /** Keys a getter or has() asked for, set or not. */
    mutable std::set<std::string> read_;
    /** fromArgs() tokens that were not key=value. */
    std::vector<std::string> stray_;
};

} // namespace sov
