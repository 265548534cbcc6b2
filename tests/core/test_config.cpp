#include <gtest/gtest.h>

#include "core/config.h"

namespace sov {
namespace {

TEST(Config, FromArgsParsesKeyValuePairs)
{
    const char *argv[] = {"prog", "speed=5.6", "frames=100",
                          "verbose=true", "not-a-pair", "name=sov"};
    Config cfg = Config::fromArgs(6, argv);
    EXPECT_DOUBLE_EQ(cfg.getDouble("speed", 0.0), 5.6);
    EXPECT_EQ(cfg.getInt("frames", 0), 100);
    EXPECT_TRUE(cfg.getBool("verbose", false));
    EXPECT_EQ(cfg.getString("name", ""), "sov");
    EXPECT_FALSE(cfg.has("not-a-pair"));
}

TEST(Config, FallbacksWhenAbsent)
{
    Config cfg;
    EXPECT_DOUBLE_EQ(cfg.getDouble("missing", 1.25), 1.25);
    EXPECT_EQ(cfg.getInt("missing", -7), -7);
    EXPECT_FALSE(cfg.getBool("missing", false));
    EXPECT_EQ(cfg.getString("missing", "dflt"), "dflt");
}

TEST(Config, SetOverwrites)
{
    Config cfg;
    cfg.set("k", "1");
    cfg.set("k", "2");
    EXPECT_EQ(cfg.getInt("k", 0), 2);
}

TEST(Config, BoolSpellings)
{
    Config cfg;
    for (const char *t : {"1", "true", "yes", "on"}) {
        cfg.set("b", t);
        EXPECT_TRUE(cfg.getBool("b", false)) << t;
    }
    for (const char *f : {"0", "false", "no", "off"}) {
        cfg.set("b", f);
        EXPECT_FALSE(cfg.getBool("b", true)) << f;
    }
}

TEST(Config, KeysSorted)
{
    Config cfg;
    cfg.set("zeta", "1");
    cfg.set("alpha", "2");
    const auto keys = cfg.keys();
    ASSERT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys[0], "alpha");
    EXPECT_EQ(keys[1], "zeta");
}

TEST(Config, RejectUnreadPassesWhenEveryKeyWasAskedFor)
{
    const char *argv[] = {"prog", "speed=5.6", "out=x.json", "name=sov"};
    const Config cfg = Config::fromArgs(4, argv);
    (void)cfg.getDouble("speed", 0.0);
    (void)cfg.getString("out", "");
    // has() counts as asking, and so does a getter of an absent key.
    EXPECT_TRUE(cfg.has("name"));
    (void)cfg.getInt("frames", 1);
    cfg.rejectUnread("usage: prog");
    SUCCEED();
}

TEST(ConfigDeathTest, RejectUnreadExitsTwoOnAKeyNobodyRead)
{
    const char *argv[] = {"prog", "smoke=1", "max_thread=1"};
    const Config cfg = Config::fromArgs(3, argv);
    (void)cfg.getBool("smoke", false);
    (void)cfg.getInt("max_threads", 4);
    EXPECT_EXIT(cfg.rejectUnread("usage: prog [smoke=1] [max_threads=N]"),
                ::testing::ExitedWithCode(2),
                "unknown key: 'max_thread'\nusage: prog \\[smoke=1\\]");
}

TEST(ConfigDeathTest, RejectUnreadExitsTwoOnATokenThatIsNoFlag)
{
    const char *argv[] = {"prog", "smoke", "=7"};
    const Config cfg = Config::fromArgs(3, argv);
    (void)cfg.getBool("smoke", false);
    EXPECT_EXIT(cfg.rejectUnread("usage: prog [smoke=1]"),
                ::testing::ExitedWithCode(2),
                "not a key=value flag: 'smoke'\nnot a key=value flag: '=7'");
}

} // namespace
} // namespace sov
