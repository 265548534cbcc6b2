#include <gtest/gtest.h>

#include "serve/line_protocol.h"

namespace sov::serve {
namespace {

TEST(LineProtocol, ParsesSubmitWithOptions)
{
    const Request r = parseRequest(
        "SUBMIT acme sudden_wall seed=7 seeds=3 horizon_s=2.5 "
        "deadline_s=10 label=nightly");
    ASSERT_EQ(r.verb, Verb::Submit);
    EXPECT_EQ(r.tenant, "acme");
    EXPECT_EQ(r.set, "sudden_wall");
    EXPECT_EQ(r.seed, 7u);
    EXPECT_EQ(r.seeds, 3u);
    EXPECT_EQ(r.horizon_s, 2.5);
    EXPECT_EQ(r.deadline_s, 10.0);
    EXPECT_EQ(r.label, "nightly");
    EXPECT_FALSE(r.timeout_s);
}

TEST(LineProtocol, SubmitWithoutSetIsInvalid)
{
    const Request r = parseRequest("SUBMIT acme");
    EXPECT_EQ(r.verb, Verb::Invalid);
    EXPECT_FALSE(r.error.empty());
}

TEST(LineProtocol, ParsesJobVerbs)
{
    EXPECT_EQ(parseRequest("STATUS 12").verb, Verb::Status);
    EXPECT_EQ(parseRequest("STATUS 12").job, 12u);
    EXPECT_EQ(parseRequest("CANCEL 3").verb, Verb::Cancel);
    EXPECT_EQ(parseRequest("WAIT 4 timeout_s=1.5").verb, Verb::Wait);
    const Request rows = parseRequest("ROWS 5 from=10");
    EXPECT_EQ(rows.verb, Verb::Rows);
    EXPECT_EQ(rows.job, 5u);
    EXPECT_EQ(rows.from, 10u);
}

TEST(LineProtocol, RejectsBadJobIds)
{
    EXPECT_EQ(parseRequest("STATUS").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS abc").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS 0").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("STATUS 12x").verb, Verb::Invalid);
}

TEST(LineProtocol, ParsesBareVerbsAndRejectsTrailingArgs)
{
    EXPECT_EQ(parseRequest("PING").verb, Verb::Ping);
    EXPECT_EQ(parseRequest("QUIT").verb, Verb::Quit);
    EXPECT_EQ(parseRequest("STATS").verb, Verb::Stats);
    EXPECT_EQ(parseRequest("CATALOG").verb, Verb::Catalog);
    EXPECT_EQ(parseRequest("PING now").verb, Verb::Invalid);
}

TEST(LineProtocol, UnknownVerbAndMalformedOptionsAreInvalid)
{
    EXPECT_EQ(parseRequest("").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("FROB 1").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme set junk").verb, Verb::Invalid);
    EXPECT_EQ(parseRequest("SUBMIT acme set =5").verb, Verb::Invalid);
}

TEST(LineProtocol, AcceptsEveryOptionAtItsBounds)
{
    // The line perfbench's serve generator sends, and the range ends.
    const Request fuzz = parseRequest(
        "SUBMIT t scenario_fuzz seed=18446744073709551615 seeds=16 "
        "horizon_s=3.000000");
    ASSERT_EQ(fuzz.verb, Verb::Submit) << fuzz.error;
    EXPECT_EQ(fuzz.seed, 18446744073709551615u);
    EXPECT_EQ(fuzz.horizon_s, 3.0);
    const Request top = parseRequest(
        "SUBMIT t s seeds=1024 horizon_s=3600 deadline_s=604800 label=");
    ASSERT_EQ(top.verb, Verb::Submit) << top.error;
    EXPECT_EQ(top.seeds, kMaxSeeds);
    EXPECT_EQ(top.horizon_s, kMaxHorizonS);
    EXPECT_EQ(top.deadline_s, kMaxWaitS);
    EXPECT_EQ(top.label, "");
    const Request tiny = parseRequest("SUBMIT t s horizon_s=1e-3");
    ASSERT_EQ(tiny.verb, Verb::Submit) << tiny.error;
    EXPECT_EQ(tiny.horizon_s, 1e-3);

    // tools/serve_client.py waits a day; a negative timeout waits
    // forever.
    EXPECT_EQ(parseRequest("WAIT 3 timeout_s=86400").timeout_s, 86400.0);
    EXPECT_EQ(parseRequest("WAIT 3 timeout_s=-1").timeout_s, -1.0);
    EXPECT_EQ(parseRequest("ROWS 3 from=0").from, 0u);
}

TEST(LineProtocol, FormatSnapshotCarriesEveryField)
{
    JobSnapshot s;
    s.id = 42;
    s.tenant = "acme";
    s.label = "nightly";
    s.state = JobState::Running;
    s.total = 10;
    s.completed = 4;
    s.cache_hits = 2;
    s.ttfr_ms = 1.5;
    s.fingerprint = 0xdeadbeefULL;
    const std::string line = formatSnapshot(s);
    EXPECT_NE(line.find("job=42"), std::string::npos);
    EXPECT_NE(line.find("tenant=acme"), std::string::npos);
    EXPECT_NE(line.find("state=running"), std::string::npos);
    EXPECT_NE(line.find("total=10"), std::string::npos);
    EXPECT_NE(line.find("completed=4"), std::string::npos);
    EXPECT_NE(line.find("cache_hits=2"), std::string::npos);
    EXPECT_NE(line.find("fingerprint=00000000deadbeef"),
              std::string::npos);
    EXPECT_NE(line.find("label=nightly"), std::string::npos);
}

TEST(LineProtocol, FormatRowIsAStreamLine)
{
    fleet::ScenarioOutcome row;
    row.name = "open_road/none/bare#s1";
    row.index = 3;
    row.seed = 1;
    row.collided = false;
    row.stopped = true;
    const std::string line = formatRow(9, 3, row);
    EXPECT_EQ(line.rfind("ROW 9 3 ", 0), 0u);
    EXPECT_NE(line.find("name=open_road/none/bare#s1"),
              std::string::npos);
    EXPECT_NE(line.find("collided=0"), std::string::npos);
    EXPECT_NE(line.find("stopped=1"), std::string::npos);
}

} // namespace
} // namespace sov::serve
