#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

#include "serve/socket_server.h"

namespace sov::serve {
namespace {

ServiceConfig
serviceConfig()
{
    TenantConfig t;
    t.name = "acme";
    t.rate_scenarios_per_s = 1e6;
    t.burst_scenarios = 1e6;
    t.max_queued_scenarios = 1000000;
    ServiceConfig config;
    config.workers = 2;
    config.master_seed = 7;
    config.tenants = {t};
    return config;
}

/** A client socket connected to @p port on loopback; -1 on failure. */
int
connectLoopback(int port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    // A server that never answers fails the test instead of hanging it.
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    return fd;
}

/** Send all of @p data, then read until the server closes; closes fd. */
std::string
sendThenDrain(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    std::string reply;
    char buf[256];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n <= 0)
            break; // server closed
        reply.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    return reply;
}

/** Run one line through the protocol engine, expect @p n responses. */
std::vector<std::string>
roundTrip(SocketServer &server, const std::string &line,
          bool expect_keep = true)
{
    std::vector<std::string> out;
    EXPECT_EQ(server.handleLine(line, out), expect_keep) << line;
    EXPECT_FALSE(out.empty()) << line;
    return out;
}

TEST(SocketServer, SubmitStatusWaitRowsFlow)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{}); // no listeners needed

    // SUBMIT with a short horizon so the sim is milliseconds.
    const auto submit = roundTrip(
        server, "SUBMIT acme open_road horizon_s=2 label=itest");
    ASSERT_EQ(submit.size(), 1u);
    ASSERT_EQ(submit[0].rfind("OK job=", 0), 0u) << submit[0];
    const JobId id = std::stoull(submit[0].substr(7));

    const auto wait =
        roundTrip(server, "WAIT " + std::to_string(id) + " timeout_s=25");
    ASSERT_EQ(wait.size(), 1u);
    EXPECT_NE(wait[0].find("state=completed"), std::string::npos)
        << wait[0];
    EXPECT_NE(wait[0].find("label=itest"), std::string::npos);

    const auto status = roundTrip(server, "STATUS " + std::to_string(id));
    EXPECT_NE(status[0].find("state=completed"), std::string::npos);

    const auto rows =
        roundTrip(server, "ROWS " + std::to_string(id) + " from=0");
    ASSERT_GE(rows.size(), 2u); // >= 1 ROW line + terminal OK
    EXPECT_EQ(rows[0].rfind("ROW ", 0), 0u);
    EXPECT_EQ(rows.back().rfind("OK rows=", 0), 0u);

    // Incremental fetch from the end is empty but still OK.
    const auto tail = roundTrip(
        server, "ROWS " + std::to_string(id) + " from=1000");
    ASSERT_EQ(tail.size(), 1u);
    EXPECT_EQ(tail[0].rfind("OK rows=0", 0), 0u);
}

TEST(SocketServer, CancelAndStatsThroughProtocol)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    const auto submit = roundTrip(
        server, "SUBMIT acme sudden_wall horizon_s=2 seeds=4");
    ASSERT_EQ(submit[0].rfind("OK job=", 0), 0u) << submit[0];
    const JobId id = std::stoull(submit[0].substr(7));

    const auto cancel = roundTrip(server, "CANCEL " + std::to_string(id));
    EXPECT_EQ(cancel[0], "OK cancelled=1");
    const auto wait =
        roundTrip(server, "WAIT " + std::to_string(id) + " timeout_s=25");
    EXPECT_NE(wait[0].find("state=cancelled"), std::string::npos);

    const auto stats = roundTrip(server, "STATS");
    EXPECT_NE(stats[0].find("admitted=1"), std::string::npos)
        << stats[0];
    EXPECT_NE(stats[0].find("cancelled=1"), std::string::npos);
}

TEST(SocketServer, ProtocolErrorsAreErrLines)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    EXPECT_EQ(roundTrip(server, "SUBMIT acme no_such_set")[0].rfind(
                  "ERR unknown_set", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "SUBMIT ghost open_road")[0].rfind(
                  "ERR unknown_tenant", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "STATUS 424242")[0].rfind(
                  "ERR unknown_job", 0),
              0u);
    EXPECT_EQ(roundTrip(server, "FROBNICATE")[0].rfind("ERR bad_request",
                                                       0),
              0u);
    EXPECT_EQ(roundTrip(server, "PING")[0], "OK pong");
    EXPECT_EQ(roundTrip(server, "QUIT", /*expect_keep=*/false)[0],
              "OK bye");
}

TEST(SocketServer, RejectsMalformedOptionsBeforeAJobIsBuilt)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});

    // Each line would otherwise fall back to a default, or reach an
    // unbounded loop or allocation (seeds=-1 is 2^64-1 to strtoull)
    // or a double->int64 cast of nan/1e300.
    const char *const bad[] = {
        "SUBMIT acme open_road seeds=-1",
        "SUBMIT acme scenario_fuzz seeds=-1",
        "SUBMIT acme open_road seeds=0",
        "SUBMIT acme open_road seeds=1025",
        "SUBMIT acme open_road seeds=+3",
        "SUBMIT acme open_road seeds=3.0",
        "SUBMIT acme open_road seed=-5",
        "SUBMIT acme open_road seed=7x",
        "SUBMIT acme open_road seed=",
        "SUBMIT acme open_road seed=99999999999999999999",
        "SUBMIT acme open_road horizon_s=nan",
        "SUBMIT acme open_road horizon_s=inf",
        "SUBMIT acme open_road horizon_s=1e300",
        "SUBMIT acme open_road horizon_s=1e400",
        "SUBMIT acme open_road horizon_s=0",
        "SUBMIT acme open_road horizon_s=-2",
        "SUBMIT acme open_road horizon_s=3601",
        "SUBMIT acme open_road horizon_s=+2",
        "SUBMIT acme open_road horizon_s=2s",
        "SUBMIT acme open_road deadline_s=nan",
        "SUBMIT acme open_road deadline_s=0",
        "SUBMIT acme open_road deadline_s=-1",
        "SUBMIT acme open_road deadline_s=1e300",
        "SUBMIT acme open_road seed=1 seed=1",
        "SUBMIT acme open_road label=a label=b",
        "SUBMIT acme open_road bogus=1",
        "SUBMIT acme open_road timeout_s=5",
        "SUBMIT acme open_road from=0",
        "WAIT 1 timeout_s=nan",
        "WAIT 1 timeout_s=-inf",
        "WAIT 1 timeout_s=1e300",
        "WAIT 1 timeout_s=604801",
        "WAIT 1 timeout_s=1 timeout_s=1",
        "WAIT 1 from=0",
        "ROWS 1 from=-1",
        "ROWS 1 from=1.5",
        "ROWS 1 from=0 from=0",
        "ROWS 1 timeout_s=1",
        "STATUS 1 from=0",
        "CANCEL 1 timeout_s=1",
        "STATUS +1",
        "STATUS -1",
    };
    for (const char *line : bad) {
        const auto out = roundTrip(server, line);
        ASSERT_EQ(out.size(), 1u) << line;
        EXPECT_EQ(out[0].rfind("ERR bad_request ", 0), 0u)
            << line << " -> " << out[0];
    }
    const auto stats = roundTrip(server, "STATS");
    EXPECT_NE(stats[0].find("submitted=0"), std::string::npos)
        << stats[0];
}

TEST(SocketServer, CatalogListsEveryStandardSet)
{
    ScenarioService service(serviceConfig());
    SocketServer server(service, ScenarioCatalog::standard(),
                        SocketServerConfig{});
    const auto out = roundTrip(server, "CATALOG");
    ASSERT_GE(out.size(), 2u);
    EXPECT_EQ(out.back().rfind("OK sets=", 0), 0u);
    bool saw_fault_matrix = false;
    for (const std::string &line : out)
        if (line.rfind("SET fault_matrix ", 0) == 0)
            saw_fault_matrix = true;
    EXPECT_TRUE(saw_fault_matrix);
}

TEST(SocketServer, TcpRoundTripOverEphemeralPort)
{
    ScenarioService service(serviceConfig());
    SocketServerConfig transport;
    transport.tcp_port = 0; // ephemeral
    SocketServer server(service, ScenarioCatalog::standard(), transport);
    ASSERT_TRUE(server.start());
    ASSERT_GT(server.tcpPort(), 0);

    const int fd = connectLoopback(server.tcpPort());
    ASSERT_GE(fd, 0);
    EXPECT_EQ(sendThenDrain(fd, "PING\nQUIT\n"), "OK pong\nOK bye\n");
    server.stop();
}

TEST(SocketServer, OverlongLineGetsOneErrThenServiceContinues)
{
    ScenarioService service(serviceConfig());
    SocketServerConfig transport;
    transport.tcp_port = 0;
    SocketServer server(service, ScenarioCatalog::standard(), transport);
    ASSERT_TRUE(server.start());

    // One byte past the bound and no newline: the server reads all of
    // it, answers with a single ERR line and closes the connection.
    const int flood = connectLoopback(server.tcpPort());
    ASSERT_GE(flood, 0);
    const std::string flood_line(SocketServer::kMaxLineBytes + 1, 'x');
    EXPECT_EQ(sendThenDrain(flood, flood_line),
              "ERR line_too_long max_bytes=" +
                  std::to_string(SocketServer::kMaxLineBytes) + "\n");

    // A line exactly at the bound is still served.
    const int full = connectLoopback(server.tcpPort());
    ASSERT_GE(full, 0);
    const std::string at_bound =
        "PING" + std::string(SocketServer::kMaxLineBytes - 4, ' ');
    EXPECT_EQ(sendThenDrain(full, at_bound + "\nQUIT\n"),
              "OK pong\nOK bye\n");

    // The server keeps serving new connections.
    const int next = connectLoopback(server.tcpPort());
    ASSERT_GE(next, 0);
    EXPECT_EQ(sendThenDrain(next, "PING\nQUIT\n"), "OK pong\nOK bye\n");
    server.stop();
}

} // namespace
} // namespace sov::serve
