/**
 * @file
 * Socket front end for the ScenarioService.
 *
 * Serves the line protocol (serve/line_protocol.h) over a Unix-domain
 * socket and/or a TCP listener. The transport layer is deliberately
 * thin: one accept-loop thread per listener, one thread per accepted
 * connection, every request handled by the pure dispatch below —
 * protocol semantics live in ScenarioService + LineProtocol and are
 * tested without sockets; this file only moves bytes.
 *
 * Lifecycle: start() binds + spawns the accept loops; stop() (or the
 * destructor) closes the listening and connection fds, which unblocks
 * the blocking reads, then joins every thread. Pass tcp_port 0 for an
 * ephemeral port (query the bound one with tcpPort()).
 */
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.h"
#include "serve/service.h"

namespace sov::serve {

/** Transport provisioning; empty/negative fields disable a listener. */
struct SocketServerConfig
{
    /** Unix-domain socket path; empty disables (unlinked on bind+stop). */
    std::string unix_path;
    /** TCP port on 127.0.0.1; 0 = ephemeral, negative disables. */
    int tcp_port = -1;
};

/** Line-protocol server over a ScenarioService (not owned). */
class SocketServer
{
  public:
    /** Longest request line a connection buffers, in bytes; far above
     *  any valid request. Past it without a newline a client gets one
     *  "ERR line_too_long" line and is disconnected. */
    static constexpr std::size_t kMaxLineBytes = 64 * 1024;

    SocketServer(ScenarioService &service, ScenarioCatalog catalog,
                 SocketServerConfig config);
    ~SocketServer();

    SocketServer(const SocketServer &) = delete;
    SocketServer &operator=(const SocketServer &) = delete;

    /** Bind + listen + spawn accept loops. False on bind failure. */
    bool start();

    /** Close every fd, join every thread; idempotent. */
    void stop();

    /** The bound TCP port (0 until start() with tcp_port >= 0). */
    int tcpPort() const { return tcp_port_; }

    /**
     * Handle one request line, appending protocol response lines to
     * @p out (ROWS/CATALOG append a stream before the terminal OK).
     * Returns false when the connection should close (QUIT). Public —
     * this is the whole protocol engine, tested without a socket.
     */
    bool handleLine(const std::string &line, std::vector<std::string> &out);

  private:
    void acceptLoop(int listen_fd);
    void connectionLoop(int fd);
    int registerConnection(int fd);

    ScenarioService &service_;
    ScenarioCatalog catalog_;
    SocketServerConfig config_;

    int unix_fd_ = -1;
    int tcp_fd_ = -1;
    int tcp_port_ = 0;
    std::atomic<bool> stopping_{false};
    bool started_ = false;

    std::mutex mutex_; //!< guards conn_fds_ / threads_
    std::map<int, int> conn_fds_;
    std::vector<std::thread> threads_;
};

} // namespace sov::serve
