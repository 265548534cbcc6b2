#include "serve/socket_server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/logging.h"
#include "serve/line_protocol.h"

namespace sov::serve {

namespace {

/** write() the whole buffer, ignoring SIGPIPE via MSG_NOSIGNAL. */
bool sendAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        const ssize_t n = ::send(fd, data.data() + off, data.size() - off,
                                 MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

int listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        return -1;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 16) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

int listenTcp(int port, int &bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0 ||
        ::listen(fd, 16) != 0) {
        ::close(fd);
        return -1;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) != 0) {
        ::close(fd);
        return -1;
    }
    bound_port = ntohs(addr.sin_port);
    return fd;
}

} // namespace

SocketServer::SocketServer(ScenarioService &service, ScenarioCatalog catalog,
                           SocketServerConfig config)
    : service_(service), catalog_(std::move(catalog)),
      config_(std::move(config))
{
}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start()
{
    SOV_ASSERT(!started_);
    if (!config_.unix_path.empty()) {
        unix_fd_ = listenUnix(config_.unix_path);
        if (unix_fd_ < 0)
            return false;
    }
    if (config_.tcp_port >= 0) {
        tcp_fd_ = listenTcp(config_.tcp_port, tcp_port_);
        if (tcp_fd_ < 0) {
            stop();
            return false;
        }
    }
    started_ = true;
    std::lock_guard<std::mutex> lock(mutex_);
    if (unix_fd_ >= 0)
        threads_.emplace_back([this] { acceptLoop(unix_fd_); });
    if (tcp_fd_ >= 0)
        threads_.emplace_back([this] { acceptLoop(tcp_fd_); });
    return true;
}

void SocketServer::stop()
{
    if (stopping_.exchange(true)) {
        // Second caller (destructor after explicit stop()): nothing to
        // close, but threads_ may still need joining below.
    }
    if (unix_fd_ >= 0) {
        ::shutdown(unix_fd_, SHUT_RDWR);
        ::close(unix_fd_);
        unix_fd_ = -1;
    }
    if (tcp_fd_ >= 0) {
        ::shutdown(tcp_fd_, SHUT_RDWR);
        ::close(tcp_fd_);
        tcp_fd_ = -1;
    }
    std::vector<std::thread> threads;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[id, fd] : conn_fds_)
            ::shutdown(fd, SHUT_RDWR); // unblocks the connection reads
        threads.swap(threads_);
    }
    for (std::thread &t : threads)
        t.join();
    if (!config_.unix_path.empty())
        ::unlink(config_.unix_path.c_str());
}

void SocketServer::acceptLoop(int listen_fd)
{
    while (!stopping_.load()) {
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // listener closed by stop()
        }
        std::lock_guard<std::mutex> lock(mutex_);
        // Re-check under the lock: once stop() swapped the thread list
        // a late registration would never be joined or shut down.
        if (stopping_.load()) {
            ::close(fd);
            return;
        }
        const int id = registerConnection(fd);
        threads_.emplace_back([this, fd, id] {
            connectionLoop(fd);
            ::close(fd);
            std::lock_guard<std::mutex> lock2(mutex_);
            conn_fds_.erase(id);
        });
    }
}

int SocketServer::registerConnection(int fd)
{
    static_cast<void>(this);
    const int id = fd; // fds are unique while the connection is open
    conn_fds_[id] = fd;
    return id;
}

void SocketServer::connectionLoop(int fd)
{
    std::string buffer;
    char chunk[4096];
    while (!stopping_.load()) {
        const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return; // peer closed or stop() shut the fd down
        }
        buffer.append(chunk, static_cast<std::size_t>(n));
        std::size_t newline;
        while ((newline = buffer.find('\n')) != std::string::npos) {
            std::string line = buffer.substr(0, newline);
            buffer.erase(0, newline + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            std::vector<std::string> responses;
            const bool keep = handleLine(line, responses);
            std::string out;
            for (const std::string &r : responses) {
                out += r;
                out += '\n';
            }
            if (!sendAll(fd, out) || !keep)
                return;
        }
        // What is left has no newline yet. Past the bound, stop
        // buffering it: answer once and hang up.
        if (buffer.size() > kMaxLineBytes) {
            sendAll(fd, "ERR line_too_long max_bytes=" +
                            std::to_string(kMaxLineBytes) + "\n");
            return;
        }
    }
}

bool SocketServer::handleLine(const std::string &line,
                              std::vector<std::string> &out)
{
    const Request request = parseRequest(line);
    switch (request.verb) {
    case Verb::Invalid:
        out.push_back("ERR bad_request " + request.error);
        return true;
    case Verb::Ping:
        out.push_back("OK pong");
        return true;
    case Verb::Quit:
        out.push_back("OK bye");
        return false;
    case Verb::Catalog: {
        for (const auto &[name, description] : catalog_.entries())
            out.push_back("SET " + name + " " + description);
        out.push_back("OK sets=" + std::to_string(catalog_.entries().size()));
        return true;
    }
    case Verb::Stats: {
        const obs::MetricRegistry metrics = service_.metricsSnapshot();
        std::ostringstream line_out;
        line_out << "OK submitted=" << metrics.counter("serve.jobs_submitted")
                 << " admitted=" << metrics.counter("serve.jobs_admitted")
                 << " rejected=" << metrics.counter("serve.jobs_rejected")
                 << " completed=" << metrics.counter("serve.jobs_completed")
                 << " cancelled=" << metrics.counter("serve.jobs_cancelled")
                 << " timed_out=" << metrics.counter("serve.jobs_timed_out")
                 << " cache_hits=" << metrics.counter("serve.cache.hits")
                 << " cache_misses=" << metrics.counter("serve.cache.misses");
        out.push_back(line_out.str());
        return true;
    }
    case Verb::Submit: {
        CatalogParams params;
        params.seed = request.seed.value_or(params.seed);
        params.seeds =
            static_cast<std::size_t>(request.seeds.value_or(params.seeds));
        params.horizon_s = request.horizon_s.value_or(params.horizon_s);
        auto scenarios = catalog_.build(request.set, params);
        if (!scenarios) {
            out.push_back("ERR unknown_set " + request.set);
            return true;
        }
        const std::size_t n_scenarios = scenarios->size();
        JobRequest job;
        job.tenant = request.tenant;
        job.scenarios = std::move(*scenarios);
        job.label = request.label.value_or("");
        job.deadline_s = request.deadline_s;
        const SubmitResult result = service_.submit(std::move(job));
        if (!result.admitted) {
            out.push_back("ERR " + result.reason + " tenant=" +
                          request.tenant);
            return true;
        }
        out.push_back("OK job=" + std::to_string(result.id) +
                      " scenarios=" + std::to_string(n_scenarios));
        return true;
    }
    case Verb::Status: {
        const auto snapshot = service_.status(request.job);
        if (!snapshot) {
            out.push_back("ERR unknown_job " + std::to_string(request.job));
            return true;
        }
        out.push_back("OK " + formatSnapshot(*snapshot));
        return true;
    }
    case Verb::Cancel: {
        const auto snapshot = service_.status(request.job);
        if (!snapshot) {
            out.push_back("ERR unknown_job " + std::to_string(request.job));
            return true;
        }
        const bool cancelled = service_.cancel(request.job);
        out.push_back("OK cancelled=" + std::to_string(cancelled ? 1 : 0));
        return true;
    }
    case Verb::Wait: {
        const auto snapshot =
            service_.wait(request.job, request.timeout_s.value_or(-1.0));
        if (!snapshot) {
            out.push_back("ERR unknown_job " + std::to_string(request.job));
            return true;
        }
        out.push_back("OK " + formatSnapshot(*snapshot));
        return true;
    }
    case Verb::Rows: {
        const auto snapshot = service_.status(request.job);
        if (!snapshot) {
            out.push_back("ERR unknown_job " + std::to_string(request.job));
            return true;
        }
        const auto from =
            static_cast<std::size_t>(request.from.value_or(0));
        const auto rows = service_.fetchRows(request.job, from);
        for (std::size_t i = 0; i < rows.size(); ++i)
            out.push_back(formatRow(request.job, from + i, rows[i]));
        out.push_back("OK rows=" + std::to_string(rows.size()) +
                      " next=" + std::to_string(from + rows.size()));
        return true;
    }
    }
    out.push_back("ERR bad_request unhandled verb");
    return true;
}

} // namespace sov::serve
