#include "srv/net.hh"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace mcd::srv
{

namespace
{

using Clock = std::chrono::steady_clock;

NetError
errnoError(const char *what)
{
    return NetError(std::string(what) + ": " +
                    std::strerror(errno));
}

} // namespace

int
remainingMs(Clock::time_point deadline)
{
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now())
                    .count();
    return left < 0 ? 0 : static_cast<int>(left);
}

Conn::~Conn() { close(); }

Conn::Conn(Conn &&other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_))
{
    other.fd_ = -1;
}

Conn &
Conn::operator=(Conn &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        buf_ = std::move(other.buf_);
        other.fd_ = -1;
    }
    return *this;
}

Conn::ReadStatus
Conn::readLine(std::string &line, int timeout_ms, std::size_t max_len)
{
    if (fd_ < 0)
        return ReadStatus::Error;
    Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    for (;;) {
        std::size_t nl = buf_.find('\n');
        if (nl != std::string::npos) {
            if (nl > max_len)
                return ReadStatus::Overflow;
            line.assign(buf_, 0, nl);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            buf_.erase(0, nl + 1);
            return ReadStatus::Line;
        }
        if (buf_.size() > max_len)
            return ReadStatus::Overflow;
        int left = remainingMs(deadline);
        if (left == 0)
            return ReadStatus::Timeout;
        struct pollfd pfd = {fd_, POLLIN, 0};
        int pr = ::poll(&pfd, 1, left);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return ReadStatus::Error;
        }
        if (pr == 0)
            return ReadStatus::Timeout;
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n == 0)
            return ReadStatus::Eof;
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return ReadStatus::Error;
        }
        buf_.append(chunk, static_cast<std::size_t>(n));
    }
}

bool
Conn::writeAll(const std::string &text)
{
    if (fd_ < 0)
        return false;
    std::size_t off = 0;
    while (off < text.size()) {
        ssize_t n = ::send(fd_, text.data() + off, text.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

bool
Conn::writeLine(const std::string &line)
{
    return writeAll(line + '\n');
}

void
Conn::shutdownWrite()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_WR);
}

void
Conn::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    buf_.clear();
}

Conn
connectUnix(const std::string &path)
{
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw NetError("unix socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw errnoError("socket");
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw errnoError(("connect " + path).c_str());
    }
    return Conn(fd);
}

Conn
connectTcp(std::uint16_t port)
{
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw errnoError("socket");
    if (::connect(fd, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof(addr)) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw errnoError("connect 127.0.0.1");
    }
    // The protocol is a small-frame request/response ping-pong;
    // without this, Nagle + delayed ACK cost ~40ms per exchange.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Conn(fd);
}

Listener::~Listener() { close(); }

Listener::Listener(Listener &&other) noexcept
    : fd_(other.fd_), port_(other.port_),
      path_(std::move(other.path_))
{
    other.fd_ = -1;
    other.path_.clear();
}

Listener &
Listener::operator=(Listener &&other) noexcept
{
    if (this != &other) {
        close();
        fd_ = other.fd_;
        port_ = other.port_;
        path_ = std::move(other.path_);
        other.fd_ = -1;
        other.path_.clear();
    }
    return *this;
}

Listener
Listener::unixSocket(const std::string &path)
{
    struct sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        throw NetError("unix socket path too long: " + path);
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw errnoError("socket");
    ::unlink(path.c_str());  // a stale socket file from a dead server
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw errnoError(("bind/listen " + path).c_str());
    }
    Listener l;
    l.fd_ = fd;
    l.path_ = path;
    return l;
}

Listener
Listener::tcp(std::uint16_t port)
{
    struct sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw errnoError("socket");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw errnoError("bind/listen tcp");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<struct sockaddr *>(&addr),
                      &len) < 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        throw errnoError("getsockname");
    }
    Listener l;
    l.fd_ = fd;
    l.port_ = ntohs(addr.sin_port);
    return l;
}

Conn
Listener::accept(int timeout_ms)
{
    if (fd_ < 0)
        throw NetError("accept on a closed listener");
    struct pollfd pfd = {fd_, POLLIN, 0};
    int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr <= 0)
        return Conn();
    int cfd = ::accept(fd_, nullptr, nullptr);
    if (cfd < 0)
        return Conn();
    // No-op (EOPNOTSUPP) on Unix sockets; see connectTcp().
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return Conn(cfd);
}

void
Listener::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    if (!path_.empty()) {
        ::unlink(path_.c_str());
        path_.clear();
    }
}

} // namespace mcd::srv
