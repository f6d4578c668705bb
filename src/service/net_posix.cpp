// POSIX implementation of the service transport (see net.h). This is the
// one translation unit in src/ permitted to use the raw socket syscalls;
// the `raw-socket-io` lint rule points everyone else here.
#include "service/net.h"

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace fp8q::service {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

void set_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFD, flags | FD_CLOEXEC);
}

/// Parses "<decimal>\n" at the front of `buf`. Returns the payload length
/// and sets `header_len`; std::nullopt when the prefix is still
/// incomplete. Throws on a malformed or oversized prefix.
std::optional<std::size_t> parse_length_prefix(const std::string& buf,
                                               std::size_t* header_len) {
  // Longest valid prefix: kMaxFrameBytes has 8 digits; allow 9 + '\n'.
  constexpr std::size_t kMaxPrefix = 10;
  std::size_t value = 0;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    const char c = buf[i];
    if (c == '\n') {
      if (i == 0) throw std::runtime_error("fp8qd frame: empty length prefix");
      if (value > kMaxFrameBytes) {
        throw std::runtime_error("fp8qd frame: payload length " + std::to_string(value) +
                                 " exceeds the " + std::to_string(kMaxFrameBytes) +
                                 "-byte frame cap");
      }
      *header_len = i + 1;
      return value;
    }
    if (c < '0' || c > '9' || i >= kMaxPrefix) {
      throw std::runtime_error("fp8qd frame: malformed length prefix");
    }
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  return std::nullopt;  // prefix not fully received yet
}

}  // namespace

// --- Fd ---------------------------------------------------------------

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset(other.fd_);
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

// --- Connection -------------------------------------------------------

void Connection::send_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("fp8qd frame: payload exceeds the frame cap");
  }
  std::string frame = std::to_string(payload.size());
  frame += '\n';
  frame += payload;
  std::size_t off = 0;
  while (off < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
    const ssize_t n =
        ::send(fd_.get(), frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("fp8qd send");
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> Connection::recv_frame() {
  for (;;) {
    if (auto frame = next_buffered_frame()) return frame;
    char chunk[4096];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("fp8qd recv");
    }
    if (n == 0) {
      if (!inbuf_.empty()) {
        throw std::runtime_error("fp8qd recv: connection closed mid-frame");
      }
      return std::nullopt;
    }
    inbuf_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool Connection::fill_from_socket() {
  for (;;) {
    char chunk[4096];
    const ssize_t n = ::recv(fd_.get(), chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;  // ECONNRESET etc.: treat like EOF
    }
    if (n == 0) return false;
    inbuf_.append(chunk, static_cast<std::size_t>(n));
    // Fast-fail oversized frames before the sender finishes streaming one.
    std::size_t header_len = 0;
    (void)parse_length_prefix(inbuf_, &header_len);
  }
}

std::optional<std::string> Connection::next_buffered_frame() {
  std::size_t header_len = 0;
  const auto payload_len = parse_length_prefix(inbuf_, &header_len);
  if (!payload_len) return std::nullopt;
  if (inbuf_.size() < header_len + *payload_len) return std::nullopt;
  std::string payload = inbuf_.substr(header_len, *payload_len);
  inbuf_.erase(0, header_len + *payload_len);
  return payload;
}

// --- Listener ---------------------------------------------------------

Listener::~Listener() {
  if (!unix_path_.empty()) (void)::unlink(unix_path_.c_str());
}

Listener::Listener(Listener&& other) noexcept
    : fd_(std::move(other.fd_)),
      unix_path_(std::move(other.unix_path_)),
      tcp_port_(other.tcp_port_) {
  other.unix_path_.clear();
  other.tcp_port_ = -1;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (!unix_path_.empty()) (void)::unlink(unix_path_.c_str());
    fd_ = std::move(other.fd_);
    unix_path_ = std::move(other.unix_path_);
    tcp_port_ = other.tcp_port_;
    other.unix_path_.clear();
    other.tcp_port_ = -1;
  }
  return *this;
}

std::optional<Connection> Listener::accept_connection() {
  for (;;) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return std::nullopt;
      throw_errno("fp8qd accept");
    }
    set_cloexec(fd);
    set_nonblocking(fd);
    return Connection(Fd(fd));
  }
}

Listener listen_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("fp8qd listen: socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("fp8qd socket(AF_UNIX)");
  set_cloexec(fd.get());
  (void)::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("fp8qd bind " + path);
  }
  if (::listen(fd.get(), 64) < 0) throw_errno("fp8qd listen " + path);
  set_nonblocking(fd.get());

  Listener l;
  l.fd_ = std::move(fd);
  l.unix_path_ = path;
  return l;
}

Listener listen_tcp_loopback(int port) {
  // htons would wrap a larger port onto another one (70000 -> 4464).
  if (port < 0 || port > 65535) {
    throw std::runtime_error("TCP port " + std::to_string(port) + " is out of range (0-65535)");
  }
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("fp8qd socket(AF_INET)");
  set_cloexec(fd.get());
  const int one = 1;
  (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("fp8qd bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd.get(), 64) < 0) throw_errno("fp8qd listen tcp");
  set_nonblocking(fd.get());

  socklen_t len = sizeof addr;
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("fp8qd getsockname");
  }

  Listener l;
  l.fd_ = std::move(fd);
  l.tcp_port_ = static_cast<int>(ntohs(addr.sin_port));
  return l;
}

Connection connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("fp8qd connect: socket path empty or too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("fp8qd socket(AF_UNIX)");
  set_cloexec(fd.get());
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("fp8qd connect " + path);
  }
  return Connection(std::move(fd));
}

Connection connect_tcp_loopback(int port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) throw_errno("fp8qd socket(AF_INET)");
  set_cloexec(fd.get());
  const int one = 1;
  (void)::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0) {
    throw_errno("fp8qd connect 127.0.0.1:" + std::to_string(port));
  }
  return Connection(std::move(fd));
}

// --- WakePipe ---------------------------------------------------------

WakePipe::WakePipe() {
  int fds[2];
  if (::pipe(fds) < 0) throw_errno("fp8qd pipe");
  read_end_.reset(fds[0]);
  write_end_.reset(fds[1]);
  set_cloexec(fds[0]);
  set_cloexec(fds[1]);
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
}

void WakePipe::signal() const noexcept {
  const char byte = 1;
  // EAGAIN means the pipe already holds unread wake bytes -- the poll loop
  // is guaranteed to wake, so dropping this byte is fine. Any other error
  // is ignored too: this runs from signal handlers.
  (void)!::write(write_end_.get(), &byte, 1);
}

void WakePipe::drain() const {
  char sink[64];
  while (::read(read_end_.get(), sink, sizeof sink) > 0) {
  }
}

// --- poll -------------------------------------------------------------

int poll_readable(std::vector<PollFd>& fds, int timeout_ms) {
  std::vector<pollfd> raw(fds.size());
  for (std::size_t i = 0; i < fds.size(); ++i) {
    raw[i] = pollfd{fds[i].fd, POLLIN, 0};
    fds[i].readable = false;
  }
  for (;;) {
    const int n = ::poll(raw.data(), raw.size(), timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("fp8qd poll");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      // HUP/ERR count as readable: the next read observes EOF/error and
      // the connection is torn down there, not here.
      fds[i].readable = (raw[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    }
    return n;
  }
}

}  // namespace fp8q::service
