// Socket transport for the fp8qd service (docs/SERVICE.md).
//
// Everything POSIX lives behind this header: RAII file descriptors,
// Unix-domain / loopback-TCP listeners, a framed connection, a self-pipe
// for waking the poll loop from another thread, and a thin poll(2)
// wrapper. net_posix.cpp is the single translation unit in src/ that is
// allowed to call the raw socket syscalls (accept/read/write/recv/send);
// the `raw-socket-io` rule of tools/fp8q_lint.cpp enforces that every
// other file goes through this API, so EINTR handling, partial-write
// loops and frame-size limits are audited in one place.
//
// Framing: every message in either direction is one frame,
//
//   <decimal payload length> '\n' <payload bytes>
//
// e.g. "17\n{\"cmd\":\"status\"}" + one JSON document as the payload.
// The length prefix makes message boundaries explicit without escaping
// rules, keeps the wire format printf/netcat-debuggable, and lets the
// reader reject oversized frames (kMaxFrameBytes) before buffering them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace fp8q::service {

/// Hard cap on one frame's payload. Large enough for any report JSON
/// (full 75-workload sweeps serialize well under 1 MB), small enough that
/// a malicious or corrupt length prefix cannot make the server buffer
/// unbounded memory.
inline constexpr std::size_t kMaxFrameBytes = 16u << 20;  // 16 MiB

/// Owning file descriptor. Move-only; closes on destruction.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();

  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// One framed byte stream. Client side uses the blocking calls
/// (send_frame / recv_frame); the server's poll loop uses the
/// non-blocking pair (fill_from_socket / next_buffered_frame) so one slow
/// connection never stalls the others.
class Connection {
 public:
  Connection() = default;
  explicit Connection(Fd fd) : fd_(std::move(fd)) {}

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }

  /// Writes one complete frame (blocking; loops over partial writes).
  /// Throws std::runtime_error on EPIPE/reset or oversized payload.
  void send_frame(std::string_view payload);

  /// Blocks until one complete frame arrives. Returns std::nullopt on
  /// clean EOF at a frame boundary; throws on malformed framing,
  /// oversized frames, or mid-frame EOF.
  [[nodiscard]] std::optional<std::string> recv_frame();

  /// Non-blocking read into the internal buffer. Returns false when the
  /// peer closed (or errored); true while the connection is live, even if
  /// no bytes were available. Throws on malformed framing.
  [[nodiscard]] bool fill_from_socket();

  /// Pops the next complete frame out of the internal buffer, if one has
  /// fully arrived. Throws on malformed framing (bad length prefix).
  [[nodiscard]] std::optional<std::string> next_buffered_frame();

 private:
  Fd fd_;
  std::string inbuf_;
};

/// A listening socket. Unix-domain sockets unlink their path on
/// destruction; TCP listeners bind to 127.0.0.1 only (the service speaks
/// an unauthenticated protocol, see docs/SERVICE.md).
class Listener {
 public:
  Listener() = default;
  ~Listener();

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// Bound TCP port (valid after listen_tcp; useful with port 0).
  [[nodiscard]] int tcp_port() const { return tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const { return unix_path_; }

  /// Accepts one pending connection; std::nullopt when none is pending
  /// (the listener is non-blocking).
  [[nodiscard]] std::optional<Connection> accept_connection();

  friend Listener listen_unix(const std::string& path);
  friend Listener listen_tcp_loopback(int port);

 private:
  Fd fd_;
  std::string unix_path_;  ///< unlinked on destruction when non-empty
  int tcp_port_ = -1;
};

/// Binds + listens on a Unix-domain socket at `path` (an existing socket
/// file at that path is replaced). Throws std::runtime_error on failure.
[[nodiscard]] Listener listen_unix(const std::string& path);

/// Binds + listens on 127.0.0.1:`port` (0 picks an ephemeral port, read
/// it back with tcp_port()). Throws std::runtime_error on failure, and
/// before binding anything when `port` is outside [0, 65535].
[[nodiscard]] Listener listen_tcp_loopback(int port);

/// Client connect calls. Throw std::runtime_error on failure.
[[nodiscard]] Connection connect_unix(const std::string& path);
[[nodiscard]] Connection connect_tcp_loopback(int port);

/// Self-pipe for waking the server's poll loop from the executor thread
/// or a signal handler. signal() is async-signal-safe (one write(2) of
/// one byte, EAGAIN ignored -- a full pipe already guarantees a wakeup).
class WakePipe {
 public:
  WakePipe();  ///< throws std::runtime_error on pipe() failure

  [[nodiscard]] int read_fd() const { return read_end_.get(); }
  void signal() const noexcept;
  /// Consumes every pending wake byte (call when read_fd polls readable).
  void drain() const;

 private:
  Fd read_end_;
  Fd write_end_;
};

/// One poll(2) entry: fd in, readable out.
struct PollFd {
  int fd = -1;
  bool readable = false;
};

/// Waits until at least one fd is readable or `timeout_ms` elapses
/// (negative = wait forever). Returns the number of readable fds; retries
/// EINTR internally.
int poll_readable(std::vector<PollFd>& fds, int timeout_ms);

}  // namespace fp8q::service
