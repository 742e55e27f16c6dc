#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "runtime/status.h"

/// \file socket.h
/// Thin RAII + Status wrappers over POSIX TCP sockets, shared by the server
/// (src/net/server.cc), the client library (src/net/client.cc) and the
/// protocol test battery. Nothing here knows about frames beyond
/// SendFrame/RecvFrame, which layer the 5-byte header of protocol.h over
/// ReadFull/WriteFull.

namespace saber::net {

/// Owning file-descriptor wrapper. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Releases ownership (caller closes).
  int Release();
  void Close();
  /// shutdown(SHUT_RDWR): wakes a thread blocked in recv on this socket
  /// without racing the fd close (the blocked reader owns the close).
  void ShutdownBoth();

 private:
  int fd_ = -1;
};

/// Connects to host:port (numeric IPv4 or a resolvable name).
/// `connect_timeout_ms > 0` bounds the TCP connect itself (non-blocking
/// connect + poll): a peer that is unreachable or not accepting fails with
/// Unavailable after the timeout instead of hanging for the OS default
/// (minutes). 0 keeps the historical blocking connect.
Result<Socket> Dial(const std::string& host, int port,
                    int connect_timeout_ms = 0);

/// Binds + listens on `bind_addr:port` (port 0 picks an ephemeral port;
/// read it back with LocalPort). SO_REUSEADDR is set.
Result<Socket> ListenOn(const std::string& bind_addr, int port, int backlog);

/// The locally bound port of a listening or connected socket.
Result<int> LocalPort(int fd);

/// Sets SO_RCVTIMEO. A blocked ReadFull then fails with Unavailable instead
/// of hanging forever — the slow-loris guard of the data plane.
Status SetRecvTimeout(int fd, int millis);

/// Disables Nagle (small control frames should not wait for ACKs).
Status SetNoDelay(int fd);

/// Reads exactly `len` bytes. Distinguishes the clean close (EOF before the
/// first byte → NotFound "connection closed") from a mid-message close
/// (IOError) and a receive timeout (Unavailable), so callers can tell an
/// orderly disconnect from a protocol violation.
Status ReadFull(int fd, void* buf, size_t len);

/// Writes exactly `len` bytes (MSG_NOSIGNAL — a dead peer surfaces as
/// IOError, never SIGPIPE). While a write would block, a peer that has
/// closed (FIN, hang-up or socket error) fails it with IOError at once
/// instead of leaving it blocked against a zero window.
Status WriteFull(int fd, const void* buf, size_t len);

/// One frame: header + payload in a single buffered write.
Status SendFrame(int fd, FrameType type, const void* payload, size_t len);
inline Status SendFrame(int fd, FrameType type,
                        const std::vector<uint8_t>& payload) {
  return SendFrame(fd, type, payload.data(), payload.size());
}

/// Reads one frame (header, validation against `max_payload`, payload).
/// On a framing violation the stream cannot be resynchronized; the caller
/// must close the connection.
Result<FrameHeader> RecvFrame(int fd, uint32_t max_payload,
                              std::vector<uint8_t>* payload);

}  // namespace saber::net
