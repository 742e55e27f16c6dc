#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "runtime/strcat.h"

namespace saber::net {

namespace {

std::string Errno(const char* what) {
  return StrCat(what, ": ", std::strerror(errno), " (errno ", errno, ")");
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    Close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

int Socket::Release() {
  const int fd = fd_;
  fd_ = -1;
  return fd;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

namespace {

/// Bounded connect: non-blocking connect + poll(POLLOUT), then SO_ERROR to
/// recover the real connect(2) verdict. Restores blocking mode on success.
Status ConnectWithTimeout(int fd, const sockaddr* addr, socklen_t addrlen,
                          int timeout_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(Errno("fcntl(O_NONBLOCK)"));
  }
  if (::connect(fd, addr, addrlen) != 0) {
    if (errno != EINPROGRESS) return Status::Unavailable(Errno("connect"));
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr == 0) {
      return Status::Unavailable(
          StrCat("connect timed out after ", timeout_ms, " ms"));
    }
    if (pr < 0) return Status::IOError(Errno("poll"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
      return Status::IOError(Errno("getsockopt(SO_ERROR)"));
    }
    if (err != 0) {
      errno = err;
      return Status::Unavailable(Errno("connect"));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::IOError(Errno("fcntl(F_SETFL)"));
  }
  return Status::OK();
}

}  // namespace

Result<Socket> Dial(const std::string& host, int port,
                    int connect_timeout_ms) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = StrCat(port);
  const int rc = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (rc != 0) {
    return Status::Unavailable(
        StrCat("resolve '", host, "': ", gai_strerror(rc)));
  }
  Status last = Status::Unavailable(StrCat("no address for '", host, "'"));
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Socket s(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!s.valid()) {
      last = Status::IOError(Errno("socket"));
      continue;
    }
    if (connect_timeout_ms > 0) {
      const Status ts = ConnectWithTimeout(s.fd(), ai->ai_addr, ai->ai_addrlen,
                                           connect_timeout_ms);
      if (ts.ok()) {
        ::freeaddrinfo(res);
        return s;
      }
      last = ts;
      continue;
    }
    if (::connect(s.fd(), ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return s;
    }
    last = Status::Unavailable(Errno("connect"));
  }
  ::freeaddrinfo(res);
  return last;
}

Result<Socket> ListenOn(const std::string& bind_addr, int port, int backlog) {
  Socket s(::socket(AF_INET, SOCK_STREAM, 0));
  if (!s.valid()) return Status::IOError(Errno("socket"));
  const int one = 1;
  ::setsockopt(s.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrCat("bind address '", bind_addr, "' is not a numeric IPv4 address"));
  }
  if (::bind(s.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::IOError(Errno("bind"));
  }
  if (::listen(s.fd(), backlog) != 0) {
    return Status::IOError(Errno("listen"));
  }
  return s;
}

Result<int> LocalPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::IOError(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Status SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  if (::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IOError(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

Status SetNoDelay(int fd) {
  const int one = 1;
  if (::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IOError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::OK();
}

Status ReadFull(int fd, void* buf, size_t len) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, p + got, len - got, 0);
    if (n > 0) {
      got += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) {
      if (got == 0) return Status::NotFound("connection closed");
      return Status::IOError(
          StrCat("connection closed mid-message (", got, " of ", len,
                 " bytes)"));
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable(
          StrCat("receive timed out (", got, " of ", len, " bytes)"));
    }
    return Status::IOError(Errno("recv"));
  }
  return Status::OK();
}

Status WriteFull(int fd, const void* buf, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n =
        ::send(fd, p + sent, len - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A blocking send would not notice the peer's FIN: against a closed
      // peer with a zero window it waits until the kernel gives up on the
      // connection, minutes later. Wait for room or for the FIN instead.
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT | POLLRDHUP;
      const int pr = ::poll(&pfd, 1, -1);
      if (pr < 0 && errno != EINTR) return Status::IOError(Errno("poll"));
      if ((pfd.revents & (POLLRDHUP | POLLHUP | POLLERR)) != 0) {
        return Status::IOError(StrCat("peer closed the connection with ",
                                      len - sent, " of ", len,
                                      " bytes unsent"));
      }
      continue;
    }
    return Status::IOError(Errno("send"));
  }
  return Status::OK();
}

Status SendFrame(int fd, FrameType type, const void* payload, size_t len) {
  SABER_CHECK(len <= kMaxFramePayload);
  // One write per frame: header + payload in a single buffer so a short
  // scheduling window never interleaves two threads' frames... the server
  // serializes writers per connection anyway, but the client library is
  // allowed to send from its caller's thread.
  std::vector<uint8_t> buf(kFrameHeaderBytes + len);
  FrameHeader h;
  h.payload_len = static_cast<uint32_t>(len);
  h.type = type;
  EncodeFrameHeader(h, buf.data());
  if (len > 0) std::memcpy(buf.data() + kFrameHeaderBytes, payload, len);
  return WriteFull(fd, buf.data(), buf.size());
}

Result<FrameHeader> RecvFrame(int fd, uint32_t max_payload,
                              std::vector<uint8_t>* payload) {
  uint8_t header[kFrameHeaderBytes];
  SABER_RETURN_NOT_OK(ReadFull(fd, header, sizeof(header)));
  auto h = DecodeFrameHeader(header, max_payload);
  if (!h.ok()) return h.status();
  payload->resize(h.value().payload_len);
  if (h.value().payload_len > 0) {
    SABER_RETURN_NOT_OK(ReadFull(fd, payload->data(), payload->size()));
  }
  return h;
}

}  // namespace saber::net
