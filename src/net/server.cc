#include "net/server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "fault/fault_registry.h"
#include "obs/metrics.h"
#include "runtime/clock.h"
#include "runtime/strcat.h"

namespace saber::net {

namespace {

/// Read-side scratch granularity for control connections.
constexpr size_t kReadChunk = 64 << 10;

Status SetNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::IOError("fcntl(F_GETFL) failed");
  const int want = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, want) < 0) {
    return Status::IOError("fcntl(F_SETFL) failed");
  }
  return Status::OK();
}

/// Index of the first tuple whose timestamp falls below the shard's
/// disorder horizon (ingest::HorizonOf), or −1. Advances *max_seen, which
/// starts at INT64_MIN. This is the server-side stand-in for the ingress's
/// kAbort policy: same contract, but the verdict is a kError frame +
/// connection teardown instead of a process abort a remote peer could
/// trigger at will.
int64_t FirstLateViolation(const uint8_t* tuples, size_t bytes, size_t tsz,
                           int64_t lateness, int64_t* max_seen) {
  const size_t n = bytes / tsz;
  for (size_t i = 0; i < n; ++i) {
    int64_t ts;
    std::memcpy(&ts, tuples + i * tsz, sizeof(ts));
    if (ts < ingest::HorizonOf(*max_seen, lateness)) {
      return static_cast<int64_t>(i);
    }
    *max_seen = std::max(*max_seen, ts);
  }
  return -1;
}

/// SplitMix64 finalizer over the token counter: resume tokens are
/// distinctive in logs and across server restarts within a test, without a
/// dependency on a randomness source. Never returns 0 (0 marks a fresh
/// hello on the wire).
uint64_t MixToken(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x != 0 ? x : 1;
}

}  // namespace

/// Monotone server counters. Registered as saber_net_* on the engine's
/// metrics registry by the constructor (stats() and a /metrics scrape read
/// the same storage); the destructor unregisters before this struct dies.
struct SaberServer::Counters {
  obs::Counter connections_accepted;
  obs::Counter control_connections;
  obs::Counter data_connections;
  obs::Counter protocol_errors;
  obs::Counter queries_submitted;
  obs::Counter queries_removed;
  obs::Counter tuple_frames;
  obs::Counter tuple_bytes;
  obs::Counter result_batches;
  obs::Counter subscriber_overflows;
  obs::Counter timeouts;
  obs::Counter shards_parked;
  obs::Counter producer_reconnects;
  obs::Counter grace_expiries;
  /// Watchdog trips of ingresses already torn down (live ones are summed
  /// from their ShardedIngress at stats() time; on the /metrics side each
  /// live ingress exposes its own saber_watchdog_trips_total series).
  obs::Counter watchdog_trips_retired;
};

/// One control-plane (or not-yet-classified) connection. The epoll thread
/// owns everything except the write side (wmu/outbox/outbox_bytes/dead),
/// which engine workers reach through the result-stage fan-out.
struct SaberServer::Conn {
  Socket sock;
  std::vector<uint8_t> rbuf;
  bool hello_done = false;
  int64_t last_activity_nanos = 0;
  uint32_t subscribed_query = 0;  ///< 0 = not subscribed
  bool epollout_armed = false;

  std::mutex wmu;
  std::deque<std::vector<uint8_t>> outbox;  ///< encoded frames
  size_t outbox_bytes = 0;
  size_t front_off = 0;  ///< bytes of outbox.front() already written
  std::atomic<bool> dead{false};
};

/// The sharded ingress in front of one input of one query. Created by the
/// first data hello for that input; later hellos must match its shape.
struct SaberServer::InputFront {
  std::unique_ptr<ingest::ShardedIngress> ingress;
  uint16_t num_producers = 0;
  int64_t allowed_lateness = 0;
  uint8_t wire_policy = 0;  ///< LatePolicy as negotiated on the wire

  /// Bind/park/resume state of one producer shard. Guarded by `mu` except
  /// acked_bytes, which the reader thread bumps once per appended frame and
  /// the handshake reads to tell a resuming client where to replay from.
  struct ShardSlot {
    uint64_t token = 0;        ///< resume token, issued at the first bind
    bool bound = false;        ///< a live DataConn owns the shard
    bool parked = false;       ///< disconnected; awaiting a resume
    bool closed = false;       ///< terminal (kDataEnd, violation, expiry)
    int64_t park_deadline_nanos = 0;
    /// Strict-policy (kAbort semantics) lateness horizon; persisted across
    /// parks so a resumed stream is validated as one contiguous stream.
    int64_t max_seen = INT64_MIN;
    std::atomic<int64_t> acked_bytes{0};
  };
  std::mutex mu;
  std::vector<std::unique_ptr<ShardSlot>> slots;
};

/// One data-plane connection: a socket bound 1:1 to a ProducerHandle shard,
/// drained by its own blocking reader thread. Grace-expiry reapers reuse
/// the struct with no socket: just a thread running the blocking Close.
struct SaberServer::DataConn {
  Socket sock;
  std::thread thread;
  ingest::ProducerHandle* producer = nullptr;
  SaberServer::InputFront* front = nullptr;
  SaberServer::InputFront::ShardSlot* slot = nullptr;
  uint16_t input = 0;
  uint16_t producer_index = 0;
  size_t tuple_size = 0;
  /// kAbort wire policy: the reader enforces the lateness horizon itself.
  bool strict = false;
  int64_t allowed_lateness = 0;
  int64_t max_seen = INT64_MIN;
  std::vector<uint8_t> carry;  ///< bytes pipelined behind the hello frame
  /// Set by the thread on exit; lets StartDataConn opportunistically join
  /// retired readers so a reconnect-heavy stream does not accumulate them.
  std::atomic<bool> done{false};
};

struct SaberServer::QueryEntry {
  uint32_t id = 0;
  QueryHandle* handle = nullptr;
  sql::IngressSpec spec;  ///< lateness defaults from the SQL statement
  size_t output_tuple_size = 0;

  std::unique_ptr<InputFront> fronts[2];

  std::mutex conns_mu;  ///< guards data_conns (spawn vs reap)
  std::vector<std::unique_ptr<DataConn>> data_conns;

  std::mutex subs_mu;  ///< guards subscribers (sink fan-out vs subscribe)
  std::vector<std::weak_ptr<Conn>> subscribers;
};

SaberServer::SaberServer(Engine* engine, sql::Catalog catalog,
                         ServerOptions options)
    : engine_(engine),
      catalog_(std::move(catalog)),
      options_(std::move(options)),
      counters_(new Counters) {
  SABER_CHECK(engine_ != nullptr);
  SABER_CHECK(options_.max_frame_bytes <= kMaxFramePayload);
  obs::MetricsRegistry* reg = engine_->metrics();
  const auto c = [&](std::string_view name, const obs::Counter* ptr,
                     std::string_view help) {
    reg->RegisterCounter(name, {}, ptr, this, help);
  };
  c("saber_net_connections_accepted_total", &counters_->connections_accepted,
    "TCP connections accepted by the front end");
  c("saber_net_control_connections_total", &counters_->control_connections,
    "Connections that completed the control-plane hello");
  c("saber_net_data_connections_total", &counters_->data_connections,
    "Connections bound to a producer shard (data-plane hellos)");
  c("saber_net_protocol_errors_total", &counters_->protocol_errors,
    "Malformed frames / handshake violations (connection dropped)");
  c("saber_net_queries_submitted_total", &counters_->queries_submitted,
    "Queries accepted over the wire (SQL or spec submissions)");
  c("saber_net_queries_removed_total", &counters_->queries_removed,
    "Queries removed over the wire or at shutdown");
  c("saber_net_tuple_frames_total", &counters_->tuple_frames,
    "Data-plane tuple frames appended to an ingress shard");
  c("saber_net_tuple_bytes_total", &counters_->tuple_bytes,
    "Payload bytes carried by those tuple frames");
  c("saber_net_result_batches_total", &counters_->result_batches,
    "Sink batches fanned out toward subscribers");
  c("saber_net_subscriber_overflows_total", &counters_->subscriber_overflows,
    "Subscribers dropped for exceeding the outbox cap");
  c("saber_net_timeouts_total", &counters_->timeouts,
    "Idle control connections and data reads timed out");
  c("saber_net_shards_parked_total", &counters_->shards_parked,
    "Producer shards parked on disconnect (reconnect grace)");
  c("saber_net_producer_reconnects_total", &counters_->producer_reconnects,
    "Parked shards reclaimed by a resume-token reconnect");
  c("saber_net_grace_expiries_total", &counters_->grace_expiries,
    "Parked shards whose grace window expired (clean close)");
  c("saber_net_watchdog_trips_retired_total",
    &counters_->watchdog_trips_retired,
    "Watchdog trips of ingresses already torn down");
}

SaberServer::~SaberServer() {
  Stop();
  engine_->metrics()->Unregister(this);
}

Status SaberServer::Start() {
  SABER_CHECK(!started_.exchange(true));
  auto listener =
      ListenOn(options_.bind_addr, options_.port, options_.listen_backlog);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener).value();
  auto port = LocalPort(listener_.fd());
  if (!port.ok()) return port.status();
  port_ = port.value();
  SABER_RETURN_NOT_OK(SetNonBlocking(listener_.fd(), true));

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) return Status::IOError("eventfd failed");

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  loop_ = std::thread([this] { EventLoop(); });
  if (options_.reconnect_grace_ms > 0) {
    park_sweeper_ = std::thread([this] { ParkSweeperLoop(); });
  }
  return Status::OK();
}

void SaberServer::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  stop_.store(true);
  // Wake the data plane first: the event loop may be blocked inside a
  // Remove/Drain command waiting on reader threads or staged delivery.
  // Revoke makes every parked Append return false; shutdown wakes every
  // recv. Both are idempotent and safe against a concurrent removal.
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (auto& [id, e] : queries_) {
      for (auto& f : e->fronts) {
        if (f && f->ingress) f->ingress->Revoke();
      }
      std::lock_guard<std::mutex> cl(e->conns_mu);
      for (auto& dc : e->data_conns) dc->sock.ShutdownBoth();
    }
  }
  WakeLoop();
  sweep_cv_.notify_all();
  if (loop_.joinable()) loop_.join();
  // Join the sweeper before reaping: no new grace-expiry reapers may be
  // spawned once the data connections below are joined.
  if (park_sweeper_.joinable()) park_sweeper_.join();
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (auto& [id, e] : queries_) {
      ReapDataConns(*e);
      // The merger may still be blocked in a downstream InsertInto; the
      // engine is alive (or stopping, which also unblocks inserts) per the
      // stop-order contract in the file comment, so Stop returns.
      for (auto& f : e->fronts) {
        if (f && f->ingress) {
          f->ingress->Stop();
          counters_->watchdog_trips_retired.Increment(
              f->ingress->watchdog_trips());
        }
      }
    }
    queries_.clear();
  }
  conns_.clear();
  listener_.Close();
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  epoll_fd_ = wake_fd_ = -1;
}

ServerStats SaberServer::stats() const {
  ServerStats s;
  s.connections_accepted = counters_->connections_accepted.value();
  s.control_connections = counters_->control_connections.value();
  s.data_connections = counters_->data_connections.value();
  s.protocol_errors = counters_->protocol_errors.value();
  s.queries_submitted = counters_->queries_submitted.value();
  s.queries_removed = counters_->queries_removed.value();
  s.tuple_frames = counters_->tuple_frames.value();
  s.tuple_bytes = counters_->tuple_bytes.value();
  s.result_batches = counters_->result_batches.value();
  s.subscriber_overflows = counters_->subscriber_overflows.value();
  s.timeouts = counters_->timeouts.value();
  s.shards_parked = counters_->shards_parked.value();
  s.producer_reconnects = counters_->producer_reconnects.value();
  s.grace_expiries = counters_->grace_expiries.value();
  s.watermark_watchdog_trips = counters_->watchdog_trips_retired.value();
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (const auto& [id, e] : queries_) {
      for (const auto& f : e->fronts) {
        if (f && f->ingress) {
          s.watermark_watchdog_trips += f->ingress->watchdog_trips();
        }
      }
    }
  }
  return s;
}

size_t SaberServer::num_queries() const {
  std::lock_guard<std::mutex> lock(queries_mu_);
  return queries_.size();
}

void SaberServer::WakeLoop() {
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void SaberServer::EventLoop() {
  std::vector<epoll_event> events(64);
  while (!stop_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 250);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n && !stop_.load(); ++i) {
      const int fd = events[i].data.fd;
      if (fd == listener_.fd()) {
        AcceptNew();
        continue;
      }
      if (fd == wake_fd_) {
        uint64_t drained;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        // Sink threads filled subscriber outboxes: flush everything with
        // pending bytes, and close anything they marked dead (overflow).
        std::vector<int> to_close;
        for (auto& [cfd, c] : conns_) {
          bool pending;
          {
            std::lock_guard<std::mutex> wl(c->wmu);
            pending = !c->outbox.empty();
          }
          if (c->dead.load() || (pending && !FlushConn(*c))) {
            to_close.push_back(cfd);
          }
        }
        for (int cfd : to_close) CloseConn(cfd);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> c = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0 && !FlushConn(*c)) {
        CloseConn(fd);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0) HandleReadable(c);
    }
    if (!stop_.load()) SweepIdle(NowNanos());
  }
}

void SaberServer::ParkSweeperLoop() {
  // Own thread, own cadence: a Drain/Remove command blocking the event
  // loop may itself be waiting for a grace window to expire, so expiry
  // must never depend on the loop making progress.
  std::unique_lock<std::mutex> lock(sweep_mu_);
  while (!stop_.load()) {
    sweep_cv_.wait_for(lock, std::chrono::milliseconds(50));
    if (stop_.load()) break;
    SweepParkedShards(NowNanos());
  }
}

void SaberServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or a transient error: try again on epoll
    counters_->connections_accepted.Increment();
    if (!SetNonBlocking(fd, true).ok()) {
      ::close(fd);
      continue;
    }
    (void)SetNoDelay(fd);
    auto c = std::make_shared<Conn>();
    c->sock = Socket(fd);
    c->last_activity_nanos = NowNanos();
    conns_[fd] = std::move(c);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void SaberServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  it->second->dead.store(true);  // sinks stop enqueueing
  conns_.erase(it);              // Socket destructor closes the fd
}

void SaberServer::SweepIdle(int64_t now_nanos) {
  if (options_.idle_timeout_ms <= 0) return;
  const int64_t budget =
      static_cast<int64_t>(options_.idle_timeout_ms) * 1'000'000;
  std::vector<int> expired;
  for (auto& [fd, c] : conns_) {
    if (c->dead.load()) {
      expired.push_back(fd);
      continue;
    }
    // The guard applies while a connection owes us bytes: an unfinished
    // handshake or a partially received frame (the slow-loris shapes). An
    // idle-but-quiescent control connection may live indefinitely.
    const bool owes = !c->hello_done || !c->rbuf.empty();
    if (owes && now_nanos - c->last_activity_nanos > budget) {
      counters_->timeouts.Increment();
      expired.push_back(fd);
    }
  }
  for (int fd : expired) CloseConn(fd);
}

void SaberServer::SweepParkedShards(int64_t now_nanos) {
  if (options_.reconnect_grace_ms <= 0) return;
  // Phase 1 under the locks: flip expired slots to closed (a racing resume
  // hello now gets a clean kError instead of a vanished shard).
  std::vector<std::pair<std::shared_ptr<QueryEntry>, ingest::ProducerHandle*>>
      expired;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    for (auto& [id, e] : queries_) {
      for (auto& f : e->fronts) {
        if (!f || !f->ingress) continue;
        std::lock_guard<std::mutex> sl(f->mu);
        for (size_t i = 0; i < f->slots.size(); ++i) {
          InputFront::ShardSlot* slot = f->slots[i].get();
          if (!slot->parked || now_nanos < slot->park_deadline_nanos) {
            continue;
          }
          slot->parked = false;
          slot->closed = true;
          counters_->grace_expiries.Increment();
          expired.emplace_back(e, f->ingress->producer(static_cast<int>(i)));
        }
      }
    }
  }
  // Phase 2 off the event loop: Close flushes the shard's reorder tail and
  // can block on staging back-pressure, so it runs on a reaper thread
  // joined with the data-plane readers (ReapDataConns / the opportunistic
  // join in StartDataConn).
  for (auto& [e, p] : expired) {
    auto dc = std::make_unique<DataConn>();
    dc->producer = p;
    DataConn* raw = dc.get();
    {
      std::lock_guard<std::mutex> cl(e->conns_mu);
      e->data_conns.push_back(std::move(dc));
    }
    raw->thread = std::thread([raw] {
      raw->producer->Close();
      raw->done.store(true, std::memory_order_release);
    });
  }
}

void SaberServer::HandleReadable(const std::shared_ptr<Conn>& c) {
  uint8_t buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(c->sock.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      c->rbuf.insert(c->rbuf.end(), buf, buf + n);
      c->last_activity_nanos = NowNanos();
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n == 0) {  // orderly EOF
      CloseConn(c->sock.fd());
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(c->sock.fd());
    return;
  }
  if (!DrainReadBuffer(c)) CloseConn(c->sock.fd());
}

bool SaberServer::DrainReadBuffer(const std::shared_ptr<Conn>& c) {
  size_t off = 0;
  bool keep = true;
  while (keep && c->rbuf.size() - off >= kFrameHeaderBytes) {
    auto header =
        DecodeFrameHeader(c->rbuf.data() + off, options_.max_frame_bytes);
    if (!header.ok()) {
      // Framing is unrecoverable: report and tear down.
      counters_->protocol_errors.Increment();
      EnqueueError(*c, header.status());
      (void)FlushConn(*c);
      return false;
    }
    const size_t frame = kFrameHeaderBytes + header.value().payload_len;
    if (c->rbuf.size() - off < frame) break;  // partial frame: wait for more
    const FrameType type = header.value().type;
    const uint8_t* payload = c->rbuf.data() + off + kFrameHeaderBytes;
    const size_t len = header.value().payload_len;
    off += frame;
    if (type == FrameType::kHelloData) {
      // Validate and hand the socket (plus any pipelined bytes) to a
      // dedicated reader thread; this Conn object retires either way.
      auto hello = DecodeDataHello(payload, len);
      if (!hello.ok()) {
        counters_->protocol_errors.Increment();
        EnqueueError(*c, hello.status());
        (void)FlushConn(*c);
        return false;
      }
      std::vector<uint8_t> carry(c->rbuf.begin() + static_cast<ptrdiff_t>(off),
                                 c->rbuf.end());
      c->rbuf.clear();
      const Status s = StartDataConn(c, hello.value(), std::move(carry));
      if (!s.ok()) {
        counters_->protocol_errors.Increment();
        EnqueueError(*c, s);
        (void)FlushConn(*c);
      }
      return false;  // either way the epoll loop no longer owns this conn
    }
    keep = ProcessFrame(c, type, payload, len);
  }
  if (off > 0) {
    c->rbuf.erase(c->rbuf.begin(), c->rbuf.begin() + static_cast<ptrdiff_t>(off));
  }
  return keep;
}

bool SaberServer::ProcessFrame(const std::shared_ptr<Conn>& c, FrameType type,
                               const uint8_t* payload, size_t len) {
  if (!c->hello_done) {
    if (type != FrameType::kHelloControl) {
      counters_->protocol_errors.Increment();
      EnqueueError(*c, Status::InvalidArgument(
                           StrCat("expected a hello frame, got ",
                                  FrameTypeName(type))));
      (void)FlushConn(*c);
      return false;
    }
    WireReader r(payload, len);
    uint32_t version = 0;
    if (!r.ReadU32(&version) || version != kProtocolVersion) {
      counters_->protocol_errors.Increment();
      EnqueueError(*c, Status::InvalidArgument(
                           StrCat("unsupported protocol version ", version)));
      (void)FlushConn(*c);
      return false;
    }
    c->hello_done = true;
    counters_->control_connections.Increment();
    WireWriter w;
    w.U32(kProtocolVersion);
    EnqueueFrame(*c, FrameType::kHelloOk, w.buf().data(), w.buf().size());
    return FlushConn(*c);
  }

  switch (type) {
    case FrameType::kSubmit:
      HandleSubmit(c, payload, len);
      return FlushConn(*c);
    case FrameType::kRemove:
    case FrameType::kDrain:
    case FrameType::kSubscribe: {
      WireReader r(payload, len);
      uint32_t id = 0;
      if (!r.ReadU32(&id)) {
        counters_->protocol_errors.Increment();
        EnqueueError(*c, Status::InvalidArgument(
                             StrCat("truncated ", FrameTypeName(type),
                                    " payload")));
        (void)FlushConn(*c);
        return false;
      }
      if (type == FrameType::kRemove) HandleRemove(c, id);
      if (type == FrameType::kDrain) HandleDrain(c, id);
      if (type == FrameType::kSubscribe) HandleSubscribe(c, id);
      return FlushConn(*c);
    }
    default:
      counters_->protocol_errors.Increment();
      EnqueueError(*c, Status::InvalidArgument(
                           StrCat(FrameTypeName(type),
                                  " is not a control-plane request")));
      (void)FlushConn(*c);
      return false;
  }
}

void SaberServer::HandleSubmit(const std::shared_ptr<Conn>& c,
                               const uint8_t* payload, size_t len) {
  const std::string sql_text(reinterpret_cast<const char*>(payload), len);
  uint32_t id;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    id = next_query_id_++;
  }
  auto parsed =
      sql::ParseStatement(sql_text, catalog_, StrCat("net-q", id));
  if (!parsed.ok()) {
    EnqueueError(*c, parsed.status());
    return;
  }
  auto added = engine_->TryAddQuery(parsed.value().def);
  if (!added.ok()) {
    EnqueueError(*c, added.status());
    return;
  }
  QueryHandle* handle = added.value();

  auto entry = std::make_shared<QueryEntry>();
  entry->id = id;
  entry->handle = handle;
  entry->spec = parsed.value().ingress;
  entry->output_tuple_size = handle->output_schema().tuple_size();

  // Install the fan-out sink now, before any data plane for this query can
  // exist (legal: the query has dispatched nothing yet). Batches are copied
  // into subscriber outboxes — the result stage must never block on a slow
  // peer — and a subscriber past its buffer bound is disconnected.
  const size_t out_tsz = entry->output_tuple_size;
  const size_t cap = options_.subscriber_buffer_bytes;
  const uint32_t max_frame = options_.max_frame_bytes;
  std::weak_ptr<QueryEntry> weak = entry;
  const Status sink_status = handle->SetSink(
      [this, weak, out_tsz, cap, max_frame](const uint8_t* data, size_t bytes) {
        auto e = weak.lock();
        if (!e) return;
        counters_->result_batches.Increment();
        std::lock_guard<std::mutex> sl(e->subs_mu);
        bool any = false;
        for (auto& ws : e->subscribers) {
          auto sub = ws.lock();
          if (!sub || sub->dead.load()) continue;
          // Chunk to the frame bound on row boundaries.
          const size_t max_rows_bytes = max_frame / out_tsz * out_tsz;
          std::lock_guard<std::mutex> wl(sub->wmu);
          for (size_t o = 0; o < bytes; o += max_rows_bytes) {
            const size_t n = std::min(max_rows_bytes, bytes - o);
            if (sub->outbox_bytes + n > cap) {
              counters_->subscriber_overflows.Increment();
              sub->dead.store(true);
              break;
            }
            std::vector<uint8_t> frame(kFrameHeaderBytes + n);
            FrameHeader h;
            h.payload_len = static_cast<uint32_t>(n);
            h.type = FrameType::kResultBatch;
            EncodeFrameHeader(h, frame.data());
            std::memcpy(frame.data() + kFrameHeaderBytes, data + o, n);
            sub->outbox_bytes += frame.size();
            sub->outbox.push_back(std::move(frame));
          }
          any = true;
        }
        if (any) WakeLoop();
      });
  if (!sink_status.ok()) {
    // Cannot happen for a freshly admitted query; fail closed if it does.
    (void)engine_->RemoveQuery(handle);
    EnqueueError(*c, sink_status);
    return;
  }

  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    queries_[id] = entry;
  }
  counters_->queries_submitted.Increment();

  QueryInfo info;
  info.query_id = id;
  info.num_inputs = static_cast<uint16_t>(handle->def().num_inputs);
  for (int i = 0; i < handle->def().num_inputs; ++i) {
    info.input_tuple_size[i] =
        static_cast<uint32_t>(handle->def().input_schema[i].tuple_size());
  }
  info.output_tuple_size = static_cast<uint32_t>(entry->output_tuple_size);
  info.name = handle->def().name;
  info.output_schema = handle->output_schema().ToString();
  const std::vector<uint8_t> reply = EncodeQueryInfo(info);
  EnqueueFrame(*c, FrameType::kQueryInfo, reply.data(), reply.size());
}

Status SaberServer::RemoveEntry(const std::shared_ptr<QueryEntry>& e) {
  // Quiesce the data plane first, while the query still accepts inserts:
  // revoked shards stop appending, readers wake (revoke + socket shutdown),
  // and everything already staged merges into the live query before the
  // merger stops. Mirrors Engine::RemoveQuery's phase 1 for engine-managed
  // ingresses — these are server-owned, so the server runs the phases.
  for (auto& f : e->fronts) {
    if (f && f->ingress) f->ingress->Revoke();
  }
  {
    std::lock_guard<std::mutex> cl(e->conns_mu);
    for (auto& dc : e->data_conns) dc->sock.ShutdownBoth();
  }
  ReapDataConns(*e);
  for (auto& f : e->fronts) {
    if (f && f->ingress) {
      f->ingress->Drain();
      f->ingress->Stop();
      counters_->watchdog_trips_retired.Increment(
          f->ingress->watchdog_trips());
    }
  }
  // Flush the sub-φ remainder through the sink (subscribers see the final
  // batches), then retire the slot.
  const Status s = engine_->RemoveQuery(e->handle);
  EndSubscriptions(*e);
  return s;
}

void SaberServer::HandleRemove(const std::shared_ptr<Conn>& c,
                               uint32_t query_id) {
  std::shared_ptr<QueryEntry> e;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(query_id);
    if (it != queries_.end()) {
      e = it->second;
      queries_.erase(it);
    }
  }
  if (!e) {
    EnqueueError(*c, Status::NotFound(StrCat("no query ", query_id)));
    return;
  }
  const Status s = RemoveEntry(e);
  if (!s.ok()) {
    EnqueueError(*c, s);
    return;
  }
  counters_->queries_removed.Increment();
  EnqueueFrame(*c, FrameType::kOk, nullptr, 0);
}

void SaberServer::HandleDrain(const std::shared_ptr<Conn>& c,
                              uint32_t query_id) {
  std::shared_ptr<QueryEntry> e;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(query_id);
    if (it != queries_.end()) e = it->second;
  }
  if (!e) {
    EnqueueError(*c, Status::NotFound(StrCat("no query ", query_id)));
    return;
  }
  // Blocks until every shard is closed (clients sent kDataEnd or
  // disconnected) and every staged tuple has been merged into the engine.
  for (auto& f : e->fronts) {
    if (f && f->ingress) f->ingress->Drain();
  }
  EnqueueFrame(*c, FrameType::kOk, nullptr, 0);
}

void SaberServer::HandleSubscribe(const std::shared_ptr<Conn>& c,
                                  uint32_t query_id) {
  std::shared_ptr<QueryEntry> e;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(query_id);
    if (it != queries_.end()) e = it->second;
  }
  if (!e) {
    EnqueueError(*c, Status::NotFound(StrCat("no query ", query_id)));
    return;
  }
  if (c->subscribed_query != 0) {
    EnqueueError(*c, Status::AlreadyExists(
                         StrCat("connection already subscribed to query ",
                                c->subscribed_query)));
    return;
  }
  {
    std::lock_guard<std::mutex> sl(e->subs_mu);
    e->subscribers.push_back(c);
  }
  c->subscribed_query = query_id;
  EnqueueFrame(*c, FrameType::kOk, nullptr, 0);
}

void SaberServer::EndSubscriptions(QueryEntry& e) {
  std::lock_guard<std::mutex> sl(e.subs_mu);
  for (auto& ws : e.subscribers) {
    auto sub = ws.lock();
    if (!sub || sub->dead.load()) continue;
    {
      std::lock_guard<std::mutex> wl(sub->wmu);
      std::vector<uint8_t> frame(kFrameHeaderBytes);
      FrameHeader h;
      h.payload_len = 0;
      h.type = FrameType::kSubscribeEnd;
      EncodeFrameHeader(h, frame.data());
      sub->outbox_bytes += frame.size();
      sub->outbox.push_back(std::move(frame));
    }
    sub->subscribed_query = 0;  // runs on the epoll thread (kRemove)
  }
  e.subscribers.clear();
  WakeLoop();
}

Status SaberServer::StartDataConn(const std::shared_ptr<Conn>& c,
                                  const DataHello& hello,
                                  std::vector<uint8_t> carry) {
  if (hello.version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrCat("unsupported protocol version ", hello.version));
  }
  std::shared_ptr<QueryEntry> e;
  {
    std::lock_guard<std::mutex> lock(queries_mu_);
    auto it = queries_.find(hello.query_id);
    if (it != queries_.end()) e = it->second;
  }
  if (!e) return Status::NotFound(StrCat("no query ", hello.query_id));
  const QueryDef& def = e->handle->def();
  if (hello.input >= def.num_inputs) {
    return Status::InvalidArgument(StrCat("query ", hello.query_id, " has ",
                                          def.num_inputs, " input(s); no input ",
                                          hello.input));
  }
  const size_t tsz = def.input_schema[hello.input].tuple_size();
  if (hello.tuple_size != tsz) {
    return Status::InvalidArgument(
        StrCat("tuple size mismatch: input ", hello.input, " of query ",
               hello.query_id, " has ", tsz, "-byte tuples, hello claims ",
               hello.tuple_size));
  }
  if (hello.num_producers < 1 || hello.num_producers > 1024) {
    return Status::InvalidArgument(
        StrCat("num_producers must be in [1, 1024], got ",
               hello.num_producers));
  }
  if (hello.producer >= hello.num_producers) {
    return Status::InvalidArgument(
        StrCat("producer index ", hello.producer, " out of range for ",
               hello.num_producers, " producers"));
  }
  const int64_t lateness = hello.allowed_lateness >= 0
                               ? hello.allowed_lateness
                               : e->spec.allowed_lateness;

  // fronts[] is written here (epoll thread) and read by the grace sweeper
  // on its own thread, so creation publishes under queries_mu_ — taken
  // before front->mu, the same order the sweep uses.
  InputFront* front;
  std::unique_lock<std::mutex> fronts_lock(queries_mu_);
  front = e->fronts[hello.input].get();
  if (front == nullptr) {
    auto nf = std::make_unique<InputFront>();
    nf->num_producers = hello.num_producers;
    nf->allowed_lateness = lateness;
    nf->wire_policy = hello.late_policy;
    nf->slots.reserve(hello.num_producers);
    for (uint16_t i = 0; i < hello.num_producers; ++i) {
      nf->slots.push_back(std::make_unique<InputFront::ShardSlot>());
    }
    ingest::IngressOptions iopts = options_.ingress;
    iopts.num_producers = hello.num_producers;
    iopts.allowed_lateness = lateness;
    iopts.watchdog_label = StrCat("query ", hello.query_id, " input ",
                                  hello.input);
    // Never kAbort inside the server: a remote peer must not be able to
    // bring the process down (late tuples under kAbort semantics are
    // rejected by the reader thread with kError instead — see DataLoop).
    const auto wire = static_cast<ingest::LatePolicy>(hello.late_policy);
    iopts.late_policy = wire == ingest::LatePolicy::kAbort
                            ? ingest::LatePolicy::kDropAndCount
                            : wire;
    iopts.producer_rate_bytes_per_sec = 0.0;  // per-shard rate set below
    iopts.metrics = engine_->metrics();
    iopts.metrics_label = StrCat("q", hello.query_id, "/in", hello.input);
    nf->ingress =
        ingest::ShardedIngress::ForQuery(e->handle, hello.input, iopts);
    front = nf.get();
    e->fronts[hello.input] = std::move(nf);
  } else {
    if (hello.num_producers != front->num_producers) {
      return Status::InvalidArgument(
          StrCat("input ", hello.input, " is sharded over ",
                 front->num_producers, " producers; hello claims ",
                 hello.num_producers));
    }
    if (lateness != front->allowed_lateness ||
        hello.late_policy != front->wire_policy) {
      return Status::InvalidArgument(
          StrCat("lateness/policy mismatch with the established ingress of "
                 "input ",
                 hello.input));
    }
  }
  fronts_lock.unlock();
  InputFront::ShardSlot* slot = front->slots[hello.producer].get();
  bool resumed = false;
  {
    std::lock_guard<std::mutex> sl(front->mu);
    if (slot->closed) {
      return Status::InvalidArgument(
          StrCat("producer ", hello.producer, " of input ", hello.input,
                 " has already finished; the shard cannot be rebound"));
    }
    if (slot->bound) {
      return Status::AlreadyExists(StrCat("producer ", hello.producer,
                                          " of input ", hello.input,
                                          " is already bound"));
    }
    if (slot->parked) {
      // Resume: only the token issued to the disconnected epoch reclaims
      // the shard (a stale or replayed token must not splice a stranger
      // into the byte sequence).
      if (hello.resume_token != slot->token) {
        return Status::InvalidArgument(
            StrCat("stale or unknown resume token for producer ",
                   hello.producer, " of input ", hello.input));
      }
      slot->parked = false;
      resumed = true;
    } else {
      if (hello.resume_token != 0) {
        return Status::InvalidArgument(
            StrCat("resume token presented for producer ", hello.producer,
                   " of input ", hello.input, ", which is not parked"));
      }
      slot->token = MixToken(next_token_.fetch_add(1));
    }
    slot->bound = true;
  }
  if (hello.rate_bytes_per_sec > 0) {
    front->ingress->SetProducerRate(hello.producer, hello.rate_bytes_per_sec);
  }

  auto dc = std::make_unique<DataConn>();
  DataConn* dcp = dc.get();
  dc->producer = front->ingress->producer(hello.producer);
  dc->front = front;
  dc->slot = slot;
  dc->input = hello.input;
  dc->producer_index = hello.producer;
  dc->tuple_size = tsz;
  dc->strict =
      static_cast<ingest::LatePolicy>(hello.late_policy) ==
      ingest::LatePolicy::kAbort;
  dc->allowed_lateness = lateness;
  dc->max_seen = slot->max_seen;
  dc->carry = std::move(carry);

  // Transfer the socket out of the event loop: blocking mode, receive
  // timeout as the slow-loris guard, hello acknowledged before the reader
  // starts (so the client may not observe kTuples back-pressure before
  // kHelloOk).
  const int fd = c->sock.fd();
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conns_.erase(fd);     // drops the Conn's ownership via shared_ptr release
  dc->sock = std::move(c->sock);  // c still holds the last shared_ptr ref
  (void)SetNonBlocking(fd, false);
  if (options_.idle_timeout_ms > 0) {
    (void)SetRecvTimeout(fd, options_.idle_timeout_ms);
  }
  WireWriter w;
  w.U32(kProtocolVersion);
  w.U64(slot->token);
  w.I64(slot->acked_bytes.load(std::memory_order_relaxed));
  const Status hello_ok =
      SendFrame(fd, FrameType::kHelloOk, w.buf().data(), w.buf().size());
  if (!hello_ok.ok()) {
    // Peer vanished between connect and hello-ok: release the shard so a
    // (re)connect can claim it, nothing new was appended. A failed resume
    // re-parks with a fresh grace window rather than silently closing.
    std::lock_guard<std::mutex> sl(front->mu);
    slot->bound = false;
    if (resumed) {
      slot->parked = true;
      slot->park_deadline_nanos =
          NowNanos() +
          static_cast<int64_t>(options_.reconnect_grace_ms) * 1'000'000;
    }
    return hello_ok;
  }
  if (resumed) counters_->producer_reconnects.Increment();
  counters_->data_connections.Increment();
  {
    std::lock_guard<std::mutex> cl(e->conns_mu);
    // Opportunistically join readers that already exited (parked shards,
    // earlier epochs of this one) so reconnect-heavy streams do not
    // accumulate retired threads until query teardown.
    auto& v = e->data_conns;
    v.erase(std::remove_if(v.begin(), v.end(),
                           [](const std::unique_ptr<DataConn>& d) {
                             if (!d->done.load(std::memory_order_acquire)) {
                               return false;
                             }
                             if (d->thread.joinable()) d->thread.join();
                             return true;
                           }),
            v.end());
    v.push_back(std::move(dc));
  }
  dcp->thread = std::thread([this, e, dcp] {
    DataLoop(e, dcp);
    dcp->done.store(true, std::memory_order_release);
  });
  return Status::OK();
}

void SaberServer::DataLoop(std::shared_ptr<QueryEntry> keepalive,
                           DataConn* dc) {
  (void)keepalive;  // holds the QueryEntry (and thus *dc) for the thread
  const int fd = dc->sock.fd();
  const size_t tsz = dc->tuple_size;
  std::vector<uint8_t> payload;

  // Frame source that consumes the handshake carry-over before the socket.
  size_t carry_off = 0;
  auto read_exact = [&](void* dst, size_t n) -> Status {
    uint8_t* out = static_cast<uint8_t*>(dst);
    const size_t from_carry = std::min(n, dc->carry.size() - carry_off);
    if (from_carry > 0) {
      std::memcpy(out, dc->carry.data() + carry_off, from_carry);
      carry_off += from_carry;
    }
    if (from_carry == n) return Status::OK();
    return ReadFull(fd, out + from_carry, n - from_carry);
  };

  // Marks the shard terminal so no resume token can rebind it.
  auto seal_slot = [&] {
    std::lock_guard<std::mutex> sl(dc->front->mu);
    dc->slot->bound = false;
    dc->slot->closed = true;
  };

  auto fail = [&](const Status& s) {
    counters_->protocol_errors.Increment();
    (void)SendFrame(fd, FrameType::kError, EncodeError(s));
    // The stream is untrustworthy past the violation: revoke rather than
    // close, so the reorder buffer's tail is abandoned with it. Either way
    // the shard counts as finished and the watermark releases.
    seal_slot();
    dc->producer->Revoke();
    dc->sock.ShutdownBoth();
  };

  // Disconnect with a grace window: *park* the shard instead of closing it.
  // The producer stays open — the watermark holds, nothing seals past the
  // gap — until a resume-token reconnect rebinds it or the grace sweep
  // expires it. Returns false when parking is off or the shard is already
  // finished (then the caller falls back to the historical clean close).
  auto park = [&]() -> bool {
    if (options_.reconnect_grace_ms <= 0 || stop_.load()) return false;
    if (dc->producer->closed() || dc->producer->revoked()) return false;
    std::lock_guard<std::mutex> sl(dc->front->mu);
    if (dc->slot->closed) return false;
    dc->slot->bound = false;
    dc->slot->parked = true;
    dc->slot->park_deadline_nanos =
        NowNanos() +
        static_cast<int64_t>(options_.reconnect_grace_ms) * 1'000'000;
    dc->slot->max_seen = dc->max_seen;
    counters_->shards_parked.Increment();
    return true;
  };

  for (;;) {
    // Fault injection: sever this data connection as if the network (or a
    // proxy, or the peer's NIC) dropped it. The client sees a reset; the
    // shard parks (grace window) or closes (historical contract) exactly as
    // it would on a real loss.
    if (SABER_FAULT_POINT("net.server.drop_data_conn")) {
      // Park before severing: the client observes the FIN within
      // microseconds on loopback and redials, and its resume must find the
      // shard already parked.
      if (!park()) {
        seal_slot();
        dc->producer->Close();
      }
      dc->sock.ShutdownBoth();
      return;
    }
    uint8_t header[kFrameHeaderBytes];
    const Status hs = read_exact(header, sizeof(header));
    if (!hs.ok()) {
      // EOF, timeout, reset, or server shutdown: park when a grace window
      // is configured; otherwise the disconnect contract — the shard
      // closes and the watermark releases without it.
      if (hs.code() == StatusCode::kUnavailable) {
        counters_->timeouts.Increment();
      }
      if (!park()) {
        seal_slot();
        dc->producer->Close();
      }
      return;
    }
    auto h = DecodeFrameHeader(header, options_.max_frame_bytes);
    if (!h.ok()) {
      fail(h.status());
      return;
    }
    const FrameType type = h.value().type;
    payload.resize(h.value().payload_len);
    if (!payload.empty()) {
      const Status ps = read_exact(payload.data(), payload.size());
      if (!ps.ok()) {
        // Mid-frame disconnect: the partial frame was never appended, so a
        // resume replays it from the acked boundary.
        if (!park()) {
          seal_slot();
          dc->producer->Close();
        }
        return;
      }
    }
    switch (type) {
      case FrameType::kTuples: {
        if (payload.size() % tsz != 0) {
          fail(Status::InvalidArgument(
              StrCat("kTuples payload of ", payload.size(),
                     " bytes is not a multiple of the ", tsz,
                     "-byte tuple size")));
          return;
        }
        if (dc->strict) {
          const int64_t bad =
              FirstLateViolation(payload.data(), payload.size(), tsz,
                                 dc->allowed_lateness, &dc->max_seen);
          if (bad >= 0) {
            fail(Status::InvalidArgument(StrCat(
                "late tuple beyond the allowed lateness of ",
                dc->allowed_lateness, " at tuple ", bad,
                " of this frame (late policy abort)")));
            return;
          }
        }
        counters_->tuple_frames.Increment();
        counters_->tuple_bytes.Increment(
            static_cast<int64_t>(payload.size()));
        if (!payload.empty() &&
            !dc->producer->Append(payload.data(), payload.size())) {
          // Revoked (query removal / server stop): drop the connection.
          seal_slot();
          dc->sock.ShutdownBoth();
          return;
        }
        // Acked: fully appended, so a resumed client replays nothing of it.
        dc->slot->acked_bytes.fetch_add(
            static_cast<int64_t>(payload.size()), std::memory_order_relaxed);
        break;
      }
      case FrameType::kDataEnd: {
        seal_slot();
        dc->producer->Close();
        (void)SendFrame(fd, FrameType::kDataEndOk, nullptr, 0);
        return;
      }
      default:
        fail(Status::InvalidArgument(
            StrCat(FrameTypeName(type), " is not a data-plane frame")));
        return;
    }
  }
}

void SaberServer::ReapDataConns(QueryEntry& e) {
  std::lock_guard<std::mutex> cl(e.conns_mu);
  for (auto& dc : e.data_conns) {
    if (dc->thread.joinable()) dc->thread.join();
  }
}

void SaberServer::EnqueueFrame(Conn& c, FrameType type, const void* payload,
                               size_t len) {
  std::vector<uint8_t> frame(kFrameHeaderBytes + len);
  FrameHeader h;
  h.payload_len = static_cast<uint32_t>(len);
  h.type = type;
  EncodeFrameHeader(h, frame.data());
  if (len > 0) std::memcpy(frame.data() + kFrameHeaderBytes, payload, len);
  std::lock_guard<std::mutex> wl(c.wmu);
  c.outbox_bytes += frame.size();
  c.outbox.push_back(std::move(frame));
}

void SaberServer::EnqueueError(Conn& c, const Status& status) {
  const std::vector<uint8_t> payload = EncodeError(status);
  EnqueueFrame(c, FrameType::kError, payload.data(), payload.size());
}

bool SaberServer::FlushConn(Conn& c) {
  std::lock_guard<std::mutex> wl(c.wmu);
  while (!c.outbox.empty()) {
    const std::vector<uint8_t>& front = c.outbox.front();
    const ssize_t n = ::send(c.sock.fd(), front.data() + c.front_off,
                             front.size() - c.front_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c.epollout_armed) {
          epoll_event ev{};
          ev.events = EPOLLIN | EPOLLOUT;
          ev.data.fd = c.sock.fd();
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.sock.fd(), &ev);
          c.epollout_armed = true;
        }
        return true;
      }
      return false;
    }
    c.front_off += static_cast<size_t>(n);
    if (c.front_off == front.size()) {
      c.outbox_bytes -= front.size();
      c.outbox.pop_front();
      c.front_off = 0;
    }
  }
  if (c.epollout_armed) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = c.sock.fd();
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.sock.fd(), &ev);
    c.epollout_armed = false;
  }
  return true;
}

}  // namespace saber::net
