#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "fault/fault_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "sql/parser.h"
#include "workloads/sharding.h"
#include "workloads/synthetic.h"

/// \file fault_recovery_test.cc
/// Producer reconnect/resume and the recovery contracts of the network
/// front end under injected connection loss:
///  - a server-side drop mid-stream is repaired by the client's resume
///    token and the query output stays byte-identical to the
///    uninterrupted run (no lost, duplicated or reordered tuples);
///  - a disconnect whose grace window expires degrades to the historical
///    clean close — Drain completes and a later rebind gets a prompt
///    kError, never a hang;
///  - stale or unknown resume tokens are rejected;
///  - the front end can be stopped and a fresh server started on the
///    same live engine (restart with a subscriber attached);
///  - a producer blocked on a full window notices the server's FIN.

namespace saber {
namespace {

sql::Catalog MakeCatalog() {
  return sql::Catalog{{"Syn", syn::SyntheticSchema()}};
}

size_t TupleSize() { return syn::SyntheticSchema().tuple_size(); }

EngineOptions TestEngineOptions() {
  EngineOptions eo;
  eo.num_cpu_workers = 2;
  eo.use_gpu = false;
  eo.task_size = 16 << 10;
  return eo;
}

/// Ground truth: the statement run in-process, one producer, no network.
std::vector<uint8_t> RunLocal(const std::string& sql,
                              const std::vector<uint8_t>& stream) {
  auto def = sql::Parse(sql, MakeCatalog());
  EXPECT_TRUE(def.ok()) << def.status().ToString();
  Engine engine(TestEngineOptions());
  auto q = engine.TryAddQuery(std::move(def).value());
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  std::vector<uint8_t> out;
  EXPECT_TRUE(q.value()
                  ->SetSink([&](const uint8_t* data, size_t len) {
                    out.insert(out.end(), data, data + len);
                  })
                  .ok());
  engine.Start();
  q.value()->Insert(stream.data(), stream.size());
  engine.Drain();
  EXPECT_TRUE(engine.RemoveQuery(q.value()).ok());
  engine.Stop();
  return out;
}

class FaultRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_F(FaultRecoveryTest, ServerDropMidStreamResumesByteIdentical) {
  // The server severs one data connection mid-stream (injected at the
  // reader loop); the client's ReconnectPolicy redials, presents its
  // resume token and replays past the acked sequence. The output must be
  // byte-identical to the fault-free in-process run.
  const size_t tsz = TupleSize();
  const std::string sql =
      "select timestamp, sum(a1) as total, count(*) as n "
      "from Syn [rows 256 slide 64] group by a3";
  const auto stream = syn::Generate(48 << 10);
  const std::vector<uint8_t> expect = RunLocal(sql, stream);

  // Exactly one deterministic drop, once the stream is well underway.
  fault::FaultSpec drop;
  drop.every_n = 30;
  drop.one_shot = true;
  fault::FaultRegistry::Global().Arm("net.server.drop_data_conn", drop);

  Engine engine(TestEngineOptions());
  engine.Start();
  net::ServerOptions sopts;
  sopts.reconnect_grace_ms = 5'000;
  net::SaberServer server(&engine, MakeCatalog(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(sql);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  std::vector<uint8_t> out;
  auto sub = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(sub.value().Subscribe(id).ok());
  std::thread reader([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      auto more = sub.value().NextBatch(&batch);
      if (!more.ok() || !more.value()) break;
      out.insert(out.end(), batch.begin(), batch.end());
    }
  });

  constexpr int kClients = 2;
  std::atomic<int64_t> total_reconnects{0};
  std::vector<std::thread> producers;
  for (int i = 0; i < kClients; ++i) {
    producers.emplace_back([&, i] {
      auto shard =
          workloads::ExtractTimestampShard(stream, tsz, i, kClients);
      ASSERT_TRUE(shard.ok());
      const std::vector<uint8_t> bytes = std::move(shard).value();
      net::DataHello hello;
      hello.query_id = id;
      hello.producer = static_cast<uint16_t>(i);
      hello.num_producers = kClients;
      hello.tuple_size = static_cast<uint32_t>(tsz);
      net::ReconnectPolicy rp;
      rp.connect_timeout_ms = 2'000;
      rp.max_attempts = 10;
      rp.initial_backoff_ms = 5;
      rp.max_backoff_ms = 100;
      auto p = net::ProducerClient::Connect("127.0.0.1", port, hello, rp);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      EXPECT_NE(p.value().resume_token(), 0u)
          << "the server must issue a resume token in the kHelloOk";
      // Small sends -> many frames, so the every-30-frames drop lands
      // squarely mid-stream.
      const size_t chunk = 512 * tsz;
      for (size_t off = 0; off < bytes.size(); off += chunk) {
        ASSERT_TRUE(p.value()
                        .Send(bytes.data() + off,
                              std::min(chunk, bytes.size() - off))
                        .ok())
            << p.value().LastServerError().ToString();
      }
      ASSERT_TRUE(p.value().End().ok());
      total_reconnects.fetch_add(p.value().reconnects());
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(total_reconnects.load(), 1)
      << "the injected drop must have forced exactly one resume";
  const net::ServerStats st = server.stats();
  EXPECT_GE(st.shards_parked, 1);
  EXPECT_GE(st.producer_reconnects, 1);
  EXPECT_EQ(st.grace_expiries, 0);

  EXPECT_TRUE(control.value().Drain(id).ok());
  EXPECT_TRUE(control.value().Remove(id).ok());
  reader.join();
  server.Stop();
  engine.Stop();

  ASSERT_EQ(expect.size(), out.size());
  EXPECT_EQ(std::memcmp(expect.data(), out.data(), expect.size()), 0)
      << "resumed stream diverges from the uninterrupted run";
}

TEST_F(FaultRecoveryTest, GraceExpiryDegradesToCleanClose) {
  // A producer vanishes and never comes back: its shard parks, the grace
  // window expires, and the park degrades to the historical clean close —
  // the watermark releases, Drain completes, and a later rebind of the
  // finished shard gets a prompt kError instead of hanging.
  const size_t tsz = TupleSize();
  const auto stream = syn::Generate(16 << 10);
  Engine engine(TestEngineOptions());
  engine.Start();
  net::ServerOptions sopts;
  sopts.reconnect_grace_ms = 150;
  net::SaberServer server(&engine, MakeCatalog(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(
      "select timestamp, sum(a1) as s from Syn [rows 256 slide 64]");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  net::DataHello hello;
  hello.query_id = id;
  hello.num_producers = 2;
  hello.tuple_size = static_cast<uint32_t>(tsz);

  // Producer 1: half the shard, then gone for good.
  auto shard1 = workloads::ExtractTimestampShard(stream, tsz, 1, 2);
  ASSERT_TRUE(shard1.ok());
  net::DataHello h1 = hello;
  h1.producer = 1;
  auto p1 = net::ProducerClient::Connect("127.0.0.1", port, h1);
  ASSERT_TRUE(p1.ok());
  const size_t half = shard1.value().size() / tsz / 2 * tsz;
  ASSERT_TRUE(p1.value().Send(shard1.value().data(), half).ok());
  p1.value().Close();  // abrupt: parks the shard

  // Producer 0 finishes normally.
  auto shard0 = workloads::ExtractTimestampShard(stream, tsz, 0, 2);
  ASSERT_TRUE(shard0.ok());
  auto p0 = net::ProducerClient::Connect("127.0.0.1", port, hello);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(
      p0.value().Send(shard0.value().data(), shard0.value().size()).ok());
  ASSERT_TRUE(p0.value().End().ok());

  // Drain blocks while the shard is parked (watermark held), then the
  // sweep expires the grace window and the close releases everything.
  EXPECT_TRUE(control.value().Drain(id).ok());
  const net::ServerStats st = server.stats();
  EXPECT_GE(st.shards_parked, 1);
  EXPECT_GE(st.grace_expiries, 1);
  EXPECT_EQ(st.producer_reconnects, 0);

  // The shard is finished: rebinding it must fail fast with a clean error.
  auto again = net::ProducerClient::Connect("127.0.0.1", port, h1);
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.status().ToString().find("already finished"),
            std::string::npos)
      << again.status().ToString();

  EXPECT_TRUE(control.value().Remove(id).ok());
  server.Stop();
  engine.Stop();
}

TEST_F(FaultRecoveryTest, StaleResumeTokenIsRejected) {
  const size_t tsz = TupleSize();
  Engine engine(TestEngineOptions());
  engine.Start();
  net::ServerOptions sopts;
  sopts.reconnect_grace_ms = 1'000;
  net::SaberServer server(&engine, MakeCatalog(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(
      "select timestamp, count(*) as n from Syn [rows 128]");
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  // A resume token for a shard that was never parked: rejected, and the
  // rejection must not burn the slot — a clean fresh bind still works.
  net::DataHello hello;
  hello.query_id = info.value().query_id;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  hello.resume_token = 0xDEADBEEFDEADBEEFull;
  auto stale = net::ProducerClient::Connect("127.0.0.1", port, hello);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().ToString().find("not parked"), std::string::npos)
      << stale.status().ToString();

  hello.resume_token = 0;
  auto fresh = net::ProducerClient::Connect("127.0.0.1", port, hello);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const auto stream = syn::Generate(4096);
  ASSERT_TRUE(fresh.value().Send(stream.data(), stream.size()).ok());
  ASSERT_TRUE(fresh.value().End().ok());

  EXPECT_TRUE(control.value().Drain(info.value().query_id).ok());
  EXPECT_TRUE(control.value().Remove(info.value().query_id).ok());
  server.Stop();
  engine.Stop();
}

TEST_F(FaultRecoveryTest, ReconnectAfterGraceExpiryFailsCleanly) {
  // The drop lands mid-stream, but the client's backoff outlives the
  // server's grace window: by the time it redials, the shard has been
  // expired and closed. The resume must be rejected with a terminal
  // kError — surfaced by Send as a Status, never a hang or a retry storm.
  const size_t tsz = TupleSize();
  const auto stream = syn::Generate(32 << 10);

  fault::FaultSpec drop;
  drop.every_n = 10;
  drop.one_shot = true;
  fault::FaultRegistry::Global().Arm("net.server.drop_data_conn", drop);

  Engine engine(TestEngineOptions());
  engine.Start();
  net::ServerOptions sopts;
  sopts.reconnect_grace_ms = 100;  // expires well before the first redial
  net::SaberServer server(&engine, MakeCatalog(), sopts);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(
      "select timestamp, sum(a1) as s from Syn [rows 256 slide 64]");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  net::DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  net::ReconnectPolicy rp;
  rp.connect_timeout_ms = 2'000;
  rp.max_attempts = 2;
  rp.initial_backoff_ms = 700;  // grace (100 ms) + sweep tick fit inside
  rp.max_backoff_ms = 700;
  auto p = net::ProducerClient::Connect("127.0.0.1", port, hello, rp);
  ASSERT_TRUE(p.ok());

  // The kernel may absorb every Send after the drop (the server's shutdown
  // does not stop the ACKs), so the loss can surface at any Send or only at
  // End — both must come back as the server's terminal rejection.
  const size_t chunk = 512 * tsz;
  Status failure = Status::OK();
  for (size_t off = 0; off < stream.size(); off += chunk) {
    failure = p.value().Send(stream.data() + off,
                             std::min(chunk, stream.size() - off));
    if (!failure.ok()) break;
  }
  if (failure.ok()) failure = p.value().End();
  ASSERT_FALSE(failure.ok())
      << "the drop fired and the grace window expired; the resume must fail";
  EXPECT_NE(failure.ToString().find("finished"), std::string::npos)
      << "expected the server's closed-shard rejection, got: "
      << failure.ToString();
  EXPECT_EQ(p.value().reconnects(), 0);

  // The expired shard closed cleanly: the query is drainable/removable.
  EXPECT_TRUE(control.value().Drain(id).ok());
  EXPECT_GE(server.stats().grace_expiries, 1);
  EXPECT_TRUE(control.value().Remove(id).ok());
  server.Stop();
  engine.Stop();
}

TEST_F(FaultRecoveryTest, ServerRestartOnLiveEngineWithSubscriber) {
  // The front end stops (subscriber attached, producer mid-stream) and a
  // fresh server starts on the same still-running engine. The subscriber
  // must unblock promptly, and the new server must serve a full
  // byte-correct run.
  const size_t tsz = TupleSize();
  const std::string sql =
      "select timestamp, sum(a1) as total from Syn [rows 256 slide 64]";
  const auto stream = syn::Generate(24 << 10);
  const std::vector<uint8_t> expect = RunLocal(sql, stream);

  Engine engine(TestEngineOptions());
  engine.Start();

  {
    net::SaberServer first(&engine, MakeCatalog(), net::ServerOptions{});
    ASSERT_TRUE(first.Start().ok());
    auto control = net::ControlClient::Connect("127.0.0.1", first.port());
    ASSERT_TRUE(control.ok());
    auto info = control.value().Submit(sql);
    ASSERT_TRUE(info.ok()) << info.status().ToString();

    auto sub = net::ControlClient::Connect("127.0.0.1", first.port());
    ASSERT_TRUE(sub.ok());
    ASSERT_TRUE(sub.value().Subscribe(info.value().query_id).ok());
    std::atomic<bool> reader_done{false};
    std::thread reader([&] {
      std::vector<uint8_t> batch;
      for (;;) {
        auto more = sub.value().NextBatch(&batch);
        if (!more.ok() || !more.value()) break;
      }
      reader_done.store(true);
    });

    net::DataHello hello;
    hello.query_id = info.value().query_id;
    hello.tuple_size = static_cast<uint32_t>(tsz);
    auto p = net::ProducerClient::Connect("127.0.0.1", first.port(), hello);
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE(p.value().Send(stream.data(), 4096 * tsz).ok());

    first.Stop();  // mid-stream, subscriber attached
    reader.join();
    EXPECT_TRUE(reader_done.load());
    // The abandoned producer fails (promptly, once the RST round-trips —
    // the first post-stop send may still land in the kernel) instead of
    // hanging.
    Status s = Status::OK();
    for (int i = 0; i < 1000 && s.ok(); ++i) {
      s = p.value().Send(stream.data(), 512 * tsz);
    }
    EXPECT_FALSE(s.ok());
  }

  // Same engine, new front end: a complete run must still be byte-exact.
  net::SaberServer second(&engine, MakeCatalog(), net::ServerOptions{});
  ASSERT_TRUE(second.Start().ok());
  const int port = second.port();
  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(sql);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  std::vector<uint8_t> out;
  auto sub = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(sub.value().Subscribe(id).ok());
  std::thread reader([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      auto more = sub.value().NextBatch(&batch);
      if (!more.ok() || !more.value()) break;
      out.insert(out.end(), batch.begin(), batch.end());
    }
  });

  net::DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  auto p = net::ProducerClient::Connect("127.0.0.1", port, hello);
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(p.value().Send(stream.data(), stream.size()).ok());
  ASSERT_TRUE(p.value().End().ok());
  EXPECT_TRUE(control.value().Drain(id).ok());
  EXPECT_TRUE(control.value().Remove(id).ok());
  reader.join();
  second.Stop();
  engine.Stop();

  ASSERT_EQ(expect.size(), out.size());
  EXPECT_EQ(std::memcmp(expect.data(), out.data(), expect.size()), 0)
      << "restarted front end perturbed the query output";
}

TEST(SocketWrite, PeerFinFailsABlockedWriteInsteadOfHanging) {
  // The state a stopped server leaves an abandoned producer in: the server
  // reads nothing more, so the producer's window closes, and it has sent
  // its FIN but still holds the socket, so no RST ever arrives. A blocking
  // send waits here until the kernel gives up on the peer, minutes later.
  auto listener = net::ListenOn("127.0.0.1", 0, 1);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const int small = 64 << 10;  // small buffers: a few MiB fill the pipe
  ASSERT_EQ(::setsockopt(listener.value().fd(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)),
            0);
  auto port = net::LocalPort(listener.value().fd());
  ASSERT_TRUE(port.ok());
  auto producer = net::Dial("127.0.0.1", port.value());
  ASSERT_TRUE(producer.ok()) << producer.status().ToString();
  ASSERT_EQ(::setsockopt(producer.value().fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)),
            0);
  net::Socket server(::accept(listener.value().fd(), nullptr, nullptr));
  ASSERT_TRUE(server.valid());
  ASSERT_EQ(::shutdown(server.fd(), SHUT_WR), 0);

  const std::vector<uint8_t> frame(16 << 20);
  const Status s =
      net::WriteFull(producer.value().fd(), frame.data(), frame.size());
  EXPECT_EQ(s.code(), StatusCode::kIOError) << s.ToString();
  EXPECT_NE(s.message().find("peer closed"), std::string::npos)
      << s.ToString();
}

}  // namespace
}  // namespace saber
