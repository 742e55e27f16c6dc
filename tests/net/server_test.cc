#include "net/server.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "sql/parser.h"
#include "workloads/sharding.h"
#include "workloads/synthetic.h"

/// \file server_test.cc
/// End-to-end differential tests of the network front end: N loopback
/// clients sharded with ExtractTimestampShard must leave the engine's
/// output byte-identical to an in-process single-producer run of the same
/// stream — for count, time and session windows, with and without bounded
/// timestamp jitter within the allowed lateness. Also: a client
/// disconnecting mid-stream releases the merge watermark instead of
/// wedging the query, SQL add/remove over the control plane leaves
/// surviving queries byte-exact, and statements too deep to parse or
/// compile come back as kError without taking the server down.

namespace saber {
namespace {

constexpr int kClients = 4;

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

/// Rewrites field 0 (the int64 timestamp) of every tuple through `fn`.
/// `fn` must be non-decreasing so the stream stays sorted.
template <typename Fn>
std::vector<uint8_t> TransformTimestamps(std::vector<uint8_t> stream, Fn fn) {
  const size_t tsz = TupleSize();
  for (size_t off = 0; off < stream.size(); off += tsz) {
    int64_t ts;
    std::memcpy(&ts, stream.data() + off, sizeof(ts));
    ts = fn(ts);
    std::memcpy(stream.data() + off, &ts, sizeof(ts));
  }
  return stream;
}

/// Ground truth: the statement run in-process, one producer, no network.
/// Remove flushes the sub-slide window remainder through the sink, so the
/// collected bytes are the *complete* output of the finite stream.
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

struct RemoteOptions {
  int num_clients = kClients;
  int64_t jitter = 0;           ///< bounded disorder injected per shard
  int64_t hello_lateness = -1;  ///< -1 inherits the SQL `with lateness`
  uint8_t hello_policy = 0;     ///< wire LatePolicy (0 = abort semantics)
};

/// The statement and stream through the running SaberServer on `port`:
/// `num_clients` TCP producers each feed their timestamp shard; a
/// subscriber connection collects the result batches until Remove ends the
/// subscription.
std::vector<uint8_t> RunOnServer(int port, const std::string& sql,
                                 const std::vector<uint8_t>& stream,
                                 const RemoteOptions& opts) {
  const size_t tsz = TupleSize();
  auto control = net::ControlClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(control.ok()) << control.status().ToString();
  auto info = control.value().Submit(sql);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;
  EXPECT_EQ(info.value().input_tuple_size[0], tsz);

  // Subscriber on its own connection and thread: batches arrive while the
  // producers are still feeding.
  std::vector<uint8_t> out;
  auto sub = net::ControlClient::Connect("127.0.0.1", port);
  EXPECT_TRUE(sub.ok());
  EXPECT_TRUE(sub.value().Subscribe(id).ok());
  std::thread reader([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      auto more = sub.value().NextBatch(&batch);
      if (!more.ok() || !more.value()) break;
      out.insert(out.end(), batch.begin(), batch.end());
    }
  });

  std::vector<std::thread> producers;
  for (int i = 0; i < opts.num_clients; ++i) {
    producers.emplace_back([&, i] {
      auto shard = workloads::ExtractTimestampShard(stream, tsz, i,
                                                    opts.num_clients);
      ASSERT_TRUE(shard.ok()) << shard.status().ToString();
      std::vector<uint8_t> bytes = std::move(shard).value();
      if (opts.jitter > 0) {
        bytes = workloads::ApplyBoundedDisorder(bytes, tsz, opts.jitter,
                                                /*seed=*/1000 + i);
      }
      net::DataHello hello;
      hello.query_id = id;
      hello.producer = static_cast<uint16_t>(i);
      hello.num_producers = static_cast<uint16_t>(opts.num_clients);
      hello.tuple_size = static_cast<uint32_t>(tsz);
      hello.allowed_lateness = opts.hello_lateness;
      hello.late_policy = opts.hello_policy;
      auto p = net::ProducerClient::Connect("127.0.0.1", port, hello);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ASSERT_TRUE(p.value().Send(bytes.data(), bytes.size()).ok())
          << p.value().LastServerError().ToString();
      ASSERT_TRUE(p.value().End().ok());
    });
  }
  for (auto& t : producers) t.join();

  EXPECT_TRUE(control.value().Drain(id).ok());
  EXPECT_TRUE(control.value().Remove(id).ok());  // ends the subscription
  reader.join();
  return out;
}

/// RunOnServer against a fresh engine and SaberServer on an ephemeral port.
std::vector<uint8_t> RunRemote(const std::string& sql,
                               const std::vector<uint8_t>& stream,
                               const RemoteOptions& opts = {}) {
  Engine engine(TestEngineOptions());
  engine.Start();
  net::SaberServer server(&engine, MakeCatalog(), net::ServerOptions{});
  EXPECT_TRUE(server.Start().ok());
  std::vector<uint8_t> out = RunOnServer(server.port(), sql, stream, opts);
  server.Stop();
  engine.Stop();
  return out;
}

void ExpectByteIdentical(const std::string& sql,
                         const std::vector<uint8_t>& stream,
                         const RemoteOptions& opts = {}) {
  const std::vector<uint8_t> local = RunLocal(sql, stream);
  const std::vector<uint8_t> remote = RunRemote(sql, stream, opts);
  ASSERT_GT(local.size(), 0u) << "local run produced no output: " << sql;
  ASSERT_EQ(local.size(), remote.size()) << sql;
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), local.size()), 0)
      << "remote output diverges from in-process run: " << sql;
}

// --------------------------------------------------------------------------
// Byte-identity: remote sharded ingest == in-process single producer.
// --------------------------------------------------------------------------

TEST(NetServer, CountWindowByteIdenticalAcrossFourClients) {
  ExpectByteIdentical(
      "select timestamp, a3, sum(a1) as total, count(*) as n "
      "from Syn [rows 256 slide 64] group by a3",
      syn::Generate(48 << 10));
}

TEST(NetServer, TimeWindowByteIdenticalAcrossFourClients) {
  ExpectByteIdentical(
      "select timestamp, sum(a1) as s, avg(a2) as m "
      "from Syn [range 32 slide 8]",
      syn::Generate(48 << 10));
}

TEST(NetServer, SessionWindowByteIdenticalAcrossFourClients) {
  // Stretch the timestamp axis so sessions both merge (diff 1 <= gap) and
  // split (diff 9 > gap 4) — every 4th group jumps.
  const auto stream = TransformTimestamps(
      syn::Generate(16 << 10), [](int64_t ts) { return ts + (ts / 4) * 8; });
  ExpectByteIdentical(
      "select timestamp, sum(a1) as s, count(*) as n "
      "from Syn [session gap 4]",
      stream);
}

TEST(NetServer, JitterWithinLatenessStaysByteIdentical) {
  // Each producer's shard arrives with bounded disorder (jitter 8); the
  // SQL statement declares `with lateness 16` and the hellos inherit it
  // (allowed_lateness = -1), so the reorder stage restores the exact
  // stream and the output matches the in-order local run byte for byte.
  RemoteOptions opts;
  opts.jitter = 8;
  opts.hello_lateness = -1;  // inherit 16 from the statement
  opts.hello_policy = 1;     // drop-and-count (nothing may actually drop)
  ExpectByteIdentical(
      "select timestamp, sum(a1) as s from Syn [range 32 slide 8] "
      "with lateness 16, late drop",
      syn::Generate(32 << 10), opts);
}

TEST(NetServer, ExplicitHelloLatenessOverridesStatement) {
  RemoteOptions opts;
  opts.jitter = 4;
  opts.hello_lateness = 32;  // explicit, overrides the statement's 0
  opts.hello_policy = 1;
  ExpectByteIdentical(
      "select timestamp, sum(a1) as s from Syn [rows 512 slide 128]",
      syn::Generate(32 << 10), opts);
}

// --------------------------------------------------------------------------
// Lifecycle.
// --------------------------------------------------------------------------

TEST(NetServer, DisconnectMidStreamReleasesWatermark) {
  const size_t tsz = TupleSize();
  const auto stream = syn::Generate(16 << 10);
  Engine engine(TestEngineOptions());
  engine.Start();
  net::SaberServer server(&engine, MakeCatalog(), net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  auto control = net::ControlClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(
      "select timestamp, sum(a1) as s from Syn [rows 256 slide 64]");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  net::DataHello hello;
  hello.query_id = id;
  hello.num_producers = 2;
  hello.tuple_size = static_cast<uint32_t>(tsz);

  // Producer 1 sends half its shard, then vanishes without kDataEnd.
  auto shard1 = workloads::ExtractTimestampShard(stream, tsz, 1, 2);
  ASSERT_TRUE(shard1.ok());
  net::DataHello h1 = hello;
  h1.producer = 1;
  auto p1 = net::ProducerClient::Connect("127.0.0.1", server.port(), h1);
  ASSERT_TRUE(p1.ok());
  const size_t half = shard1.value().size() / tsz / 2 * tsz;
  ASSERT_TRUE(p1.value().Send(shard1.value().data(), half).ok());
  p1.value().Close();  // abrupt: no kDataEnd

  // Producer 0 finishes normally.
  auto shard0 = workloads::ExtractTimestampShard(stream, tsz, 0, 2);
  ASSERT_TRUE(shard0.ok());
  auto p0 = net::ProducerClient::Connect("127.0.0.1", server.port(), hello);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(
      p0.value().Send(shard0.value().data(), shard0.value().size()).ok());
  ASSERT_TRUE(p0.value().End().ok());

  // The disconnect must have mapped to Close(): the watermark releases and
  // Drain completes instead of waiting forever on the dead shard.
  EXPECT_TRUE(control.value().Drain(id).ok());
  EXPECT_TRUE(control.value().Remove(id).ok());
  server.Stop();
  engine.Stop();
}

TEST(NetServer, RemoveLeavesSurvivorByteExact) {
  // Query A streams throughout; query B is added, fed and removed in the
  // middle of A's stream. A's output must equal the in-process run of A
  // alone — B's lifecycle may not perturb it.
  const size_t tsz = TupleSize();
  const auto stream = syn::Generate(32 << 10);
  const std::string sql_a =
      "select timestamp, sum(a1) as total from Syn [rows 256 slide 64]";
  const std::vector<uint8_t> expect_a = RunLocal(sql_a, stream);

  Engine engine(TestEngineOptions());
  engine.Start();
  net::SaberServer server(&engine, MakeCatalog(), net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  auto control = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(control.ok());
  auto info_a = control.value().Submit(sql_a);
  ASSERT_TRUE(info_a.ok()) << info_a.status().ToString();
  const uint32_t id_a = info_a.value().query_id;

  std::vector<uint8_t> out_a;
  auto sub = net::ControlClient::Connect("127.0.0.1", port);
  ASSERT_TRUE(sub.ok());
  ASSERT_TRUE(sub.value().Subscribe(id_a).ok());
  std::thread reader([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      auto more = sub.value().NextBatch(&batch);
      if (!more.ok() || !more.value()) break;
      out_a.insert(out_a.end(), batch.begin(), batch.end());
    }
  });

  net::DataHello hello_a;
  hello_a.query_id = id_a;
  hello_a.tuple_size = static_cast<uint32_t>(tsz);
  auto pa = net::ProducerClient::Connect("127.0.0.1", port, hello_a);
  ASSERT_TRUE(pa.ok());
  const size_t half = stream.size() / tsz / 2 * tsz;
  ASSERT_TRUE(pa.value().Send(stream.data(), half).ok());

  // B's whole lifecycle happens while A is mid-stream.
  {
    auto info_b = control.value().Submit(
        "select timestamp, count(*) as n from Syn [rows 128]");
    ASSERT_TRUE(info_b.ok()) << info_b.status().ToString();
    net::DataHello hello_b;
    hello_b.query_id = info_b.value().query_id;
    hello_b.tuple_size = static_cast<uint32_t>(tsz);
    auto pb = net::ProducerClient::Connect("127.0.0.1", port, hello_b);
    ASSERT_TRUE(pb.ok());
    ASSERT_TRUE(pb.value().Send(stream.data(), 4096 * tsz).ok());
    ASSERT_TRUE(pb.value().End().ok());
    ASSERT_TRUE(control.value().Remove(info_b.value().query_id).ok());
  }

  ASSERT_TRUE(
      pa.value().Send(stream.data() + half, stream.size() - half).ok());
  ASSERT_TRUE(pa.value().End().ok());
  EXPECT_TRUE(control.value().Drain(id_a).ok());
  EXPECT_TRUE(control.value().Remove(id_a).ok());
  reader.join();
  server.Stop();
  engine.Stop();

  ASSERT_EQ(expect_a.size(), out_a.size());
  EXPECT_EQ(std::memcmp(expect_a.data(), out_a.data(), expect_a.size()), 0)
      << "survivor query output perturbed by add/remove of another query";
}

TEST(NetServer, DeepStatementsAreErrorsNotCrashes) {
  // Admission runs on the server's event loop, so an abort in
  // CompiledExpr::Compile (the first statement) or a parser stack overflow
  // (the second) would take every client down. Each must come back as
  // kError, and the same server must then admit and drain a valid query.
  std::string deep_sum = "select timestamp, ";
  for (int i = 0; i < 64; ++i) deep_sum += "a1 + (";
  deep_sum += "a1" + std::string(64, ')') +
              " as x from Syn [rows 1024 slide 1024]";
  const std::string deep_parens = "select * from Syn [rows 64] where " +
                                  std::string(10000, '(') + "a1 > 1" +
                                  std::string(10000, ')');

  Engine engine(TestEngineOptions());
  engine.Start();
  net::SaberServer server(&engine, MakeCatalog(), net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  auto control = net::ControlClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  const std::pair<const std::string*, const char*> cases[] = {
      {&deep_sum, "CompiledExpr::kMaxStack=64"},
      {&deep_parens, "nests deeper than"},
  };
  for (const auto& [sql, message] : cases) {
    auto info = control.value().Submit(*sql);
    ASSERT_FALSE(info.ok());
    EXPECT_EQ(info.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(info.status().message().find(message), std::string::npos)
        << info.status().ToString();
  }

  const std::string sql =
      "select timestamp, sum(a1) as total from Syn [rows 256 slide 64]";
  const auto stream = syn::Generate(16 << 10);
  RemoteOptions opts;
  opts.num_clients = 1;
  const std::vector<uint8_t> remote =
      RunOnServer(server.port(), sql, stream, opts);
  server.Stop();
  engine.Stop();
  const std::vector<uint8_t> local = RunLocal(sql, stream);
  ASSERT_GT(local.size(), 0u);
  ASSERT_EQ(local.size(), remote.size());
  EXPECT_EQ(std::memcmp(local.data(), remote.data(), local.size()), 0);
}

}  // namespace
}  // namespace saber
