#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "fault/fault_registry.h"
#include "ingest/sharded_ingress.h"
#include "net/client.h"
#include "net/http_metrics.h"
#include "net/server.h"
#include "net/socket.h"
#include "sql/parser.h"
#include "workloads/sharding.h"
#include "workloads/synthetic.h"

/// \file metrics_endpoint_test.cc
/// End-to-end scrape of the /metrics exposition endpoint: a SaberServer and
/// an HttpMetricsServer on one engine, a faulted workload streamed over the
/// data plane, then a real HTTP GET whose body must carry the engine,
/// ingest, net and fault series with values that match the in-process
/// accessors — the "byte-visible in both" contract of the registry design.

namespace saber {
namespace {

sql::Catalog MakeCatalog() {
  return sql::Catalog{{"Syn", syn::SyntheticSchema()}};
}

/// A minimal HTTP/1.0 GET: sends the request, reads to EOF, splits the
/// response into (status line + headers, body).
struct HttpResponse {
  std::string head;
  std::string body;
};

Result<HttpResponse> Get(int port, const std::string& path) {
  auto sock = net::Dial("127.0.0.1", port, 2'000);
  if (!sock.ok()) return sock.status();
  const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
  if (Status s = net::WriteFull(sock.value().fd(), req.data(), req.size());
      !s.ok()) {
    return s;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(sock.value().fd(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos) {
    return Status::IOError("no header/body split in: " + raw);
  }
  HttpResponse resp;
  resp.head = raw.substr(0, split);
  resp.body = raw.substr(split + 4);
  return resp;
}

/// Value of the series line `name{labels...} V` (exact prefix match on
/// everything before the space), or -1 if the line is absent.
int64_t SeriesValue(const std::string& body, const std::string& series) {
  size_t pos = 0;
  while ((pos = body.find(series + " ", pos)) != std::string::npos) {
    if (pos == 0 || body[pos - 1] == '\n') {
      return std::strtoll(body.c_str() + pos + series.size() + 1, nullptr, 10);
    }
    ++pos;
  }
  return -1;
}

class MetricsEndpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::FaultRegistry::Global().DisarmAll(); }
  void TearDown() override { fault::FaultRegistry::Global().DisarmAll(); }
};

TEST_F(MetricsEndpointTest, ScrapeMatchesEngineAfterFaultedNetworkRun) {
  // Reject every 5th GPGPU submission: the failover path retries those
  // tasks on the CPU and the recovery counters must be visible — with the
  // same values — through both the engine accessors and the scrape.
  fault::FaultSpec reject;
  reject.every_n = 5;
  fault::FaultRegistry::Global().Arm("gpu.submit_reject", reject);

  EngineOptions eo;
  eo.num_cpu_workers = 2;
  eo.use_gpu = true;
  eo.task_size = 16 << 10;
  // Pin the query (slot 0, the only one) to the GPGPU so the armed fault
  // fires by construction rather than by HLS's routing choice. Rejected
  // tasks are narrowed to the CPU and still run there.
  eo.scheduler = SchedulerKind::kStatic;
  eo.static_assignment = {{0, Processor::kGpu}};
  Engine engine(eo);
  engine.Start();

  net::SaberServer server(&engine, MakeCatalog(), net::ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  net::HttpMetricsServer metrics(engine.metrics());
  ASSERT_TRUE(metrics.Start(0).ok());

  auto control = net::ControlClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(control.ok());
  auto info = control.value().Submit(
      "select timestamp, sum(a1) as total from Syn [rows 256 slide 64]");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  const uint32_t id = info.value().query_id;

  const size_t tsz = syn::SyntheticSchema().tuple_size();
  const auto stream = syn::Generate(96 << 10);
  constexpr int kProducers = 2;
  std::vector<std::thread> producers;
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&, i] {
      auto shard =
          workloads::ExtractTimestampShard(stream, tsz, i, kProducers);
      ASSERT_TRUE(shard.ok());
      net::DataHello hello;
      hello.query_id = id;
      hello.producer = static_cast<uint16_t>(i);
      hello.num_producers = kProducers;
      hello.tuple_size = static_cast<uint32_t>(tsz);
      auto p = net::ProducerClient::Connect("127.0.0.1", server.port(), hello);
      ASSERT_TRUE(p.ok()) << p.status().ToString();
      ASSERT_TRUE(
          p.value().Send(shard.value().data(), shard.value().size()).ok());
      ASSERT_TRUE(p.value().End().ok());
    });
  }
  for (auto& t : producers) t.join();
  // The control-plane Drain returns once every staged tuple is inserted into
  // the engine; the engine may still be executing those tasks. Drain it too
  // (as the local-ingress test below does) so every counter is final.
  ASSERT_TRUE(control.value().Drain(id).ok());
  engine.Drain();

  auto resp = Get(metrics.port(), "/metrics");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string& body = resp.value().body;
  EXPECT_NE(resp.value().head.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.value().head.find("text/plain; version=0.0.4"),
            std::string::npos);

  // Recovery counters, byte-identical to the in-process accessors (the
  // engine is drained, so the values are stable).
  EXPECT_GT(engine.gpu_task_retries(), 0)
      << "the armed fault must have rejected some GPGPU submissions";
  EXPECT_EQ(SeriesValue(body, "saber_gpu_task_retries_total"),
            engine.gpu_task_retries());
  EXPECT_EQ(SeriesValue(body, "saber_gpu_quarantines_total"),
            engine.device_quarantines());

  // Fault-registry mirror: the armed point's hits appear as a series.
  EXPECT_EQ(
      SeriesValue(body, "saber_fault_hits_total{point=\"gpu.submit_reject\"}"),
      fault::FaultRegistry::Global().hits("gpu.submit_reject"));
  EXPECT_EQ(
      SeriesValue(body,
                  "saber_fault_fires_total{point=\"gpu.submit_reject\"}"),
      fault::FaultRegistry::Global().fires("gpu.submit_reject"));

  // Network front-end counters match the server stats struct.
  const net::ServerStats st = server.stats();
  EXPECT_EQ(SeriesValue(body, "saber_net_tuple_frames_total"),
            st.tuple_frames);
  EXPECT_EQ(SeriesValue(body, "saber_net_tuple_bytes_total"), st.tuple_bytes);
  EXPECT_EQ(SeriesValue(body, "saber_net_queries_submitted_total"),
            st.queries_submitted);

  // The server-managed ingress registered under its query/input label; the
  // merger ran, so merge cycles are non-zero. Watermark stalls expose
  // whatever the merger counted (2 producers draining at different speeds
  // usually stall it at least once — the value just has to agree with a
  // second scrape, i.e. be a real, stable counter).
  const std::string ingress = "{ingress=\"q" + std::to_string(id) + "/in0\"}";
  EXPECT_GT(
      SeriesValue(body, "saber_ingest_merge_cycles_total" + ingress), 0);
  const int64_t stalls =
      SeriesValue(body, "saber_watermark_stalls_total" + ingress);
  EXPECT_GE(stalls, 0) << "the stall series must exist for a live ingress";

  auto resp2 = Get(metrics.port(), "/metrics");
  ASSERT_TRUE(resp2.ok());
  EXPECT_EQ(
      SeriesValue(resp2.value().body, "saber_watermark_stalls_total" + ingress),
      stalls)
      << "quiesced counters must be identical across scrapes";

  // Engine per-query series carry the query/slot labels (the server names
  // wire-submitted queries "net-q<id>").
  EXPECT_GT(SeriesValue(body, "saber_engine_tuples_in_total{query=\"net-q" +
                                  std::to_string(id) + "\",slot=\"0\"}"),
            0);

  EXPECT_GE(metrics.requests_served(), 2);
  EXPECT_TRUE(control.value().Remove(id).ok());
  metrics.Stop();
  server.Stop();
  engine.Stop();
}

TEST_F(MetricsEndpointTest, ScrapeOfLocalIngressMatchesItsStatsStruct) {
  // A standalone ShardedIngress handed the engine registry: every number in
  // its stats() struct must be readable — equal — from the exposition.
  EngineOptions eo;
  eo.num_cpu_workers = 2;
  eo.use_gpu = false;
  Engine engine(eo);
  auto parsed = sql::Parse(
      "select timestamp, count(*) as n from Syn [rows 128]", MakeCatalog());
  ASSERT_TRUE(parsed.ok());
  auto q = engine.TryAddQuery(std::move(parsed).value());
  ASSERT_TRUE(q.ok());
  ASSERT_TRUE(q.value()->SetSink([](const uint8_t*, size_t) {}).ok());
  engine.Start();

  ingest::IngressOptions iopts;
  iopts.num_producers = 2;
  iopts.metrics = engine.metrics();
  iopts.metrics_label = "local";
  auto ingress = ingest::ShardedIngress::ForQuery(q.value(), 0, iopts);

  const size_t tsz = syn::SyntheticSchema().tuple_size();
  const auto stream = syn::Generate(32 << 10);
  for (int i = 0; i < 2; ++i) {
    auto shard = workloads::ExtractTimestampShard(stream, tsz, i, 2);
    ASSERT_TRUE(shard.ok());
    ASSERT_TRUE(ingress->producer(i)->Append(shard.value().data(),
                                             shard.value().size()));
    ingress->producer(i)->Close();
  }
  ingress->Drain();
  engine.Drain();

  net::HttpMetricsServer metrics(engine.metrics());
  ASSERT_TRUE(metrics.Start(0).ok());
  auto resp = Get(metrics.port(), "/metrics");
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  const std::string& body = resp.value().body;

  const ingest::IngressStats is = ingress->stats();
  EXPECT_EQ(SeriesValue(body, "saber_ingest_merged_batches_total"
                              "{ingress=\"local\"}"),
            is.merged_batches);
  EXPECT_EQ(SeriesValue(body, "saber_watermark_stalls_total"
                              "{ingress=\"local\"}"),
            is.watermark_stalls);
  for (int i = 0; i < 2; ++i) {
    const std::string labels =
        "{ingress=\"local\",producer=\"" + std::to_string(i) + "\"}";
    EXPECT_EQ(SeriesValue(body, "saber_ingest_tuples_total" + labels),
              is.producers[static_cast<size_t>(i)].tuples);
    EXPECT_EQ(
        SeriesValue(body, "saber_ingest_appends_total" + labels),
        is.producers[static_cast<size_t>(i)].appends);
  }

  // Destroying the ingress unregisters its series; the endpoint keeps
  // serving the engine's own families without them.
  ingress.reset();
  auto after = Get(metrics.port(), "/metrics");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().body.find("{ingress=\"local\"}"),
            std::string::npos);
  EXPECT_NE(after.value().body.find("saber_engine_tuples_in_total"),
            std::string::npos);

  metrics.Stop();
  engine.Stop();
}

TEST_F(MetricsEndpointTest, EndpointHandlesHealthzAndUnknownPaths) {
  obs::MetricsRegistry reg;
  reg.GetCounter("saber_test_total")->Increment(3);
  net::HttpMetricsServer metrics(&reg);
  ASSERT_TRUE(metrics.Start(0).ok());

  auto health = Get(metrics.port(), "/healthz");
  ASSERT_TRUE(health.ok());
  EXPECT_NE(health.value().head.find("200 OK"), std::string::npos);
  EXPECT_EQ(health.value().body, "ok\n");

  auto missing = Get(metrics.port(), "/nope");
  ASSERT_TRUE(missing.ok());
  EXPECT_NE(missing.value().head.find("404"), std::string::npos);

  auto scraped = Get(metrics.port(), "/metrics");
  ASSERT_TRUE(scraped.ok());
  EXPECT_EQ(SeriesValue(scraped.value().body, "saber_test_total"), 3);
  metrics.Stop();
}

}  // namespace
}  // namespace saber
