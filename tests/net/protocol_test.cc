#include "net/protocol.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "workloads/synthetic.h"

/// \file protocol_test.cc
/// The hostile-input battery of the network front end. Unit tests pin the
/// frame/payload codecs; the live tests throw every malformed shape the
/// wire can produce — truncated length prefixes, oversized lengths,
/// tuple-size mismatches, mid-frame disconnects, random bytes, slow-loris
/// partial writes, stop races — at a real server and require an error
/// response plus connection teardown, never a crash, hang or leak. The
/// suite runs under the ASan and TSan CI presets; the corpus seeds under
/// tests/net/corpus/ are replayed verbatim by CorpusReplayNeverCrashes.

namespace saber {
namespace {

using net::DataHello;
using net::FrameHeader;
using net::FrameType;
using net::kFrameHeaderBytes;
using net::kMaxFramePayload;
using net::kProtocolVersion;

// --------------------------------------------------------------------------
// Codec units.
// --------------------------------------------------------------------------

TEST(ProtocolCodec, FrameHeaderRoundTrip) {
  FrameHeader h;
  h.payload_len = 123456;
  h.type = FrameType::kTuples;
  uint8_t buf[kFrameHeaderBytes];
  net::EncodeFrameHeader(h, buf);
  auto back = net::DecodeFrameHeader(buf, kMaxFramePayload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().payload_len, 123456u);
  EXPECT_EQ(back.value().type, FrameType::kTuples);
}

TEST(ProtocolCodec, FrameHeaderRejectsUnknownType) {
  uint8_t buf[kFrameHeaderBytes] = {0, 0, 0, 0, 99};
  auto r = net::DecodeFrameHeader(buf, kMaxFramePayload);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolCodec, FrameHeaderRejectsOversizedPayload) {
  FrameHeader h;
  h.payload_len = kMaxFramePayload + 1;
  h.type = FrameType::kTuples;
  uint8_t buf[kFrameHeaderBytes];
  net::EncodeFrameHeader(h, buf);
  auto r = net::DecodeFrameHeader(buf, kMaxFramePayload);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("payload"), std::string::npos);

  // A server-configured smaller bound applies too.
  h.payload_len = 1024;
  net::EncodeFrameHeader(h, buf);
  EXPECT_FALSE(net::DecodeFrameHeader(buf, 1023).ok());
  EXPECT_TRUE(net::DecodeFrameHeader(buf, 1024).ok());
}

TEST(ProtocolCodec, DataHelloRoundTrip) {
  DataHello h;
  h.query_id = 7;
  h.input = 1;
  h.producer = 3;
  h.num_producers = 8;
  h.tuple_size = 32;
  h.allowed_lateness = 512;
  h.late_policy = 1;
  h.rate_bytes_per_sec = 1.5e6;
  const auto bytes = net::EncodeDataHello(h);
  auto back = net::DecodeDataHello(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().version, kProtocolVersion);
  EXPECT_EQ(back.value().query_id, 7u);
  EXPECT_EQ(back.value().input, 1);
  EXPECT_EQ(back.value().producer, 3);
  EXPECT_EQ(back.value().num_producers, 8);
  EXPECT_EQ(back.value().tuple_size, 32u);
  EXPECT_EQ(back.value().allowed_lateness, 512);
  EXPECT_EQ(back.value().late_policy, 1);
  EXPECT_DOUBLE_EQ(back.value().rate_bytes_per_sec, 1.5e6);
}

TEST(ProtocolCodec, DataHelloRejectsMalformedPayloads) {
  const auto good = net::EncodeDataHello(DataHello{});
  // Every truncation of a valid hello must be rejected, not read past —
  // except the one legal prefix: a hello without the trailing resume
  // token, the pre-resume wire format old producers still send (absence
  // means a fresh bind).
  const size_t legacy_len = good.size() - sizeof(uint64_t);
  for (size_t len = 0; len < good.size(); ++len) {
    if (len == legacy_len) {
      EXPECT_TRUE(net::DecodeDataHello(good.data(), len).ok()) << len;
      continue;
    }
    EXPECT_FALSE(net::DecodeDataHello(good.data(), len).ok()) << len;
  }
  // Trailing bytes are a framing bug, not padding.
  auto extra = good;
  extra.push_back(0);
  EXPECT_FALSE(net::DecodeDataHello(extra.data(), extra.size()).ok());
  // Unknown late-policy values are rejected at decode time.
  DataHello bad;
  bad.late_policy = 17;
  const auto bytes = net::EncodeDataHello(bad);
  EXPECT_FALSE(net::DecodeDataHello(bytes.data(), bytes.size()).ok());
}

TEST(ProtocolCodec, QueryInfoRoundTrip) {
  net::QueryInfo info;
  info.query_id = 42;
  info.num_inputs = 2;
  info.input_tuple_size[0] = 32;
  info.input_tuple_size[1] = 24;
  info.output_tuple_size = 16;
  info.name = "net-q42";
  info.output_schema = "{long timestamp, double load} [16B]";
  const auto bytes = net::EncodeQueryInfo(info);
  auto back = net::DecodeQueryInfo(bytes.data(), bytes.size());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().query_id, 42u);
  EXPECT_EQ(back.value().num_inputs, 2);
  EXPECT_EQ(back.value().input_tuple_size[1], 24u);
  EXPECT_EQ(back.value().name, "net-q42");
  EXPECT_EQ(back.value().output_schema, info.output_schema);
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(net::DecodeQueryInfo(bytes.data(), len).ok()) << len;
  }
}

TEST(ProtocolCodec, ErrorRoundTrip) {
  const Status in = Status::NotFound("no query 9");
  const auto bytes = net::EncodeError(in);
  const Status out = net::DecodeError(bytes.data(), bytes.size());
  EXPECT_EQ(out.code(), StatusCode::kNotFound);
  EXPECT_EQ(out.message(), "no query 9");
  // A truncated or corrupt error payload still decodes to *some* error.
  EXPECT_FALSE(net::DecodeError(bytes.data(), 0).ok());
}

TEST(ProtocolCodec, WireReaderIsBoundsChecked) {
  const uint8_t bytes[4] = {1, 2, 3, 4};
  net::WireReader r(bytes, sizeof(bytes));
  uint32_t u32;
  ASSERT_TRUE(r.ReadU32(&u32));
  int64_t i64;
  EXPECT_FALSE(r.ReadI64(&i64));  // exhausted
  uint8_t u8;
  EXPECT_FALSE(r.ReadU8(&u8));
  std::string s;
  net::WireReader r2(bytes, sizeof(bytes));  // length 0x04030201 > remaining
  EXPECT_FALSE(r2.ReadString(&s));
}

// --------------------------------------------------------------------------
// Live-server battery.
// --------------------------------------------------------------------------

constexpr const char* kQuerySql =
    "select timestamp, sum(a1) as s from Syn [rows 256 slide 64]";

class ProtocolBattery : public ::testing::Test {
 protected:
  void StartServer(net::ServerOptions opts = {}) {
    EngineOptions eo;
    eo.num_cpu_workers = 2;
    eo.use_gpu = false;
    eo.task_size = 32 << 10;
    engine_ = std::make_unique<Engine>(eo);
    engine_->Start();
    sql::Catalog catalog{{"Syn", syn::SyntheticSchema()}};
    server_ = std::make_unique<net::SaberServer>(engine_.get(), catalog, opts);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();  // server first, then the engine
    if (engine_) engine_->Stop();
  }

  /// Raw client socket (no protocol library): the attacker's view.
  net::Socket Raw() {
    auto s = net::Dial("127.0.0.1", server_->port());
    EXPECT_TRUE(s.ok());
    return std::move(s).value();
  }

  /// Sends raw bytes, then expects a kError frame followed by EOF.
  void ExpectErrorAndTeardown(const void* bytes, size_t len,
                              const std::string& expect_substr = "") {
    net::Socket s = Raw();
    ASSERT_TRUE(net::WriteFull(s.fd(), bytes, len).ok());
    std::vector<uint8_t> payload;
    (void)net::SetRecvTimeout(s.fd(), 5000);
    auto h = net::RecvFrame(s.fd(), kMaxFramePayload, &payload);
    ASSERT_TRUE(h.ok()) << h.status().ToString();
    ASSERT_EQ(h.value().type, FrameType::kError);
    const Status err = net::DecodeError(payload.data(), payload.size());
    EXPECT_FALSE(err.ok());
    if (!expect_substr.empty()) {
      EXPECT_NE(err.message().find(expect_substr), std::string::npos)
          << err.message();
    }
    // Teardown: the next read is EOF, not more frames.
    uint8_t b;
    EXPECT_FALSE(net::ReadFull(s.fd(), &b, 1).ok());
  }

  /// The server must still serve real clients: submit + remove a query.
  void ExpectHealthy() {
    auto c = net::ControlClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(c.ok()) << c.status().ToString();
    auto info = c.value().Submit(kQuerySql);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(c.value().Remove(info.value().query_id).ok());
  }

  uint32_t SubmitQuery(const std::string& sql = kQuerySql) {
    auto c = net::ControlClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(c.ok());
    control_ = std::move(c).value();
    auto info = control_.Submit(sql);
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    return info.value().query_id;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<net::SaberServer> server_;
  net::ControlClient control_;
};

TEST_F(ProtocolBattery, FirstFrameMustBeHello) {
  StartServer();
  std::vector<uint8_t> frame(kFrameHeaderBytes);
  FrameHeader h;
  h.payload_len = 0;
  h.type = FrameType::kSubmit;
  net::EncodeFrameHeader(h, frame.data());
  ExpectErrorAndTeardown(frame.data(), frame.size(), "expected a hello");
  EXPECT_GE(server_->stats().protocol_errors, 1);
  ExpectHealthy();
}

TEST_F(ProtocolBattery, BadHelloVersionRejected) {
  StartServer();
  std::vector<uint8_t> frame(kFrameHeaderBytes + 4);
  FrameHeader h;
  h.payload_len = 4;
  h.type = FrameType::kHelloControl;
  net::EncodeFrameHeader(h, frame.data());
  const uint32_t version = 999;
  std::memcpy(frame.data() + kFrameHeaderBytes, &version, 4);
  ExpectErrorAndTeardown(frame.data(), frame.size(), "protocol version");
}

TEST_F(ProtocolBattery, OversizedLengthPrefixTearsDown) {
  StartServer();
  // 0xffffffff length with a known type: must be rejected before any
  // allocation of that size, with a kError naming the violation.
  uint8_t frame[kFrameHeaderBytes] = {0xff, 0xff, 0xff, 0xff,
                                      static_cast<uint8_t>(FrameType::kTuples)};
  ExpectErrorAndTeardown(frame, sizeof(frame));
  ExpectHealthy();
}

TEST_F(ProtocolBattery, UnknownFrameTypeTearsDown) {
  StartServer();
  uint8_t frame[kFrameHeaderBytes] = {0, 0, 0, 0, 214};
  ExpectErrorAndTeardown(frame, sizeof(frame));
  ExpectHealthy();
}

TEST_F(ProtocolBattery, TruncatedHeaderDisconnectIsHarmless) {
  StartServer();
  for (int i = 0; i < 8; ++i) {
    net::Socket s = Raw();
    const uint8_t partial[3] = {0x10, 0x00, 0x00};
    ASSERT_TRUE(net::WriteFull(s.fd(), partial, i % 4).ok());
    s.Close();  // mid-header disconnect
  }
  ExpectHealthy();
}

TEST_F(ProtocolBattery, TupleSizeMismatchRejectedAtHello) {
  StartServer();
  const uint32_t id = SubmitQuery();
  DataHello hello;
  hello.query_id = id;
  hello.tuple_size = 24;  // Syn tuples are 32 bytes
  auto p = net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
  ASSERT_FALSE(p.ok());
  EXPECT_NE(p.status().message().find("tuple size mismatch"),
            std::string::npos)
      << p.status().ToString();
  EXPECT_TRUE(control_.Remove(id).ok());
}

TEST_F(ProtocolBattery, HelloValidationRejectsBadBindings) {
  StartServer();
  const uint32_t id = SubmitQuery();
  const auto tsz =
      static_cast<uint32_t>(syn::SyntheticSchema().tuple_size());

  DataHello unknown_query;
  unknown_query.query_id = id + 999;
  unknown_query.tuple_size = tsz;
  EXPECT_FALSE(
      net::ProducerClient::Connect("127.0.0.1", server_->port(), unknown_query)
          .ok());

  DataHello bad_input;
  bad_input.query_id = id;
  bad_input.input = 1;  // single-input query
  bad_input.tuple_size = tsz;
  EXPECT_FALSE(
      net::ProducerClient::Connect("127.0.0.1", server_->port(), bad_input)
          .ok());

  DataHello bad_slot;
  bad_slot.query_id = id;
  bad_slot.producer = 2;
  bad_slot.num_producers = 2;
  bad_slot.tuple_size = tsz;
  EXPECT_FALSE(
      net::ProducerClient::Connect("127.0.0.1", server_->port(), bad_slot)
          .ok());

  // Binding the same shard twice: first wins, second is AlreadyExists.
  DataHello ok_hello;
  ok_hello.query_id = id;
  ok_hello.tuple_size = tsz;
  auto first = net::ProducerClient::Connect("127.0.0.1", server_->port(),
                                            ok_hello);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = net::ProducerClient::Connect("127.0.0.1", server_->port(),
                                             ok_hello);
  ASSERT_FALSE(second.ok());
  EXPECT_NE(second.status().message().find("already bound"),
            std::string::npos);
  EXPECT_TRUE(first.value().End().ok());
  EXPECT_TRUE(control_.Remove(id).ok());
}

TEST_F(ProtocolBattery, MisalignedTuplePayloadTearsDownAndReleases) {
  StartServer();
  const uint32_t id = SubmitQuery();
  // The client library refuses to emit a partial tuple, so hand-roll the
  // hello and a kTuples frame whose payload is not a whole tuple count.
  DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(syn::SyntheticSchema().tuple_size());
  net::Socket raw = Raw();
  ASSERT_TRUE(
      net::SendFrame(raw.fd(), FrameType::kHelloData, net::EncodeDataHello(hello))
          .ok());
  std::vector<uint8_t> payload;
  auto hok = net::RecvFrame(raw.fd(), kMaxFramePayload, &payload);
  ASSERT_TRUE(hok.ok()) << hok.status().ToString();
  ASSERT_EQ(hok.value().type, FrameType::kHelloOk);

  std::vector<uint8_t> frame(kFrameHeaderBytes + 3);
  FrameHeader h;
  h.payload_len = 3;
  h.type = FrameType::kTuples;
  net::EncodeFrameHeader(h, frame.data());
  ASSERT_TRUE(net::WriteFull(raw.fd(), frame.data(), frame.size()).ok());
  (void)net::SetRecvTimeout(raw.fd(), 5000);
  auto err = net::RecvFrame(raw.fd(), kMaxFramePayload, &payload);
  ASSERT_TRUE(err.ok()) << err.status().ToString();
  ASSERT_EQ(err.value().type, FrameType::kError);
  const Status st = net::DecodeError(payload.data(), payload.size());
  EXPECT_NE(st.message().find("not a multiple"), std::string::npos)
      << st.ToString();
  // The violated shard closed cleanly: the query still drains and removes.
  EXPECT_TRUE(control_.Drain(id).ok());
  EXPECT_TRUE(control_.Remove(id).ok());
}

TEST_F(ProtocolBattery, LateTupleUnderAbortSemanticsIsErrorNotCrash) {
  StartServer();
  const uint32_t id = SubmitQuery();
  const Schema& schema = syn::SyntheticSchema();
  const size_t tsz = schema.tuple_size();
  DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  hello.allowed_lateness = 4;
  hello.late_policy = 0;  // kAbort semantics: server must kError, not die
  auto p = net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
  ASSERT_TRUE(p.ok());
  // ts = 100 then ts = 10: far beyond the lateness horizon.
  std::vector<uint8_t> tuples(2 * tsz, 0);
  int64_t ts = 100;
  std::memcpy(tuples.data(), &ts, sizeof(ts));
  ts = 10;
  std::memcpy(tuples.data() + tsz, &ts, sizeof(ts));
  Status sent = p.value().Send(tuples.data(), tuples.size());
  if (sent.ok()) sent = p.value().End();  // rejection may land on the close
  ASSERT_FALSE(sent.ok());
  // The kError either comes back as End()'s status or waits on the socket.
  std::string msg = sent.message();
  if (msg.find("late tuple") == std::string::npos) {
    msg = p.value().LastServerError().message();
  }
  EXPECT_NE(msg.find("late tuple"), std::string::npos) << sent.ToString();
  EXPECT_TRUE(control_.Remove(id).ok());
  ExpectHealthy();
}

TEST_F(ProtocolBattery, InOrderTuplesNearInt64MinPassTheLateCheck) {
  // The late check compares each timestamp with `max_seen − lateness`;
  // near INT64_MIN that difference must clamp, not overflow (the asan
  // preset's UBSan stops the server on a signed overflow).
  StartServer();
  const uint32_t id = SubmitQuery();
  const size_t tsz = syn::SyntheticSchema().tuple_size();
  DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  hello.allowed_lateness = 10;
  hello.late_policy = 0;  // kAbort semantics: the server's own late check
  auto p = net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  std::vector<uint8_t> tuples(2 * tsz, 0);
  for (int i = 0; i < 2; ++i) {
    const int64_t ts = std::numeric_limits<int64_t>::min() + 5 + i;
    std::memcpy(tuples.data() + i * tsz, &ts, sizeof(ts));
  }
  ASSERT_TRUE(p.value().Send(tuples.data(), tuples.size()).ok());
  ASSERT_TRUE(p.value().End().ok());
  EXPECT_TRUE(control_.Drain(id).ok());
  EXPECT_TRUE(control_.Remove(id).ok());
  ExpectHealthy();
}

TEST_F(ProtocolBattery, MidFrameDisconnectReleasesWatermark) {
  StartServer();
  const uint32_t id = SubmitQuery();
  const size_t tsz = syn::SyntheticSchema().tuple_size();
  // Producer 1 of 2 vanishes mid-frame; the other finishes. Drain must
  // complete — the disconnect maps to Close() and the watermark releases.
  DataHello hello;
  hello.query_id = id;
  hello.num_producers = 2;
  hello.tuple_size = static_cast<uint32_t>(tsz);
  auto p0 = net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
  ASSERT_TRUE(p0.ok());

  net::Socket raw = Raw();
  DataHello h1 = hello;
  h1.producer = 1;
  ASSERT_TRUE(
      net::SendFrame(raw.fd(), FrameType::kHelloData, net::EncodeDataHello(h1))
          .ok());
  std::vector<uint8_t> payload;
  auto hok = net::RecvFrame(raw.fd(), kMaxFramePayload, &payload);
  ASSERT_TRUE(hok.ok());
  ASSERT_EQ(hok.value().type, FrameType::kHelloOk);

  const auto stream = syn::Generate(4096);
  ASSERT_TRUE(p0.value().Send(stream.data(), stream.size() / tsz / 2 * tsz)
                  .ok());
  // Claim a 1024-byte payload, deliver half of it, disappear.
  FrameHeader h;
  h.payload_len = 1024;
  h.type = FrameType::kTuples;
  uint8_t header[kFrameHeaderBytes];
  net::EncodeFrameHeader(h, header);
  ASSERT_TRUE(net::WriteFull(raw.fd(), header, sizeof(header)).ok());
  ASSERT_TRUE(net::WriteFull(raw.fd(), stream.data(), 512).ok());
  raw.Close();

  ASSERT_TRUE(p0.value().End().ok());
  EXPECT_TRUE(control_.Drain(id).ok());  // hangs forever if the shard leaks
  EXPECT_TRUE(control_.Remove(id).ok());
}

TEST_F(ProtocolBattery, SlowLorisConnectionsAreSwept) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  StartServer(opts);
  // A mid-handshake crawler: two header bytes, then silence.
  net::Socket s = Raw();
  const uint8_t crumbs[2] = {0x01, 0x00};
  ASSERT_TRUE(net::WriteFull(s.fd(), crumbs, sizeof(crumbs)).ok());
  (void)net::SetRecvTimeout(s.fd(), 5000);
  uint8_t b;
  // The sweep closes us without a byte ever arriving.
  EXPECT_FALSE(net::ReadFull(s.fd(), &b, 1).ok());
  EXPECT_GE(server_->stats().timeouts, 1);
  ExpectHealthy();
}

TEST_F(ProtocolBattery, SlowLorisDataPlaneTimesOut) {
  net::ServerOptions opts;
  opts.idle_timeout_ms = 200;
  StartServer(opts);
  const uint32_t id = SubmitQuery();
  DataHello hello;
  hello.query_id = id;
  hello.tuple_size = static_cast<uint32_t>(syn::SyntheticSchema().tuple_size());
  auto p = net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
  ASSERT_TRUE(p.ok());
  // Say nothing: the reader's receive timeout closes the shard, the
  // watermark releases, and Drain/Remove complete.
  EXPECT_TRUE(control_.Drain(id).ok());
  EXPECT_TRUE(control_.Remove(id).ok());
  EXPECT_GE(server_->stats().timeouts, 1);
}

TEST_F(ProtocolBattery, RandomBytesNeverCrashTheServer) {
  StartServer();
  std::mt19937 rng(20260808);
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<int> len(1, 512);
  for (int round = 0; round < 40; ++round) {
    net::Socket s = Raw();
    std::vector<uint8_t> blob(static_cast<size_t>(len(rng)));
    for (auto& v : blob) v = static_cast<uint8_t>(byte(rng));
    // Half the rounds open with a valid control hello so the fuzz also
    // exercises the post-handshake dispatch.
    if (round % 2 == 0) {
      net::WireWriter w;
      w.U32(kProtocolVersion);
      ASSERT_TRUE(net::SendFrame(s.fd(), FrameType::kHelloControl, w.buf().data(),
                                 w.buf().size())
                      .ok());
      std::vector<uint8_t> payload;
      auto h = net::RecvFrame(s.fd(), kMaxFramePayload, &payload);
      ASSERT_TRUE(h.ok());
    }
    (void)net::WriteFull(s.fd(), blob.data(), blob.size());
    s.Close();
  }
  ExpectHealthy();
  EXPECT_GE(server_->stats().protocol_errors, 0);
}

TEST_F(ProtocolBattery, CorpusReplayNeverCrashes) {
  StartServer();
  const std::filesystem::path dir = SABER_NET_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  size_t replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".bin") continue;
    std::ifstream f(entry.path(), std::ios::binary);
    ASSERT_TRUE(f.good()) << entry.path();
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                               std::istreambuf_iterator<char>());
    net::Socket s = Raw();
    (void)net::WriteFull(s.fd(), bytes.data(), bytes.size());
    // Read whatever the server answers (error or nothing), then drop.
    (void)net::SetRecvTimeout(s.fd(), 250);
    std::vector<uint8_t> payload;
    (void)net::RecvFrame(s.fd(), kMaxFramePayload, &payload);
    s.Close();
    ++replayed;
  }
  EXPECT_GE(replayed, 6u) << "corpus seeds missing from " << dir;
  ExpectHealthy();
}

TEST_F(ProtocolBattery, ServerStopRacesClientsMidFrame) {
  // The satellite stress: Stop while N clients are mid-stream must wake
  // every reader and parked append, join everything, and leave the engine
  // healthy. Several rounds to give the race room.
  for (int round = 0; round < 3; ++round) {
    StartServer();
    const uint32_t id = SubmitQuery();
    constexpr int kClients = 4;
    const size_t tsz = syn::SyntheticSchema().tuple_size();
    std::atomic<bool> stop_feeding{false};
    std::vector<std::thread> clients;
    for (int i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        DataHello hello;
        hello.query_id = id;
        hello.producer = static_cast<uint16_t>(i);
        hello.num_producers = kClients;
        hello.tuple_size = static_cast<uint32_t>(tsz);
        auto p =
            net::ProducerClient::Connect("127.0.0.1", server_->port(), hello);
        if (!p.ok()) return;
        const auto shard = syn::GenerateShard(400000, i, kClients);
        const size_t chunk = 4096 * tsz;
        for (size_t off = 0; off < shard.size() && !stop_feeding.load();
             off += chunk) {
          if (!p.value()
                   .Send(shard.data() + off,
                         std::min(chunk, shard.size() - off))
                   .ok()) {
            return;  // server went away mid-frame: expected
          }
        }
        (void)p.value().End();
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30 + 40 * round));
    server_->Stop();  // races everything above
    stop_feeding.store(true);
    for (auto& t : clients) t.join();
    server_.reset();
    engine_->Stop();
    engine_.reset();
  }
}

}  // namespace
}  // namespace saber
