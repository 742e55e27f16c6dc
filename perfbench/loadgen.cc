/// perfbench_loadgen — drives a live saber_server child over loopback and
/// measures one benchmark run of one workload.
///
/// A run synthesises the workload's input from the seed, computes the
/// expected result stream in process (the oracle: one CPU worker, no GPGPU,
/// FCFS, direct QueryHandle::InsertInto — itself checked against
/// ReferenceEvaluate on a prefix), then repeats until `--seconds` are
/// spent, cycling through the workload's phases (closed loop for
/// throughput, paced for latency): spawn a fresh server, submit, subscribe,
/// bind the producers, send the whole input, Drain, Remove, stop the server.
/// Every repetition's result stream is compared with the oracle chunk by
/// chunk.
///
/// With --trace 1 the repetitions alternate between an untraced server and
/// one run with `--trace-sample 1 --trace-out FILE`, and the output is the
/// per-layer attribution instead of the end-to-end metrics.
///
/// Usage:
///   perfbench_loadgen --workload NAME --seed N --seconds S --trace 0|1
///       --server PATH --server-flags "FLAGS" --workdir DIR [--paced-rate R]
///
/// --paced-rate overrides the offered rate kPacedRate (tuples/s); it exists
/// to calibrate that rate (perfbench/README.md, "Offered rates").
///
/// Prints human-readable lines, then one JSON object as the last line:
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..},
///    "samples": {..}, "meta": {..}}

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "net/client.h"
#include "reference/reference.h"
#include "runtime/clock.h"
#include "server_process.h"
#include "trace_file.h"
#include "util.h"
#include "workloads.h"
#include "workloads/sharding.h"

using namespace saber;

namespace perfbench {
namespace {

constexpr int64_t kDigestRows = 1024;
constexpr int kServerStartTimeoutMs = 20'000;
constexpr int kServerStopTimeoutMs = 20'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string server;
  std::string server_flags;
  std::string workdir = ".";
  double paced_rate = 0;  ///< 0: kPacedRate
};

/// The server of the repetition in progress, reaped by Die.
ServerProcess* g_live_server = nullptr;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", msg.c_str());
  if (g_live_server != nullptr) g_live_server->Kill();
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) Die("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--server") a.server = v;
    else if (k == "--server-flags") a.server_flags = v;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--paced-rate") a.paced_rate = std::atof(v.c_str());
    else Die("unknown flag " + k);
  }
  if (a.server.empty()) Die("--server is required");
  if (a.seconds <= 0) Die("--seconds must be > 0");
  if (a.paced_rate < 0) Die("--paced-rate must be >= 0");
  return a;
}

std::vector<std::string> SplitFlags(const std::string& s) {
  std::istringstream in(s);
  std::vector<std::string> out;
  for (std::string t; in >> t;) out.push_back(t);
  return out;
}

/// Value of `--name V` in the server flags, or `fallback`.
std::string FlagValue(const std::vector<std::string>& flags,
                      const std::string& name, const std::string& fallback) {
  for (size_t i = 0; i + 1 < flags.size(); ++i) {
    if (flags[i] == name) return flags[i + 1];
  }
  return fallback;
}

int64_t TsAt(const std::vector<uint8_t>& d, size_t tsz, size_t i) {
  int64_t ts;
  std::memcpy(&ts, d.data() + i * tsz, sizeof(ts));
  return ts;
}

// ---------------------------------------------------------------------------
// Inputs: the generated stream, its producer shards, and the map from each
// timestamp group to its place in the stream and in its shard's send order.
// ---------------------------------------------------------------------------

struct Group {
  int64_t ts = 0;
  int64_t start = 0;  ///< index of the group's first tuple in the stream
  int64_t count = 0;
  int shard = 0;
  int64_t shard_start = 0;  ///< position of that tuple in the shard
};

/// The input of one repetition is back-to-back copies of one generated
/// stream, each copy's timestamps shifted by `period` past the previous
/// copy's, so a long run needs the memory of one copy only.
struct Inputs {
  size_t tuple_size = 0;
  int copies = 1;  ///< the most copies any phase sends
  int64_t period = 0;
  std::vector<uint8_t> stream;               ///< one copy
  std::vector<std::vector<uint8_t>> shards;  ///< one copy; empty with one producer
  std::vector<Group> groups;                 ///< over all copies
  /// Per shard, indices into `groups` in send order.
  std::vector<std::vector<size_t>> shard_groups;

  const std::vector<uint8_t>& shard(int p) const {
    return shards.empty() ? stream : shards[static_cast<size_t>(p)];
  }
  /// The group with timestamp `ts`, or nullptr (a result row carrying a
  /// timestamp the input never had is wrong, which the digest reports).
  const Group* FindGroup(int64_t ts) const {
    auto it = std::lower_bound(
        groups.begin(), groups.end(), ts,
        [](const Group& g, int64_t t) { return g.ts < t; });
    return it == groups.end() || it->ts != ts ? nullptr : &*it;
  }
  /// Stream index of the tuple at position `pos` of shard `p`.
  int64_t StreamIndex(int p, int64_t pos) const {
    const auto& by_pos = shard_groups[static_cast<size_t>(p)];
    auto it = std::upper_bound(
        by_pos.begin(), by_pos.end(), pos,
        [this](int64_t x, size_t g) { return x < groups[g].shard_start; });
    const Group& g = groups[*(it - 1)];
    return g.start + (pos - g.shard_start);
  }
  const Group& GroupOfIndex(int64_t i) const {
    auto it = std::upper_bound(
        groups.begin(), groups.end(), i,
        [](int64_t x, const Group& g) { return x < g.start; });
    return *(it - 1);
  }
};

/// Appends `count` tuples from `src` to *out with `shift` added to each
/// timestamp (field 0).
void AppendShifted(const uint8_t* src, size_t count, size_t tsz, int64_t shift,
                   std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->insert(out->end(), src, src + count * tsz);
  for (size_t i = 0; i < count; ++i) {
    uint8_t* p = out->data() + at + i * tsz;
    int64_t ts;
    std::memcpy(&ts, p, sizeof(ts));
    ts += shift;
    std::memcpy(p, &ts, sizeof(ts));
  }
}

Inputs MakeInputs(const Workload& w, uint64_t seed) {
  Inputs in;
  in.stream = GenerateInput(w, seed);
  in.tuple_size = ServerCatalog().at(w.stream).tuple_size();
  in.copies = std::max(w.closed_copies, w.paced_copies);
  const size_t tsz = in.tuple_size;
  const int64_t n0 = static_cast<int64_t>(in.stream.size() / tsz);
  in.period = TsAt(in.stream, tsz, static_cast<size_t>(n0 - 1)) -
              TsAt(in.stream, tsz, 0) + 1;
  for (int64_t i = 0; i < n0; ++i) {
    const int64_t ts = TsAt(in.stream, tsz, static_cast<size_t>(i));
    if (in.groups.empty() || in.groups.back().ts != ts) {
      Group g;
      g.ts = ts;
      g.start = i;
      g.shard = static_cast<int>(in.groups.size() % w.producers);
      g.shard_start = i;  // one producer: the shard is the stream
      in.groups.push_back(g);
    }
    ++in.groups.back().count;
  }
  for (int p = 0; w.producers > 1 && p < w.producers; ++p) {
    std::vector<uint8_t> shard =
        workloads::ExtractTimestampShard(in.stream, tsz, p, w.producers)
            .value();
    in.shards.push_back(workloads::ApplyBoundedDisorder(
        shard, tsz, w.jitter, seed * 7919 + static_cast<uint64_t>(p)));
    const std::vector<uint8_t>& s = in.shards.back();
    // Disorder keeps each group contiguous and in order inside the shard.
    for (size_t i = 0; i < s.size() / tsz; ++i) {
      const int64_t ts = TsAt(s, tsz, i);
      if (i > 0 && ts == TsAt(s, tsz, i - 1)) continue;
      const Group* g = in.FindGroup(ts);
      in.groups[static_cast<size_t>(g - in.groups.data())].shard_start =
          static_cast<int64_t>(i);
    }
  }
  // Later copies repeat the groups; the shard of a group is unchanged
  // because every copy holds a multiple of `producers` groups.
  if (in.groups.size() % static_cast<size_t>(w.producers) != 0) {
    Die("a copy must hold a multiple of the producer count of groups");
  }
  const size_t g0 = in.groups.size();
  for (int k = 1; k < in.copies; ++k) {
    for (size_t g = 0; g < g0; ++g) {
      Group x = in.groups[g];
      x.ts += k * in.period;
      x.start += k * n0;
      x.shard_start += k * static_cast<int64_t>(in.shard(x.shard).size() / tsz);
      in.groups.push_back(x);
    }
  }
  in.shard_groups.resize(static_cast<size_t>(w.producers));
  for (size_t g = 0; g < in.groups.size(); ++g) {
    in.shard_groups[static_cast<size_t>(in.groups[g].shard)].push_back(g);
  }
  for (auto& v : in.shard_groups) {
    std::sort(v.begin(), v.end(), [&in](size_t a, size_t b) {
      return in.groups[a].shard_start < in.groups[b].shard_start;
    });
  }
  return in;
}

// ---------------------------------------------------------------------------
// Oracle: the expected result stream, as chunk digests.
// ---------------------------------------------------------------------------

struct Oracle {
  std::vector<uint64_t> digests;
  int64_t rows = 0;
  double tuples_per_sec = 0;
  bool reference_ok = false;
  int64_t reference_rows = 0;
  size_t row_size = 0;
};

/// Whether two result rows agree. The reference model sums in stream order
/// and the engine per pane and task, so a floating-point aggregate can differ
/// in its last bits (CM1's sum(cpu) differs by one ulp on some seeds).
/// Integer fields must be equal; floating-point fields must agree to a
/// relative 1e-9, far closer than one lost or repeated input tuple allows.
bool RowsAgree(const Schema& schema, const uint8_t* a, const uint8_t* b) {
  for (const Field& f : schema.fields()) {
    double x, y;
    if (f.type == DataType::kDouble) {
      std::memcpy(&x, a + f.offset, 8);
      std::memcpy(&y, b + f.offset, 8);
    } else if (f.type == DataType::kFloat) {
      float fx, fy;
      std::memcpy(&fx, a + f.offset, 4);
      std::memcpy(&fy, b + f.offset, 4);
      x = fx;
      y = fy;
    } else {
      if (std::memcmp(a + f.offset, b + f.offset, TypeSize(f.type)) != 0) {
        return false;
      }
      continue;
    }
    if (!(std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y)))) {
      return false;
    }
  }
  return true;
}

Oracle RunOracle(const Workload& w, const Inputs& in, int copies,
                 size_t task_size) {
  QueryDef def = sql::Parse(w.sql, ServerCatalog(), w.name).value();
  Oracle o;
  o.row_size = def.output_schema.tuple_size();
  if (def.output_schema.FieldIndex("timestamp") != 0) {
    Die("result rows must lead with the timestamp");
  }
  // Anchor: the reference model on whole timestamp groups of a prefix. Its
  // output must be a row-for-row prefix of the oracle's full-stream output.
  const Group& cut = in.GroupOfIndex(
      static_cast<int64_t>(std::min(w.reference_tuples,
                                    in.stream.size() / in.tuple_size - 1)));
  const std::vector<uint8_t> prefix(
      in.stream.begin(),
      in.stream.begin() + static_cast<ptrdiff_t>(cut.start * in.tuple_size));
  const ByteBuffer want = ReferenceEvaluate(def, prefix);
  o.reference_rows = static_cast<int64_t>(want.size() / o.row_size);

  EngineOptions eo;
  eo.num_cpu_workers = 1;
  eo.use_gpu = false;
  eo.scheduler = SchedulerKind::kFcfs;
  eo.task_size = task_size;
  Engine engine(eo);
  QueryHandle* q = engine.AddQuery(def);
  ChunkDigester digester(o.row_size, kDigestRows);
  std::vector<uint8_t> head;
  q->SetSink([&](const uint8_t* d, size_t bytes) {
    digester.Add(d, bytes);
    const size_t keep =
        std::min(bytes, want.size() - std::min(want.size(), head.size()));
    head.insert(head.end(), d, d + keep);
  });
  engine.Start();
  const int64_t t0 = NowNanos();
  const size_t n0 = in.stream.size() / in.tuple_size;
  std::vector<uint8_t> buf;
  for (int k = 0; k < copies; ++k) {
    for (size_t i = 0; i < n0; i += w.send_tuples) {
      buf.clear();
      AppendShifted(in.stream.data() + i * in.tuple_size,
                    std::min(w.send_tuples, n0 - i), in.tuple_size,
                    k * in.period, &buf);
      q->InsertInto(0, buf.data(), buf.size());
    }
  }
  engine.Drain();
  const double secs = static_cast<double>(NowNanos() - t0) / 1e9;
  o.tuples_per_sec = static_cast<double>(n0 * static_cast<size_t>(copies)) / secs;
  o.rows = digester.rows();
  o.digests = digester.Finish();
  o.reference_ok = want.size() > 0 && head.size() == want.size();
  for (size_t off = 0; o.reference_ok && off < want.size(); off += o.row_size) {
    o.reference_ok = RowsAgree(def.output_schema, head.data() + off, want.data() + off);
  }
  return o;
}

// ---------------------------------------------------------------------------
// One repetition against a fresh server.
// ---------------------------------------------------------------------------

struct Chunk {
  int64_t first = 0;  ///< position of the chunk's first tuple in its shard
  int64_t n = 0;
  int64_t sched = 0;  ///< when the Send was due (closed loop: its start)
  int64_t start = 0;
  int64_t end = 0;
};

struct Batch {
  int64_t receipt = 0;  ///< NextBatch returned with the rows
  int64_t first_row = 0;
  int64_t rows = 0;
  size_t run_begin = 0;  ///< the batch's rows as Rep::runs [begin, end)
  size_t run_end = 0;
};

/// Consecutive result rows sharing a timestamp.
struct Run {
  int64_t ts = 0;
  int64_t rows = 0;
};

/// One kind of repetition: closed loop (rate 0), or open loop at `rate`
/// tuples/s over all producers. Each sends `copies` copies of the input.
struct Phase {
  bool paced = false;
  double rate = 0;
  int copies = 1;
  int64_t n = 0;
  Oracle oracle;
};

struct Rep {
  bool paced = false;
  int64_t n = 0;  ///< input tuples sent
  bool traced = false;
  std::string trace_path;
  double setup_s = 0;
  int64_t cpu_ns = 0;  ///< server CPU time over its whole life
  int64_t rss_kib = 0;
  int64_t t_remove = 0;  ///< Remove issued: later rows are end-of-stream flush
  int64_t t_end = 0;     ///< Remove returned
  int server_exit = 0;
  std::vector<std::vector<Chunk>> chunks;  ///< per producer
  std::vector<int64_t> producer_wall_ns;
  int64_t send_calls = 0;
  int64_t send_failures = 0;
  std::vector<Batch> batches;
  std::vector<Run> runs;
  int64_t rows = 0;
  int64_t result_bytes = 0;
  int64_t sub_wall_ns = 0;
  int64_t sub_busy_ns = 0;  ///< subscriber time outside NextBatch
  std::vector<uint64_t> digests;
  std::vector<uint8_t> first_chunk;  ///< raw rows of digest chunk 0
  Verdict verdict;
  bool negative_control_detected = false;
  std::vector<Scrape> periodic;
  Scrape post_drain;
  Scrape post_remove;
  std::string error;
};

/// The chunk of producer `p` holding shard position `pos`.
const Chunk& ChunkAt(const Rep& r, int p, int64_t pos) {
  const std::vector<Chunk>& cs = r.chunks[static_cast<size_t>(p)];
  if (cs.empty()) Die("producer " + std::to_string(p) + " sent nothing");
  auto it = std::upper_bound(
      cs.begin(), cs.end(), pos,
      [](int64_t x, const Chunk& c) { return x < c.first; });
  return *(it - 1);
}

/// The chunk that carried stream tuple `i`.
const Chunk& ChunkOfTuple(const Rep& r, const Inputs& in, int64_t i) {
  const Group& g = in.GroupOfIndex(i);
  return ChunkAt(r, g.shard, g.shard_start + (i - g.start));
}

/// Sends every copy of one shard. Chunk positions count across copies.
/// Open loop (ns_per_tuple > 0) sends each chunk when it is due. Closed loop
/// sends the next chunk once the previous Send returned and, from the first
/// result on, the stream index it reaches is at most `in_flight` tuples past
/// what the result stream has `reached` (no result can precede the first
/// window's closure, so the bound starts there).
void Produce(net::ProducerClient* pc, const Inputs& in, int shard,
             int copies, size_t send_tuples, int64_t t0, double ns_per_tuple,
             int64_t in_flight, const std::atomic<int64_t>* reached,
             std::vector<Chunk>* out, int64_t* wall_ns, int64_t* calls,
             int64_t* failures, std::atomic<int>* finished) {
  const std::vector<uint8_t>& data = in.shard(shard);
  const size_t tsz = in.tuple_size;
  const int64_t n0 = static_cast<int64_t>(data.size() / tsz);
  out->reserve(static_cast<size_t>(n0 * copies) / send_tuples + 1);
  std::vector<uint8_t> buf;
  int64_t frontier = 0;
  const int64_t begin = NowNanos();
  for (int k = 0; k < copies && *failures == 0; ++k) {
    for (int64_t i = 0; i < n0; i += static_cast<int64_t>(send_tuples)) {
      Chunk c;
      c.first = k * n0 + i;
      c.n = std::min<int64_t>(static_cast<int64_t>(send_tuples), n0 - i);
      buf.clear();
      AppendShifted(data.data() + static_cast<size_t>(i) * tsz,
                    static_cast<size_t>(c.n), tsz, k * in.period, &buf);
      if (ns_per_tuple > 0) {
        c.sched = t0 + static_cast<int64_t>(static_cast<double>(c.first) *
                                            ns_per_tuple);
        WaitUntilNanos(c.sched);
      } else {
        frontier = std::max(frontier,
                            in.StreamIndex(shard, c.first + c.n - 1) + 1);
        for (int64_t done = reached->load(std::memory_order_acquire);
             in_flight > 0 && done > 0 && frontier - done > in_flight;
             done = reached->load(std::memory_order_acquire)) {
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
      }
      c.start = NowNanos();
      if (ns_per_tuple <= 0) c.sched = c.start;
      const Status s = pc->Send(buf.data(), buf.size());
      c.end = NowNanos();
      ++*calls;
      if (!s.ok()) {
        ++*failures;
        std::fprintf(stderr, "Send failed: %s\n", s.ToString().c_str());
        break;
      }
      out->push_back(c);
    }
  }
  *wall_ns = NowNanos() - begin;
  finished->fetch_add(1);
  ++*calls;
  if (const Status s = pc->End(); !s.ok()) {
    ++*failures;
    std::fprintf(stderr, "End failed: %s\n", s.ToString().c_str());
  }
}

int64_t LastInputOf(const Batch& b, const Rep& r, const Inputs& in,
                    const Workload& w);

/// Reads the result stream until the subscription ends. `reached` is
/// raised to the input tuples each batch proves processed.
void Subscribe(net::ControlClient* sub, size_t row_size, const Inputs* in,
               const Workload* w, std::atomic<int64_t>* reached, Rep* r) {
  ChunkDigester digester(row_size, kDigestRows);
  const size_t first_chunk_bytes = static_cast<size_t>(kDigestRows) * row_size;
  std::vector<uint8_t> buf;
  const int64_t begin = NowNanos();
  int64_t in_next = 0;
  int64_t rows = 0;
  for (;;) {
    Batch b;
    const int64_t call = NowNanos();
    Result<bool> more = sub->NextBatch(&buf);
    b.receipt = NowNanos();
    in_next += b.receipt - call;
    if (!more.ok()) {
      r->error = "subscriber: " + more.status().ToString();
      break;
    }
    if (!more.value()) break;
    b.first_row = rows;
    b.rows = static_cast<int64_t>(buf.size() / row_size);
    rows += b.rows;
    r->result_bytes += static_cast<int64_t>(buf.size());
    b.run_begin = r->runs.size();
    for (int64_t k = 0; k < b.rows; ++k) {
      int64_t ts;
      std::memcpy(&ts, buf.data() + static_cast<size_t>(k) * row_size, 8);
      if (k == 0 || r->runs.back().ts != ts) r->runs.push_back({ts, 0});
      ++r->runs.back().rows;
    }
    b.run_end = r->runs.size();
    const int64_t reach = LastInputOf(b, *r, *in, *w) + 1;
    if (reach > 0) {
      if (reach > reached->load(std::memory_order_relaxed)) {
        reached->store(reach, std::memory_order_release);
      }
    }
    if (r->first_chunk.size() < first_chunk_bytes) {
      const size_t keep =
          std::min(buf.size(), first_chunk_bytes - r->first_chunk.size());
      r->first_chunk.insert(r->first_chunk.end(), buf.begin(),
                            buf.begin() + static_cast<ptrdiff_t>(keep));
    }
    digester.Add(buf.data(), buf.size());
    r->batches.push_back(b);
  }
  // No more results will raise `reached`: release closed-loop producers.
  reached->store(INT64_MAX, std::memory_order_release);
  r->rows = rows;
  r->sub_wall_ns = NowNanos() - begin;
  r->sub_busy_ns = r->sub_wall_ns - in_next;
  r->digests = digester.Finish();
}

Rep RunRep(const Args& args, const Workload& w, const Inputs& in,
           const Phase& phase, bool traced, int index) {
  const Oracle& oracle = phase.oracle;
  Rep r;
  r.paced = phase.paced;
  r.n = phase.n;
  r.traced = traced;
  std::vector<std::string> flags = SplitFlags(args.server_flags);
  if (traced) {
    r.trace_path = args.workdir + "/trace-" + w.name + "-" +
                   std::to_string(args.seed) + "-" + std::to_string(index) +
                   ".json";
    std::remove(r.trace_path.c_str());
    for (const std::string& f :
         {std::string("--trace-sample"), std::string("1"),
          std::string("--trace-out"), r.trace_path}) {
      flags.push_back(f);
    }
  }
  const int64_t t_spawn = NowNanos();
  auto proc = ServerProcess::Spawn(args.server, flags, kServerStartTimeoutMs);
  if (!proc.ok()) Die(proc.status().ToString());
  ServerProcess& server = *proc.value();
  g_live_server = &server;
  const std::string host = "127.0.0.1";

  auto control = net::ControlClient::Connect(host, server.port(), 5000);
  if (!control.ok()) Die("control connect: " + control.status().ToString());
  auto info = control.value().Submit(w.sql);
  if (!info.ok()) Die("submit: " + info.status().ToString());
  const uint32_t qid = info.value().query_id;
  auto sub = net::ControlClient::Connect(host, server.port(), 5000);
  if (!sub.ok()) Die("subscriber connect: " + sub.status().ToString());
  if (Status s = sub.value().Subscribe(qid); !s.ok()) {
    Die("subscribe: " + s.ToString());
  }
  std::vector<net::ProducerClient> producers;
  for (int p = 0; p < w.producers; ++p) {
    net::DataHello hello;
    hello.query_id = qid;
    hello.producer = static_cast<uint16_t>(p);
    hello.num_producers = static_cast<uint16_t>(w.producers);
    hello.tuple_size = static_cast<uint32_t>(in.tuple_size);
    hello.allowed_lateness = w.jitter;
    net::ReconnectPolicy policy;
    policy.connect_timeout_ms = 5000;
    auto pc = net::ProducerClient::Connect(host, server.port(), hello, policy);
    if (!pc.ok()) Die("producer connect: " + pc.status().ToString());
    producers.push_back(std::move(pc).value());
  }
  r.setup_s = static_cast<double>(NowNanos() - t_spawn) / 1e9;

  std::atomic<int64_t> reached{0};
  std::thread subscriber(Subscribe, &sub.value(), oracle.row_size, &in, &w,
                         &reached, &r);
  r.chunks.resize(static_cast<size_t>(w.producers));
  r.producer_wall_ns.resize(static_cast<size_t>(w.producers));
  std::vector<int64_t> calls(static_cast<size_t>(w.producers));
  std::vector<int64_t> failures(static_cast<size_t>(w.producers));
  const double ns_per_tuple = phase.paced ? 1e9 * w.producers / phase.rate : 0.0;
  const int64_t t0 = NowNanos() + 1'000'000;
  std::atomic<int> finished{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < w.producers; ++p) {
    const size_t i = static_cast<size_t>(p);
    threads.emplace_back(Produce, &producers[i], std::cref(in), p,
                         phase.copies, w.send_tuples, t0, ns_per_tuple,
                         static_cast<int64_t>(w.in_flight), &reached,
                         &r.chunks[i], &r.producer_wall_ns[i], &calls[i],
                         &failures[i], &finished);
  }
  // The /metrics gauge is sampled at a low fixed rate while the input flows,
  // on single-producer workloads only: with two producers a fifth
  // connection would exceed one connection per core.
  if (traced && w.producers == 1) {
    for (int64_t next = t0 + 100'000'000; finished.load() == 0;
         next += 100'000'000) {
      WaitUntilNanos(next);
      r.periodic.push_back(ParseExposition(server.ScrapeMetrics()));
    }
  }
  for (auto& t : threads) t.join();
  for (int p = 0; p < w.producers; ++p) {
    r.send_calls += calls[static_cast<size_t>(p)];
    r.send_failures += failures[static_cast<size_t>(p)];
  }
  if (Status s = control.value().Drain(qid); !s.ok()) {
    Die("drain: " + s.ToString());
  }
  if (traced) r.post_drain = ParseExposition(server.ScrapeMetrics());
  r.t_remove = NowNanos();
  if (Status s = control.value().Remove(qid); !s.ok()) {
    Die("remove: " + s.ToString());
  }
  r.t_end = NowNanos();
  subscriber.join();
  r.rss_kib = server.PeakRssKiB();
  r.post_remove = ParseExposition(server.ScrapeMetrics());
  producers.clear();
  control.value().Close();
  sub.value().Close();
  r.server_exit = server.Stop(kServerStopTimeoutMs);
  g_live_server = nullptr;
  r.cpu_ns = server.cpu_nanos();
  if (r.server_exit != 0) r.error += " server exit " + std::to_string(r.server_exit);

  const int64_t got_rows = r.rows;
  r.verdict = CompareDigests(r.digests, got_rows, oracle.digests, oracle.rows,
                             kDigestRows);
  // Negative control: the same comparison with one result byte flipped
  // must report a failure.
  if (!r.first_chunk.empty()) {
    std::vector<uint8_t> flipped = r.first_chunk;
    flipped[flipped.size() / 2] ^= 0x01;
    ChunkDigester d(oracle.row_size, kDigestRows);
    d.Add(flipped.data(), flipped.size());
    std::vector<uint64_t> tampered = r.digests;
    tampered[0] = d.Finish()[0];
    r.negative_control_detected =
        CompareDigests(tampered, got_rows, oracle.digests, oracle.rows,
                       kDigestRows)
            .failures() > 0;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Analysis.
// ---------------------------------------------------------------------------

double Ms(int64_t nanos) { return static_cast<double>(nanos) / 1e6; }

/// End-to-end latency samples of one repetition, in receipt order: per
/// result row received before Remove, receipt minus the time the Send
/// carrying the row's last contributing input tuple was due. For a window
/// result that is the last tuple with the row's timestamp (the window's max
/// input timestamp); for a stateless query, the row's own input tuple. Rows
/// sharing a batch and that tuple's Send form one weighted sample. Rows whose
/// last tuple lies in the warm-up share of the input are skipped.
struct RowSample {
  int64_t latency = 0;
  int64_t rows = 0;
  size_t batch = 0;
  int64_t sched = 0;
};

std::vector<RowSample> LatencySamples(const Rep& r, const Inputs& in,
                                      const Workload& w) {
  std::vector<RowSample> out;
  const int64_t warm = static_cast<int64_t>(w.warmup * static_cast<double>(r.n));
  for (size_t b = 0; b < r.batches.size(); ++b) {
    const Batch& batch = r.batches[b];
    if (batch.receipt >= r.t_remove) break;
    // Stateless: row i is input tuple i; split the batch's rows at group and
    // Send boundaries.
    const int64_t rows_end = std::min(batch.first_row + batch.rows, r.n);
    for (int64_t i = std::max(batch.first_row, warm);
         w.one_row_per_input && i < rows_end;) {
      const Group& g = in.GroupOfIndex(i);
      const int64_t pos = g.shard_start + (i - g.start);
      const Chunk& c = ChunkAt(r, g.shard, pos);
      const int64_t end = std::min({rows_end, g.start + g.count,
                                    i + c.first + c.n - pos});
      out.push_back({batch.receipt - c.sched, end - i, b, c.sched});
      i = end;
    }
    for (size_t k = batch.run_begin; !w.one_row_per_input && k < batch.run_end;
         ++k) {
      const Group* g = in.FindGroup(r.runs[k].ts);
      if (g == nullptr) continue;
      const int64_t last_tuple = g->start + g->count - 1;
      if (last_tuple < warm) continue;
      RowSample s;
      s.rows = r.runs[k].rows;
      s.batch = b;
      s.sched = ChunkOfTuple(r, in, last_tuple).sched;
      s.latency = batch.receipt - s.sched;
      out.push_back(s);
    }
  }
  return out;
}

std::vector<Weighted> LatencyMs(const std::vector<RowSample>& rows) {
  std::vector<Weighted> out;
  for (const RowSample& s : rows) out.push_back({Ms(s.latency), s.rows});
  return out;
}

/// The input tuple whose processing a result batch proves: for a stateless
/// query the input of its last row; for window results the tuple that
/// closed the last row's window (the first tuple past its timestamp; `n`
/// when the window closed at end of stream). -1 if the batch proves nothing.
int64_t LastInputOf(const Batch& b, const Rep& r, const Inputs& in,
                    const Workload& w) {
  if (b.rows == 0) return -1;
  if (w.one_row_per_input) return b.first_row + b.rows - 1;
  const Group* g = in.FindGroup(r.runs[b.run_end - 1].ts);
  return g == nullptr ? -1 : g->start + g->count;
}

/// Input tuples per second the server completed in steady state: between
/// the first result batch that reaches past the warm-up share of the input
/// and the last batch before Remove.
double SteadyThroughput(const Rep& r, const Inputs& in, const Workload& w) {
  const int64_t warm = static_cast<int64_t>(w.warmup * static_cast<double>(r.n));
  int64_t first_reach = -1, first_at = 0, last_reach = 0, last_at = 0;
  for (const Batch& b : r.batches) {
    if (b.receipt >= r.t_remove) break;
    const int64_t reach = LastInputOf(b, r, in, w) + 1;
    if (reach <= 0) continue;
    if (first_reach < 0 && reach >= warm) {
      first_reach = reach;
      first_at = b.receipt;
    }
    last_reach = reach;
    last_at = b.receipt;
  }
  if (first_reach < 0 || last_at <= first_at) return 0;
  return static_cast<double>(last_reach - first_reach) * 1e9 /
         static_cast<double>(last_at - first_at);
}

/// Open-loop schedule health after the warm-up share: how late Sends start,
/// and whether lateness or latency grows from the first to the last quarter.
struct Pacing {
  std::vector<double> lag_ms;
  double lag_growth_ms = 0;
  double latency_growth_ms = 0;
};

/// Median of the first or the last quarter (by count) of an ordered sample.
double QuarterMedian(const std::vector<Weighted>& v, bool last) {
  const int64_t total = TotalCount(v);
  std::vector<Weighted> part;
  int64_t cum = 0;
  for (const Weighted& x : v) {
    if (last ? cum >= total - total / 4 : cum + x.count <= total / 4) {
      part.push_back(x);
    }
    cum += x.count;
  }
  return Percentile(part, 0.5);
}

Pacing MeasurePacing(const Rep& r, const Inputs& in, const Workload& w,
                     const std::vector<RowSample>& rows) {
  Pacing p;
  std::vector<Weighted> lag;
  const int64_t warm = static_cast<int64_t>(w.warmup * static_cast<double>(r.n));
  for (size_t s = 0; s < r.chunks.size(); ++s) {
    for (const Chunk& c : r.chunks[s]) {
      if (in.StreamIndex(static_cast<int>(s), c.first) < warm) continue;
      p.lag_ms.push_back(Ms(c.start - c.sched));
      lag.push_back({p.lag_ms.back(), 1});
    }
  }
  p.lag_growth_ms = QuarterMedian(lag, true) - QuarterMedian(lag, false);
  const std::vector<Weighted> lat = LatencyMs(rows);
  p.latency_growth_ms = QuarterMedian(lat, true) - QuarterMedian(lat, false);
  return p;
}

struct Metric {
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};
using Metrics = std::map<std::string, Metric>;

void PutDist(Metrics* m, const std::string& base, const std::vector<double>& v) {
  (*m)[base + "_p50"] = {Percentile(v, 0.5), "ms", static_cast<int64_t>(v.size())};
  (*m)[base + "_p99"] = {Percentile(v, 0.99), "ms", static_cast<int64_t>(v.size())};
}

void PutDist(Metrics* m, const std::string& base, const std::vector<Weighted>& v) {
  (*m)[base + "_p50"] = {Percentile(v, 0.5), "ms", TotalCount(v)};
  (*m)[base + "_p99"] = {Percentile(v, 0.99), "ms", TotalCount(v)};
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer attribution of one traced repetition.
Metrics AttributeLayers(const Rep& r, const Inputs& in, const Workload& w,
                        int workers, std::map<std::string, double>* chain) {
  Metrics m;
  const TraceFile tf = ReadTraceFile(r.trace_path);
  if (!tf.ok) Die("cannot read trace file " + r.trace_path);
  std::remove(r.trace_path.c_str());
  const std::vector<TracedTask>& tasks = tf.tasks;

  // Place every task on the input: with every task traced, cumulative task
  // bytes give each task's tuple range (the ring keeps the newest spans, so
  // count back from the end of the stream).
  int64_t sum_bytes = 0;
  bool contiguous = true;
  for (size_t k = 0; k < tasks.size(); ++k) {
    sum_bytes += tasks[k].bytes;
    if (k > 0 && tasks[k].id != tasks[k - 1].id + 1) contiguous = false;
  }
  const int64_t total_bytes = r.n * static_cast<int64_t>(in.tuple_size);
  const bool placed = contiguous && !tasks.empty() && sum_bytes <= total_bytes &&
                      (sum_bytes == total_bytes ||
                       tf.spans_total > tf.spans_retained);
  std::vector<int64_t> task_end(tasks.size());  // exclusive tuple index
  {
    int64_t cum = total_bytes - sum_bytes;
    for (size_t k = 0; k < tasks.size(); ++k) {
      cum += tasks[k].bytes;
      task_end[k] = cum / static_cast<int64_t>(in.tuple_size);
    }
  }
  auto task_of_tuple = [&](int64_t i) -> int {
    auto it = std::upper_bound(task_end.begin(), task_end.end(), i);
    return it == task_end.end() ? -1 : static_cast<int>(it - task_end.begin());
  };
  // The Send that completed a task's input: of the Sends carrying the last
  // tuple of each timestamp group in the task, the one due last. (With two
  // disordered shards the task's last tuple in stream order need not be the
  // last one sent.)
  auto tail_of = [&](size_t k) -> const Chunk& {
    const int64_t first =
        k == 0 ? (total_bytes - sum_bytes) / static_cast<int64_t>(in.tuple_size)
               : task_end[k - 1];
    const Chunk* tail = nullptr;
    for (int64_t i = task_end[k] - 1; i >= first;) {
      const Chunk& c = ChunkOfTuple(r, in, i);
      if (tail == nullptr || c.sched > tail->sched) tail = &c;
      i = in.GroupOfIndex(i).start - 1;
    }
    return *tail;
  };

  // Stage distributions over complete tasks.
  std::vector<double> queue, assembly, sink, ingress, cpu_exec, gpu_exec;
  int64_t incomplete = 0;
  double cpu_ns = 0, gpu_ns = 0, cpu_bytes = 0, gpu_bytes = 0;
  int64_t cpu_tasks = 0, gpu_tasks = 0;
  for (size_t k = 0; k < tasks.size(); ++k) {
    const TracedTask& t = tasks[k];
    if (!t.complete) {
      ++incomplete;
      continue;
    }
    queue.push_back(Ms(t.t[kSelect] - t.t[kQueued]));
    assembly.push_back(Ms(t.t[kSinkBegin] - t.t[kExecEnd]));
    sink.push_back(Ms(t.t[kDone] - t.t[kSinkBegin]));
    const double exec = static_cast<double>(t.t[kExecEnd] - t.t[kSelect]);
    if (t.gpu) {
      gpu_exec.push_back(exec / 1e6);
      gpu_ns += exec;
      gpu_bytes += static_cast<double>(t.bytes);
      ++gpu_tasks;
    } else {
      cpu_exec.push_back(exec / 1e6);
      cpu_ns += exec;
      cpu_bytes += static_cast<double>(t.bytes);
      ++cpu_tasks;
    }
    if (placed && task_end[k] > 0) {
      ingress.push_back(Ms(t.t[kInsert] - tail_of(k).end));
    }
  }

  // Result batches → emitting task (one sink call per task with output).
  std::vector<int> batch_task(r.batches.size(), -1);
  std::vector<double> egress;
  int last_task = -1;
  for (size_t b = 0; placed && b < r.batches.size(); ++b) {
    const Batch& batch = r.batches[b];
    if (batch.rows == 0) continue;
    const int64_t last_input = LastInputOf(batch, r, in, w);
    if (last_input < 0) continue;
    const int k = last_input >= r.n ? static_cast<int>(tasks.size()) - 1
                                     : task_of_tuple(last_input);
    // A batch cannot arrive before its task reached the sink. (It can
    // arrive before the `done` stamp: the worker stamps that after the sink
    // call returns, and loopback delivery is faster.)
    if (k < 0 || k <= last_task || !tasks[static_cast<size_t>(k)].complete ||
        tasks[static_cast<size_t>(k)].t[kSinkBegin] > batch.receipt) {
      continue;
    }
    last_task = k;
    batch_task[b] = k;
    egress.push_back(Ms(batch.receipt - tasks[static_cast<size_t>(k)].t[kDone]));
  }

  // Per-row chain: fill → send → ingress → insert→create → dispatch →
  // queue wait → execute → assembly → sink → egress. Adjacent stamps
  // telescope to the row's latency by construction, so only a negative stage
  // (stamps out of causal order) or a row whose task could not be placed
  // leaves a remainder; `unchained` counts those rows.
  static const char* kChain[] = {"fill", "send", "ingress", "insert_create",
                                 "dispatch", "queue_wait", "execute",
                                 "assembly", "sink", "egress"};
  std::vector<std::vector<Weighted>> stage(10);
  std::vector<Weighted> unattributed;
  int64_t unchained = 0, unplaced = 0;
  int64_t negative[10] = {};
  for (const RowSample& s : LatencySamples(r, in, w)) {
    const int k = batch_task[s.batch];
    if (k < 0) {
      unattributed.push_back({Ms(s.latency), s.rows});
      unchained += s.rows;
      unplaced += s.rows;
      continue;
    }
    const TracedTask& t = tasks[static_cast<size_t>(k)];
    const Chunk& tail = tail_of(static_cast<size_t>(k));
    const int64_t receipt = r.batches[s.batch].receipt;
    const int64_t parts[10] = {
        tail.sched - s.sched,          tail.end - tail.sched,
        t.t[kInsert] - tail.end,       t.t[kCreate] - t.t[kInsert],
        t.t[kQueued] - t.t[kCreate],   t.t[kSelect] - t.t[kQueued],
        t.t[kExecEnd] - t.t[kSelect],  t.t[kSinkBegin] - t.t[kExecEnd],
        t.t[kDone] - t.t[kSinkBegin],  receipt - t.t[kDone]};
    int64_t attributed = 0;
    for (int i = 0; i < 10; ++i) {
      stage[static_cast<size_t>(i)].push_back({Ms(parts[i]), s.rows});
      attributed += std::max<int64_t>(0, parts[i]);
      if (parts[i] < 0) negative[i] += s.rows;
    }
    if (*std::min_element(parts, parts + 10) < 0) unchained += s.rows;
    unattributed.push_back({Ms(std::llabs(s.latency - attributed)), s.rows});
  }
  std::printf("unchained rows: %lld of %lld; unplaced %lld; negative stage",
              static_cast<long long>(unchained),
              static_cast<long long>(TotalCount(unattributed)),
              static_cast<long long>(unplaced));
  for (int i = 0; i < 10; ++i) {
    (*chain)[kChain[i]] = Percentile(stage[static_cast<size_t>(i)], 0.5);
    std::printf(" %s=%lld", kChain[i], static_cast<long long>(negative[i]));
  }
  std::printf("\n");
  const std::vector<Weighted>& fill = stage[0];

  // Producer and subscriber side.
  std::vector<double> send;
  int64_t send_ns = 0, producer_ns = 0;
  std::vector<double> lag;
  int64_t first_start = INT64_MAX;
  for (size_t p = 0; p < r.chunks.size(); ++p) {
    for (const Chunk& c : r.chunks[p]) {
      send.push_back(Ms(c.end - c.start));
      send_ns += c.end - c.start;
      lag.push_back(Ms(c.start - c.sched));
      first_start = std::min(first_start, c.start);
    }
    producer_ns += r.producer_wall_ns[p];
  }
  const double interval = static_cast<double>(r.t_end - first_start);

  const Scrape& d = r.post_drain;
  const Scrape& e = r.post_remove;
  auto put = [&m](const char* name, double value, const char* unit,
                  double samples) {
    m[name] = {value, unit, static_cast<int64_t>(samples)};
  };
  const double frames = e.Get("saber_net_tuple_frames_total");
  const double result_batches = e.Get("saber_net_result_batches_total");
  const double sealed = d.Get("saber_ingest_merge_cycles_total");
  const double cycles = sealed + d.Get("saber_watermark_stalls_total");
  const double merge_runs = d.Get("saber_ingest_merge_runs_total");
  const double engine_tasks = e.Get("saber_engine_tasks_total");
  std::vector<double> depth;
  for (const Scrape& s : r.periodic) {
    depth.push_back(s.Get("saber_engine_queue_depth"));
  }
  if (depth.empty()) depth.push_back(d.Get("saber_engine_queue_depth"));
  double depth_sum = 0;
  for (double v : depth) depth_sum += v;

  PutDist(&m, "net.send_ms", send);
  put("net.send_blocked_share",
      Ratio(static_cast<double>(send_ns), static_cast<double>(producer_ns)),
      "ratio", static_cast<double>(send.size()));
  put("net.bytes_per_frame",
      Ratio(e.Get("saber_net_tuple_bytes_total"), frames), "B", frames);
  put("net.result_bytes_per_batch",
      Ratio(static_cast<double>(r.result_bytes), result_batches), "B",
      result_batches);
  PutDist(&m, "net.egress_ms", egress);
  put("net.failures",
      static_cast<double>(r.send_failures) +
          e.Get("saber_net_protocol_errors_total") +
          e.Get("saber_net_subscriber_overflows_total"),
      "count", 1);
  PutDist(&m, "ingest.ingress_ms", ingress);
  put("ingest.backpressure_waits",
      d.Get("saber_ingest_backpressure_waits_total"), "count", 1);
  put("ingest.seal_share", Ratio(sealed, cycles), "ratio", cycles);
  put("ingest.bytes_per_run",
      Ratio(d.Get("saber_ingest_merged_bytes_total"), merge_runs), "B",
      merge_runs);
  put("ingest.late_dropped", d.Get("saber_ingest_late_dropped_total"),
      "count", 1);
  PutDist(&m, "core.fill_ms", fill);
  PutDist(&m, "core.queue_wait_ms", queue);
  PutDist(&m, "core.assembly_ms", assembly);
  PutDist(&m, "core.sink_ms", sink);
  put("core.task_bytes_mean",
      Ratio(e.Get("saber_engine_task_bytes_total"), engine_tasks), "B",
      engine_tasks);
  put("core.queue_depth_mean", depth_sum / static_cast<double>(depth.size()),
      "tasks", static_cast<double>(depth.size()));
  put("core.gpu_task_share",
      Ratio(e.GetProcessor("saber_engine_tasks_total", "gpu"), engine_tasks),
      "ratio", engine_tasks);
  put("core.tasks", engine_tasks, "count", 1);
  PutDist(&m, "cpu.execute_ms", cpu_exec);
  put("cpu.execute_ns_per_byte", Ratio(cpu_ns, cpu_bytes), "ns/B",
      static_cast<double>(cpu_tasks));
  put("cpu.busy_share", Ratio(cpu_ns, workers * interval), "ratio",
      static_cast<double>(cpu_tasks));
  put("cpu.tasks", static_cast<double>(cpu_tasks), "count", 1);
  PutDist(&m, "gpu.execute_ms", gpu_exec);
  put("gpu.execute_ns_per_byte", Ratio(gpu_ns, gpu_bytes), "ns/B",
      static_cast<double>(gpu_tasks));
  put("gpu.inflight_mean", Ratio(gpu_ns, interval), "tasks",
      static_cast<double>(gpu_tasks));
  put("gpu.task_retries", e.Get("saber_gpu_task_retries_total"), "count", 1);
  put("gpu.tasks", static_cast<double>(gpu_tasks), "count", 1);
  put("loadgen.send_lag_ms_p99", Percentile(lag, 0.99), "ms",
      static_cast<double>(lag.size()));
  put("loadgen.subscriber_busy_share",
      Ratio(static_cast<double>(r.sub_busy_ns),
            static_cast<double>(r.sub_wall_ns)),
      "ratio", static_cast<double>(r.batches.size()));
  put("trace.spans_total", static_cast<double>(tf.spans_total), "count", 1);
  put("trace.spans_retained", static_cast<double>(tf.spans_retained), "count",
      1);
  put("trace.incomplete_spans", static_cast<double>(incomplete), "count", 1);
  put("trace.unattributed_ms_p50", Percentile(unattributed, 0.5), "ms",
      static_cast<double>(TotalCount(unattributed)));
  put("trace.unchained_row_share",
      Ratio(static_cast<double>(unchained),
            static_cast<double>(TotalCount(unattributed))),
      "ratio", static_cast<double>(TotalCount(unattributed)));
  if (!placed) {
    std::fprintf(stderr, "trace: tasks could not be placed on the input "
                 "(retained %zu spans, %lld of %lld bytes, contiguous=%d)\n",
                 tasks.size(), static_cast<long long>(sum_bytes),
                 static_cast<long long>(total_bytes), contiguous ? 1 : 0);
  }
  return m;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Workload w;
  if (!FindWorkload(args.workload, &w)) Die("unknown workload " + args.workload);
  const std::vector<std::string> flags = SplitFlags(args.server_flags);
  const size_t task_size = static_cast<size_t>(
      std::atoll(FlagValue(flags, "--task-size", "1048576").c_str()));
  const int workers = std::atoi(FlagValue(flags, "--workers", "4").c_str());

  const int64_t t_synth = NowNanos();
  const Inputs in = MakeInputs(w, args.seed);
  const double synth_s = static_cast<double>(NowNanos() - t_synth) / 1e9;
  const int64_t n0 = static_cast<int64_t>(in.stream.size() / in.tuple_size);

  // The primary phase carries the workload's throughput and its traced
  // runs: closed loop where the workload saturates, else the paced phase.
  std::vector<Phase> phases;
  if (w.closed_copies > 0) phases.push_back({false, 0.0, w.closed_copies, 0, {}});
  if (w.paced_copies > 0) {
    phases.push_back({true, args.paced_rate > 0 ? args.paced_rate : kPacedRate,
                      w.paced_copies, 0, {}});
  }
  for (Phase& ph : phases) {
    ph.n = n0 * ph.copies;
    ph.oracle = RunOracle(w, in, ph.copies, task_size);
    std::printf("workload %s seed %llu %s: %lld input tuples; oracle %lld rows "
                "at %.0f tuples/s; reference prefix %lld rows %s\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                ph.paced ? "paced" : "closed loop",
                static_cast<long long>(ph.n),
                static_cast<long long>(ph.oracle.rows), ph.oracle.tuples_per_sec,
                static_cast<long long>(ph.oracle.reference_rows),
                ph.oracle.reference_ok ? "match" : "MISMATCH");
  }
  std::printf("input synthesis %.2fs\n", synth_s);
  const Phase& primary = phases.front();

  // Repetitions until the measuring budget is spent, cycling through the
  // phases; trace mode alternates untraced and traced primary repetitions.
  std::vector<Rep> reps;
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(args.seconds * 1e9);
  for (int i = 0;; ++i) {
    const bool traced = args.trace && i % 2 == 1;
    const Phase& ph =
        args.trace ? primary : phases[static_cast<size_t>(i) % phases.size()];
    reps.push_back(RunRep(args, w, in, ph, traced, i));
    const Rep& r = reps.back();
    const std::vector<Weighted> lat = LatencyMs(LatencySamples(r, in, w));
    std::printf("rep %d %s%s: setup %.4fs, %.4g tuples/s, latency p50 %.3f ms "
                "p99 %.3f ms, cpu %.1f ns/tuple, %lld batches, %lld rows, "
                "failures %lld%s%s\n",
                i, r.paced ? "paced" : "closed", traced ? " traced" : "",
                r.setup_s, SteadyThroughput(r, in, w), Percentile(lat, 0.5),
                Percentile(lat, 0.99),
                static_cast<double>(r.cpu_ns) / static_cast<double>(r.n),
                static_cast<long long>(r.batches.size()),
                static_cast<long long>(r.rows),
                static_cast<long long>(r.verdict.failures() + r.send_failures),
                r.error.empty() ? "" : "; ", r.error.c_str());
    std::fflush(stdout);
    const bool every_phase =
        args.trace ? i >= 1 : i + 1 >= static_cast<int>(phases.size());
    if (NowNanos() >= deadline && every_phase) break;
  }

  // Correctness over every repetition.
  int64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const Phase& ph : phases) correct = correct && ph.oracle.reference_ok;
  bool negative_control = true;
  for (const Rep& r : reps) {
    attempted += r.send_calls + r.verdict.expected;
    failed += r.send_failures + r.verdict.failures();
    negative_control = negative_control && r.negative_control_detected;
    correct = correct && r.error.empty();
  }
  correct = correct && negative_control && failed == 0;

  // End-to-end figures from the untraced repetitions: throughput, CPU and
  // memory from the primary phase, latency from the paced phase, set-up
  // from every repetition.
  std::vector<double> setup, tps, cpu, rss, lag, lag_growth, lat_growth;
  std::vector<double> busy;
  // Every row of a batch shares its receipt, so a repetition's tail rests on
  // a few batches; latency percentiles are taken over the rows of all paced
  // repetitions together.
  std::vector<Weighted> latency;
  int64_t latency_batches = 0;
  for (const Rep& r : reps) {
    if (r.traced) continue;
    setup.push_back(r.setup_s);
    busy.push_back(Ratio(static_cast<double>(r.sub_busy_ns),
                         static_cast<double>(r.sub_wall_ns)));
    if (r.paced == primary.paced) {
      tps.push_back(SteadyThroughput(r, in, w));
      cpu.push_back(static_cast<double>(r.cpu_ns) / static_cast<double>(r.n));
      rss.push_back(static_cast<double>(r.rss_kib) / 1024.0);
    }
    if (!r.paced) continue;
    const std::vector<RowSample> rows = LatencySamples(r, in, w);
    const std::vector<Weighted> rep_latency = LatencyMs(rows);
    latency.insert(latency.end(), rep_latency.begin(), rep_latency.end());
    for (size_t k = 0; k < rows.size(); ++k) {
      latency_batches += k == 0 || rows[k].batch != rows[k - 1].batch;
    }
    const Pacing p = MeasurePacing(r, in, w, rows);
    lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
    lag_growth.push_back(p.lag_growth_ms);
    lat_growth.push_back(p.latency_growth_ms);
  }
  Metrics e2e;
  e2e["throughput_tps"] = {Median(tps), "tuples/s",
                           static_cast<int64_t>(tps.size())};
  // The tail is printed with the latency line below but is not a reported
  // metric: across runs it follows the host's steal time (README, "First
  // numbers"), so no regression bound can hold on it.
  e2e["latency_p50_ms"] = {Percentile(latency, 0.5), "ms", TotalCount(latency)};
  e2e["server_cpu_ns_per_tuple"] = {Median(cpu), "ns",
                                    static_cast<int64_t>(cpu.size())};
  e2e["peak_rss_mb"] = {Median(rss), "MiB", static_cast<int64_t>(rss.size())};
  e2e["setup_s"] = {Median(setup), "s", static_cast<int64_t>(setup.size())};

  // Open-loop validity: a run behind schedule or with a growing backlog
  // yields no latency number.
  const double lag_p99 = Percentile(lag, 0.99);
  const double lag_growth_ms = Median(lag_growth);
  const double lat_growth_ms = Median(lat_growth);
  bool sustainable = true;
  const Phase& paced = phases.back();
  if (paced.paced && !args.trace) {
    sustainable = lag_p99 <= 20.0 && lag_growth_ms <= 5.0 &&
                  lat_growth_ms <= std::max(5.0, e2e["latency_p50_ms"].value);
    std::printf("pacing: offered %.0f tuples/s, send lag p99 %.3f ms, lag "
                "growth %.3f ms, latency growth %.3f ms -> %s\n",
                paced.rate, lag_p99, lag_growth_ms, lat_growth_ms,
                sustainable ? "sustainable" : "UNSUSTAINABLE");
  }
  if (!latency.empty()) {
    std::printf("latency (ms) over %lld rows in %lld result batches:",
                static_cast<long long>(TotalCount(latency)),
                static_cast<long long>(latency_batches));
    for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
      std::printf(" p%g %.3f", q * 100, Percentile(latency, q));
    }
    std::printf("\n");
  }
  std::printf("subscriber busy share (outside NextBatch): %.3f\n", Median(busy));

  Metrics out;
  std::map<std::string, double> chain_out;
  if (!args.trace) {
    out = e2e;
  } else {
    std::map<std::string, std::vector<double>> per;
    std::map<std::string, std::string> units;
    std::map<std::string, int64_t> samples;
    std::map<std::string, std::vector<double>> chains;
    std::vector<double> traced_cpu;
    for (const Rep& r : reps) {
      if (!r.traced) continue;
      std::map<std::string, double> chain;
      const Metrics m = AttributeLayers(r, in, w, workers, &chain);
      for (const auto& [k, v] : m) {
        per[k].push_back(v.value);
        units[k] = v.unit;
        samples[k] += v.samples;
      }
      for (const auto& [k, v] : chain) chains[k].push_back(v);
      traced_cpu.push_back(static_cast<double>(r.cpu_ns) / static_cast<double>(r.n));
    }
    for (const auto& [k, v] : per) out[k] = {Median(v), units[k], samples[k]};
    for (const auto& [k, v] : chains) chain_out[k] = Median(v);
    out["cpu.inproc_1t_tps"] = {primary.oracle.tuples_per_sec, "tuples/s", 1};
    out["trace.overhead_share"] = {Ratio(Median(traced_cpu), Median(cpu)) - 1.0,
                                   "ratio",
                                   static_cast<int64_t>(traced_cpu.size())};
    out["error_share"] = {Ratio(static_cast<double>(failed),
                                static_cast<double>(attempted)),
                          "ratio", attempted};
  }

  for (const auto& [k, v] : out) {
    std::printf("metric %-32s %16.6g %-9s samples %lld\n", k.c_str(), v.value,
                v.unit.c_str(), static_cast<long long>(v.samples));
  }
  if (!chain_out.empty()) {
    std::printf("latency chain medians (ms):");
    for (const char* k : {"fill", "send", "ingress", "insert_create", "dispatch",
                          "queue_wait", "execute", "assembly", "sink", "egress"}) {
      std::printf(" %s=%.4f", k, chain_out[k]);
    }
    std::printf("\n");
  }
  std::printf("correctness: %lld failures in %lld attempts; negative control %s\n",
              static_cast<long long>(failed), static_cast<long long>(attempted),
              negative_control ? "detected" : "NOT DETECTED");
  if (!sustainable) {
    std::fprintf(stderr, "perfbench_loadgen: open loop fell behind at %.0f "
                 "tuples/s; no result\n", paced.rate);
    return 3;
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [k, v] : out) {
    json += (first ? "" : ", ") + JsonString(k) + ": {\"value\": " +
            JsonNumber(v.value) + ", \"unit\": " + JsonString(v.unit) + "}";
    first = false;
  }
  json += "}, \"samples\": {";
  first = true;
  for (const auto& [k, v] : out) {
    json += (first ? "" : ", ") + JsonString(k) + ": " + std::to_string(v.samples);
    first = false;
  }
  json += "}, \"meta\": {";
  json += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  json += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  json += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  json += ", \"server_flags\": " + JsonString(args.server_flags);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"input_tuples_closed\": " + std::to_string(w.closed_copies * n0);
  json += ", \"input_tuples_paced\": " + std::to_string(w.paced_copies * n0);
  json += ", \"offered_rate_tps\": " + JsonNumber(paced.paced ? paced.rate : 0);
  json += ", \"repetitions\": " + std::to_string(reps.size());
  json += ", \"negative_control_detected\": ";
  json += negative_control ? "true" : "false";
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
