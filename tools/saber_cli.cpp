/// saber_cli — run a streaming SQL query from the command line against one of
/// the built-in workload generators, print the first output rows and the
/// engine statistics. Exercises the SQL front end, the hybrid engine and the
/// workload generators end to end.
///
/// Usage:
///   saber_cli [options] "SELECT ... FROM <stream> [rows N slide M] ..."
///
/// Streams available in the catalog (Table 1):
///   Syn          32 B synthetic tuples  {timestamp,a1..a6}
///   TaskEvents   cluster-monitoring trace (CM1/CM2 schema)
///   SmartGridStr smart-meter readings (SG1-SG3 schema)
///   PosSpeedStr  Linear Road position reports (LRB1-LRB4 schema)
///
/// Options:
///   --tuples N      tuples to generate per input stream   (default 1000000)
///                   (1 to 2^30)
///   --workers N     CPU worker threads                    (default 4)
///                   (0 to 256; 0 leaves every task to the GPGPU)
///   --no-gpu        run without the simulated GPGPU
///   --task-size B   query task size phi in bytes          (default 1 MiB)
///                   (64 B to 64 MiB, the default input buffer)
///   --limit N       output rows to print                  (default 10)
///   --seed N        generator seed                        (default 42)
///   --producers N   sharded ingestion: N producer threads per input feed
///                   the query through ingest::ShardedIngress (default 1 =
///                   direct single-producer insertion). Streams — generated
///                   or CSV — are partitioned by whole timestamp groups,
///                   so output is byte-identical to the single-producer
///                   run.
///   --rate B        meter each sharded producer at B bytes/second
///                   (per-tenant token bucket; requires --producers >= 2)
///   --disorder J    inject bounded timestamp disorder into each generated
///                   producer shard: every tuple arrives at most J timestamp
///                   units late (workloads::ApplyBoundedDisorder; seeded).
///                   Implies ingestion through ingest::ShardedIngress even
///                   with --producers 1.
///   --lateness L    per-producer allowed lateness: an ingress reorder
///                   buffer sorts tuples within L timestamp units before the
///                   watermark merge (IngressOptions::allowed_lateness).
///                   With L >= J the output is byte-identical to the
///                   in-order run. Implies ingress like --disorder.
///   --late-policy P what happens to tuples older than the lateness
///                   horizon: abort (default, fail fast), drop (count in
///                   ingest stats), dead-letter (divert to a side sink,
///                   counted and reported)
///   --churn N       while the main workload streams, run N add/remove
///                   cycles of a synthetic selection (weight 2) against the
///                   live engine; admission/removal latency percentiles are
///                   reported with the statistics
///   --metrics       after the run, dump the full metrics snapshot in the
///                   Prometheus text exposition format (the same bytes a
///                   saber_server /metrics scrape returns; local-only)
///   --trace FILE    write sampled task spans as Chrome trace_event JSON
///                   (chrome://tracing / Perfetto; local-only). Samples
///                   every task unless --trace-sample lowers the rate.
///   --trace-sample R  task-path trace sampling rate in [0,1]
///   --input F.csv   read input stream 0 from a CSV file (header expected;
///                   streamed in bounded chunks for single-input queries)
///   --output F.csv  write the ordered output stream to a CSV file
///   --connect H:P   remote mode: submit the SQL to a saber_server at host
///                   H port P, feed the generated streams over the data
///                   plane (--producers TCP connections per input, sharded
///                   by timestamp group) and subscribe to the results.
///                   --lateness/--late-policy/--rate travel in the data
///                   handshake; --input and --churn are local-only.
///
/// Examples:
///   saber_cli "select timestamp, avg(a1) as load from Syn [rows 256 slide 64]"
///   saber_cli "select timestamp, category, sum(cpu) as total
///              from TaskEvents [range 60 slide 1] group by category"
///   saber_cli --no-gpu "select * from PosSpeedStr [range unbounded]
///              where speed > 60.0"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "ingest/sharded_ingress.h"
#include "int_flag.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "io/csv.h"
#include "net/client.h"
#include "runtime/blocking_queue.h"
#include "runtime/clock.h"
#include "sql/parser.h"
#include "workloads/sharding.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"
#include "workloads/smart_grid.h"
#include "workloads/synthetic.h"

using namespace saber;

namespace {

struct CliOptions {
  size_t tuples = 1'000'000;
  int workers = 4;
  bool use_gpu = true;
  size_t task_size = 1 << 20;
  int producers = 1;
  double rate = 0.0;  // bytes/s per sharded producer; <= 0 = unmetered
  int churn = 0;      // add/remove cycles against the live engine
  int64_t disorder = 0;  // max timestamp jitter injected per producer shard
  int64_t lateness = 0;  // ingress reorder-buffer horizon (allowed lateness)
  bool lateness_set = false;  // explicit --lateness (remote: else inherit SQL)
  ingest::LatePolicy late_policy = ingest::LatePolicy::kAbort;
  std::string connect_host;  // a saber_server to run on (remote mode)
  int connect_port = 0;
  int64_t limit = 10;
  uint32_t seed = 42;
  std::string input_csv;   // read stream 0 from a CSV file instead
  std::string output_csv;  // append result rows to a CSV file
  bool dump_metrics = false;  // print the Prometheus exposition after the run
  std::string trace_out;      // Chrome trace JSON output path
  double trace_sample = -1.0;  // < 0 = default (1.0 with --trace, else off)
  std::string sql;
};

constexpr size_t kMaxTuples = size_t{1} << 30;
constexpr int kMaxWorkers = 256;
constexpr int kMaxProducers = 1024;  // the server's per-input bound
constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--tuples N] [--workers N] [--no-gpu] "
               "[--task-size B] [--producers N] [--rate B] [--churn N] "
               "[--disorder J] [--lateness L] "
               "[--late-policy abort|drop|dead-letter] [--connect H:P] "
               "[--metrics] [--trace FILE] [--trace-sample R] "
               "[--limit N] [--seed N] \"SQL\"\n",
               argv0);
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, CliOptions* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (a == "--tuples") {
      if (!ParseIntFlag("--tuples", next(), size_t{1}, kMaxTuples,
                        &o->tuples)) {
        return false;
      }
    } else if (a == "--workers") {
      if (!ParseIntFlag("--workers", next(), 0, kMaxWorkers, &o->workers)) {
        return false;
      }
    } else if (a == "--no-gpu") {
      o->use_gpu = false;
    } else if (a == "--task-size") {
      if (!ParseTaskSizeFlag(next(), &o->task_size)) return false;
    } else if (a == "--producers") {
      if (!ParseIntFlag("--producers", next(), 1, kMaxProducers,
                        &o->producers)) {
        return false;
      }
    } else if (a == "--rate") {
      o->rate = std::atof(next());
    } else if (a == "--disorder") {
      if (!ParseIntFlag("--disorder", next(), int64_t{0}, kInt64Max,
                        &o->disorder)) {
        return false;
      }
    } else if (a == "--lateness") {
      if (!ParseIntFlag("--lateness", next(), int64_t{0}, kInt64Max,
                        &o->lateness)) {
        return false;
      }
      o->lateness_set = true;
    } else if (a == "--connect") {
      const std::string hp = next();
      const size_t colon = hp.rfind(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr, "--connect expects host:port\n");
        return false;
      }
      o->connect_host = hp.substr(0, colon);
      if (!ParseIntFlag("--connect port", hp.c_str() + colon + 1, 1, 65535,
                        &o->connect_port)) {
        return false;
      }
    } else if (a == "--late-policy") {
      const std::string p = next();
      if (p == "abort") {
        o->late_policy = ingest::LatePolicy::kAbort;
      } else if (p == "drop") {
        o->late_policy = ingest::LatePolicy::kDropAndCount;
      } else if (p == "dead-letter") {
        o->late_policy = ingest::LatePolicy::kDeadLetter;
      } else {
        std::fprintf(stderr,
                     "unknown late policy: %s (abort|drop|dead-letter)\n",
                     p.c_str());
        return false;
      }
    } else if (a == "--churn") {
      if (!ParseIntFlag("--churn", next(), 0, kIntMax, &o->churn)) {
        return false;
      }
    } else if (a == "--limit") {
      if (!ParseIntFlag("--limit", next(), int64_t{0}, kInt64Max,
                        &o->limit)) {
        return false;
      }
    } else if (a == "--seed") {
      if (!ParseIntFlag("--seed", next(), uint32_t{0},
                        std::numeric_limits<uint32_t>::max(), &o->seed)) {
        return false;
      }
    } else if (a == "--metrics") {
      o->dump_metrics = true;
    } else if (a == "--trace") {
      o->trace_out = next();
    } else if (a == "--trace-sample") {
      o->trace_sample = std::atof(next());
      if (o->trace_sample < 0.0 || o->trace_sample > 1.0) {
        std::fprintf(stderr, "--trace-sample must be in [0,1]\n");
        return false;
      }
    } else if (a == "--input") {
      o->input_csv = next();
    } else if (a == "--output") {
      o->output_csv = next();
    } else if (a == "--help" || a == "-h") {
      Usage(argv[0]);
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", a.c_str());
      return false;
    } else {
      if (!o->sql.empty()) o->sql += ' ';
      o->sql += a;
    }
  }
  if (o->workers == 0 && !o->use_gpu) {
    std::fprintf(stderr, "--workers must be an integer in [1, %d] with "
                         "--no-gpu (nothing else runs tasks)\n",
                 kMaxWorkers);
    return false;
  }
  if (o->rate > 0 && o->producers < 2) {
    std::fprintf(stderr,
                 "--rate meters sharded producers; it needs --producers >= 2\n");
    return false;
  }
  if (!o->connect_host.empty() && !o->input_csv.empty()) {
    std::fprintf(stderr, "--input is local-only; it cannot combine with "
                         "--connect (the server generates nothing)\n");
    return false;
  }
  if (!o->connect_host.empty() && o->churn > 0) {
    std::fprintf(stderr,
                 "--churn drives a local engine; it cannot combine with "
                 "--connect\n");
    return false;
  }
  if (o->disorder > o->lateness &&
      o->late_policy == ingest::LatePolicy::kAbort) {
    std::fprintf(stderr,
                 "note: --disorder exceeds --lateness under --late-policy "
                 "abort; ingestion will abort on the first late tuple\n");
  }
  return !o->sql.empty();
}

/// Generates `n` tuples of the catalog stream whose schema matches `s`.
std::vector<uint8_t> GenerateFor(const Schema& s, size_t n, uint32_t seed) {
  if (s.tuple_size() == syn::SyntheticSchema().tuple_size() &&
      s.FieldIndex("a1") >= 0) {
    syn::GeneratorOptions go;
    go.seed = seed;
    return syn::Generate(n, go);
  }
  if (s.FieldIndex("jobId") >= 0) {
    cm::TraceOptions to;
    to.seed = seed;
    return cm::GenerateTrace(n, to);
  }
  if (s.FieldIndex("plug") >= 0) {
    sg::GridOptions go;
    go.seed = seed;
    return sg::GenerateReadings(n, go);
  }
  if (s.FieldIndex("vehicle") >= 0) {
    lrb::RoadOptions ro;
    ro.seed = seed;
    return lrb::GenerateReports(n, ro);
  }
  SABER_CHECK(false && "no generator for schema");
  return {};
}

void PrintRow(const Schema& s, const uint8_t* row) {
  TupleRef t(row, &s);
  std::printf("  ");
  for (size_t f = 0; f < s.num_fields(); ++f) {
    const Field& fd = s.field(f);
    switch (fd.type) {
      case DataType::kInt32:
        std::printf("%s=%d ", fd.name.c_str(), t.GetInt32(f));
        break;
      case DataType::kInt64:
        std::printf("%s=%lld ", fd.name.c_str(),
                    static_cast<long long>(t.GetInt64(f)));
        break;
      case DataType::kFloat:
      case DataType::kDouble:
        std::printf("%s=%.3f ", fd.name.c_str(), t.GetDouble(f));
        break;
    }
  }
  std::printf("\n");
}

/// --connect mode: the engine lives in a saber_server; this process is a
/// pure client. SQL goes over the control plane, the generated streams go
/// over --producers data connections per input (sharded by whole timestamp
/// groups, like the in-process ingress path, so the output matches the
/// local run byte for byte), and results come back on a subscription.
int RunRemote(const CliOptions& cli, const sql::Catalog& catalog) {
  const std::string& host = cli.connect_host;
  const int port = cli.connect_port;

  // Parse locally too: the generators need the input schemas and the row
  // printer the output schema. The server's parse is the authoritative one.
  auto parsed = sql::Parse(cli.sql, catalog, "cli");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().message().c_str());
    return 1;
  }
  const QueryDef def = std::move(parsed).value();

  auto dialed = net::ControlClient::Connect(host, port);
  if (!dialed.ok()) {
    std::fprintf(stderr, "connect error: %s\n",
                 dialed.status().ToString().c_str());
    return 1;
  }
  net::ControlClient control = std::move(dialed).value();
  auto submitted = control.Submit(cli.sql);
  if (!submitted.ok()) {
    std::fprintf(stderr, "submit error: %s\n",
                 submitted.status().ToString().c_str());
    return 1;
  }
  const net::QueryInfo info = submitted.value();
  std::printf("query        : %s\n", cli.sql.c_str());
  std::printf("remote query : #%u (%s) on %s:%d\n", info.query_id,
              info.name.c_str(), host.c_str(), port);
  std::printf("output schema: %s\n", info.output_schema.c_str());
  if (info.output_tuple_size != def.output_schema.tuple_size()) {
    std::fprintf(stderr,
                 "schema drift: server outputs %u-byte tuples, local parse "
                 "says %zu\n",
                 info.output_tuple_size, def.output_schema.tuple_size());
    return 1;
  }

  // Results arrive asynchronously once subscribed, so the subscription gets
  // its own control connection and reader thread.
  auto sub_dialed = net::ControlClient::Connect(host, port);
  if (!sub_dialed.ok()) {
    std::fprintf(stderr, "connect error: %s\n",
                 sub_dialed.status().ToString().c_str());
    return 1;
  }
  net::ControlClient sub = std::move(sub_dialed).value();
  if (Status s = sub.Subscribe(info.query_id); !s.ok()) {
    std::fprintf(stderr, "subscribe error: %s\n", s.ToString().c_str());
    return 1;
  }
  const Schema& out = def.output_schema;
  int64_t rows = 0;
  std::string csv_out;
  const bool dump_csv = !cli.output_csv.empty();
  if (dump_csv) csv_out = io::ToCsv(out, nullptr, 0);  // header only
  std::thread result_reader([&] {
    std::vector<uint8_t> batch;
    for (;;) {
      auto more = sub.NextBatch(&batch);
      if (!more.ok() || !more.value()) return;  // kSubscribeEnd or torn down
      if (dump_csv) io::AppendCsv(out, batch.data(), batch.size(), &csv_out);
      for (size_t off = 0; off < batch.size(); off += out.tuple_size()) {
        if (rows < cli.limit) PrintRow(out, batch.data() + off);
        if (rows == cli.limit) std::printf("  ... (further rows elided)\n");
        ++rows;
      }
    }
  });

  Stopwatch wall;
  std::atomic<int64_t> tuples_sent{0};
  std::atomic<int64_t> bytes_sent{0};
  std::atomic<int64_t> reconnects{0};
  std::mutex err_mu;
  std::string feed_error;
  auto record_error = [&](const Status& s) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (feed_error.empty()) feed_error = s.ToString();
  };
  std::vector<std::thread> feeders;
  for (int i = 0; i < def.num_inputs; ++i) {
    const Schema& in = def.input_schema[i];
    const std::vector<uint8_t> stream =
        GenerateFor(in, cli.tuples, cli.seed + static_cast<uint32_t>(i));
    for (int p = 0; p < cli.producers; ++p) {
      feeders.emplace_back([&, i, p, stream] {
        const size_t tsz = def.input_schema[i].tuple_size();
        net::DataHello hello;
        hello.query_id = info.query_id;
        hello.input = static_cast<uint16_t>(i);
        hello.producer = static_cast<uint16_t>(p);
        hello.num_producers = static_cast<uint16_t>(cli.producers);
        hello.tuple_size = static_cast<uint32_t>(tsz);
        // No explicit --lateness inherits the statement's WITH clause.
        hello.allowed_lateness = cli.lateness_set ? cli.lateness : -1;
        hello.late_policy = static_cast<uint8_t>(cli.late_policy);
        hello.rate_bytes_per_sec = cli.rate;
        // Ride out transient connection losses when the server runs a
        // reconnect grace window; without one the resume is rejected and
        // the send fails exactly as it did historically.
        net::ReconnectPolicy rp;
        rp.connect_timeout_ms = 5'000;
        rp.max_attempts = 5;
        auto conn = net::ProducerClient::Connect(host, port, hello, rp);
        if (!conn.ok()) {
          record_error(conn.status());
          return;
        }
        net::ProducerClient producer = std::move(conn).value();
        std::vector<uint8_t> shard =
            workloads::ExtractTimestampShard(stream, tsz, p, cli.producers)
                .value();
        if (cli.disorder > 0) {
          shard = workloads::ApplyBoundedDisorder(
              shard, tsz, cli.disorder,
              static_cast<uint64_t>(cli.seed) * 1000003u +
                  static_cast<uint64_t>(i) * 131u + static_cast<uint64_t>(p));
        }
        const size_t chunk = size_t{8192} * tsz;
        for (size_t off = 0; off < shard.size(); off += chunk) {
          const size_t n = std::min(chunk, shard.size() - off);
          if (Status s = producer.Send(shard.data() + off, n); !s.ok()) {
            // A rejected stream (late tuple under abort semantics, ...)
            // usually surfaces as a failed write; fetch the server's
            // parting kError for the real story.
            record_error(producer.LastServerError());
            return;
          }
        }
        tuples_sent.fetch_add(static_cast<int64_t>(shard.size() / tsz));
        bytes_sent.fetch_add(static_cast<int64_t>(shard.size()));
        if (Status s = producer.End(); !s.ok()) record_error(s);
        reconnects.fetch_add(producer.reconnects());
      });
    }
  }
  for (auto& t : feeders) t.join();

  int exit_code = 0;
  if (Status s = control.Drain(info.query_id); !s.ok()) {
    std::fprintf(stderr, "drain error: %s\n", s.ToString().c_str());
    exit_code = 1;
  }
  // Remove flushes the window remainder through the sink and ends the
  // subscription, which unblocks the reader thread.
  if (Status s = control.Remove(info.query_id); !s.ok()) {
    std::fprintf(stderr, "remove error: %s\n", s.ToString().c_str());
    sub.Shutdown();
    exit_code = 1;
  }
  result_reader.join();
  const double secs = wall.ElapsedSeconds();

  std::printf("\n-- statistics --\n");
  std::printf("tuples sent  : %lld\n",
              static_cast<long long>(tuples_sent.load()));
  std::printf("rows out     : %lld\n", static_cast<long long>(rows));
  std::printf("throughput   : %.2f Mtuples/s (%.3f GB/s) over TCP\n",
              static_cast<double>(tuples_sent.load()) / secs / 1e6,
              static_cast<double>(bytes_sent.load()) / secs / (1 << 30));
  if (reconnects.load() > 0) {
    std::printf("reconnects   : %lld mid-stream producer resumes\n",
                static_cast<long long>(reconnects.load()));
  }
  if (!feed_error.empty()) {
    std::fprintf(stderr, "feed error   : %s\n", feed_error.c_str());
    exit_code = 1;
  }
  if (dump_csv) {
    std::ofstream f(cli.output_csv, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", cli.output_csv.c_str());
      return 1;
    }
    f << csv_out;
    std::printf("output file  : %s (%lld rows)\n", cli.output_csv.c_str(),
                static_cast<long long>(rows));
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) Usage(argv[0]);

  sql::Catalog catalog;
  catalog["Syn"] = syn::SyntheticSchema();
  catalog["TaskEvents"] = cm::TaskEventSchema();
  catalog["SmartGridStr"] = sg::SmartGridSchema();
  catalog["PosSpeedStr"] = lrb::PositionSchema();
  catalog["SegSpeedStr"] = lrb::PositionSchema();

  if (!cli.connect_host.empty()) return RunRemote(cli, catalog);

  Result<QueryDef> parsed = sql::Parse(cli.sql, catalog, "cli");
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 parsed.status().message().c_str());
    return 1;
  }
  QueryDef query = std::move(parsed).value();
  std::printf("query        : %s\n", cli.sql.c_str());
  std::printf("output schema: %s\n", query.output_schema.ToString().c_str());

  EngineOptions options;
  options.num_cpu_workers = cli.workers;
  options.use_gpu = cli.use_gpu;
  options.task_size = cli.task_size;
  // --trace alone samples everything (CLI runs are short and the ring is
  // bounded anyway); an explicit --trace-sample wins.
  options.trace_sample_rate =
      cli.trace_sample >= 0.0 ? cli.trace_sample
                              : (cli.trace_out.empty() ? 0.0 : 1.0);
  Engine engine(options);
  const int num_inputs = query.num_inputs;
  QueryHandle* q = engine.AddQuery(std::move(query));

  int64_t rows = 0;
  const Schema& out = q->output_schema();
  const int64_t limit = cli.limit;
  std::string csv_out;
  const bool dump_csv = !cli.output_csv.empty();
  if (dump_csv) {
    csv_out = io::ToCsv(out, nullptr, 0);  // header only
  }
  q->SetSink([&](const uint8_t* data, size_t bytes) {
    if (dump_csv) io::AppendCsv(out, data, bytes, &csv_out);
    for (size_t off = 0; off < bytes; off += out.tuple_size()) {
      if (rows < limit) PrintRow(out, data + off);
      if (rows == limit) std::printf("  ... (further rows elided)\n");
      ++rows;
    }
  });

  // The CSV input (stream 0) is streamed through CsvChunkReader — bounded
  // memory regardless of file size — whenever nothing needs the whole
  // stream at once: single-input queries, any number of producers. Only
  // two-input queries with a CSV side still materialize it (both inputs
  // must be fed interleaved for the join cut to advance).
  const bool stream_csv = !cli.input_csv.empty() && num_inputs == 1;
  std::vector<std::vector<uint8_t>> streams;
  for (int i = 0; i < num_inputs; ++i) {
    if (i == 0 && !cli.input_csv.empty()) {
      if (stream_csv) {
        streams.emplace_back();  // fed from the reader below
        continue;
      }
      io::CsvOptions csv_opts;
      csv_opts.allowed_lateness = cli.lateness;
      auto loaded =
          io::ReadCsvFile(cli.input_csv, q->def().input_schema[0], csv_opts);
      if (!loaded.ok()) {
        std::fprintf(stderr, "input error: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      streams.push_back(std::move(loaded).value());
      continue;
    }
    streams.push_back(
        GenerateFor(q->def().input_schema[i], cli.tuples, cli.seed + i));
  }

  engine.Start();

  // --churn: a synthetic selection tenant (weight 2) is repeatedly admitted
  // against the live engine, fed one small block and removed through the
  // full quiesce, concurrently with the main feed below. Joined before
  // Drain; early error exits must join it too (see abort paths).
  std::vector<double> churn_add_us;
  std::vector<double> churn_remove_us;
  std::string churn_error;
  std::thread churner;
  if (cli.churn > 0) {
    churner = std::thread([&engine, &cli, &churn_add_us, &churn_remove_us,
                           &churn_error] {
      QueryDef churn_def = syn::MakeSelection(1);
      churn_def.weight = 2.0;
      const std::vector<uint8_t> block = syn::Generate(8192);
      for (int c = 0; c < cli.churn; ++c) {
        churn_def.name = "churn_" + std::to_string(c);
        Stopwatch add_sw;
        Result<QueryHandle*> added = engine.TryAddQuery(churn_def);
        if (!added.ok()) {
          churn_error = added.status().ToString();
          return;
        }
        churn_add_us.push_back(add_sw.ElapsedNanos() * 1e-3);
        QueryHandle* cq = added.value();
        if (Status s = cq->SetSink([](const uint8_t*, size_t) {}); !s.ok()) {
          churn_error = s.ToString();
          return;
        }
        cq->Insert(block.data(), block.size());
        Stopwatch rm_sw;
        if (Status s = engine.RemoveQuery(cq); !s.ok()) {
          churn_error = s.ToString();
          return;
        }
        churn_remove_us.push_back(rm_sw.ElapsedNanos() * 1e-3);
        WaitUntilNanos(NowNanos() + 2'000'000);  // pace: ~2 ms between cycles
      }
    });
  }

  Stopwatch wall;
  const size_t kChunkTuples = 8192;
  std::vector<std::unique_ptr<ingest::ShardedIngress>> ingresses;
  // Event-time knobs route through the ingress even with one producer: the
  // reorder buffer and late-tuple policy live in the producer handle.
  const bool use_ingress = cli.producers > 1 || cli.disorder > 0 ||
                           cli.lateness > 0 ||
                           cli.late_policy != ingest::LatePolicy::kAbort;
  std::atomic<int64_t> dead_letter_tuples{0};
  if (use_ingress) {
    // Sharded ingestion: one ingress per input, N producer threads each.
    // Both feeds partition by whole timestamp groups — generated streams
    // via ExtractTimestampShard, CSV via the group-aligned chunk pump
    // below — so the merged stream, and therefore the query output, is
    // byte-identical to the single-producer run (with --disorder J and
    // --lateness >= J the reorder buffers restore that same stream).
    ingest::IngressOptions iopts;
    iopts.num_producers = cli.producers;
    if (cli.rate > 0) iopts.producer_rate_bytes_per_sec = cli.rate;
    iopts.allowed_lateness = cli.lateness;
    iopts.late_policy = cli.late_policy;
    if (cli.late_policy == ingest::LatePolicy::kDeadLetter) {
      iopts.dead_letter_sink = [&dead_letter_tuples](int, const void*,
                                                     size_t) {
        dead_letter_tuples.fetch_add(1, std::memory_order_relaxed);
      };
    }
    for (int i = 0; i < num_inputs; ++i) {
      iopts.metrics = engine.metrics();
      iopts.metrics_label = "in" + std::to_string(i);
      ingresses.push_back(ingest::ShardedIngress::ForQuery(q, i, iopts));
    }
    std::vector<std::thread> feeders;
    // Bounded hand-off queues keep the CSV path's memory bounded too.
    std::vector<std::unique_ptr<BlockingQueue<std::vector<uint8_t>>>> qs;
    // Error unwind for the CSV pump: feeders must be joined before their
    // queues/ingresses go out of scope (a joinable std::thread destructor
    // calls std::terminate), and the engine must stop before the ingresses
    // so a merger blocked in InsertInto is woken. The wake-ups have to come
    // *before* the joins: a feeder parked in Append behind that blocked
    // merger only returns once the engine, then its ingress, stops — and the
    // churner exits on its first engine call after Stop.
    auto abort_feed = [&] {
      engine.Stop();
      for (auto& ing : ingresses) ing->Stop();
      for (auto& queue : qs) queue->Close();
      for (auto& t : feeders) t.join();
      if (churner.joinable()) churner.join();
    };
    for (int i = 0; i < num_inputs; ++i) {
      const size_t tsz = q->def().input_schema[i].tuple_size();
      for (int p = 0; p < cli.producers; ++p) {
        if (i == 0 && stream_csv) {
          qs.emplace_back(new BlockingQueue<std::vector<uint8_t>>(4));
          BlockingQueue<std::vector<uint8_t>>* src = qs.back().get();
          feeders.emplace_back([&, i, p, src] {
            while (auto chunk = src->Pop()) {
              ingresses[i]->producer(p)->Append(chunk->data(), chunk->size());
            }
            ingresses[i]->producer(p)->Close();
          });
          continue;
        }
        feeders.emplace_back([&, i, p, tsz] {
          std::vector<uint8_t> shard = workloads::ExtractTimestampShard(
                                           streams[i], tsz, p, cli.producers)
                                           .value();
          if (cli.disorder > 0) {
            shard = workloads::ApplyBoundedDisorder(
                shard, tsz, cli.disorder,
                static_cast<uint64_t>(cli.seed) * 1000003u +
                    static_cast<uint64_t>(i) * 131u +
                    static_cast<uint64_t>(p));
          }
          const size_t chunk = kChunkTuples * tsz;
          for (size_t off = 0; off < shard.size(); off += chunk) {
            ingresses[i]->producer(p)->Append(
                shard.data() + off, std::min(chunk, shard.size() - off));
          }
          ingresses[i]->producer(p)->Close();
        });
      }
    }
    if (stream_csv) {
      io::CsvOptions csv_opts;
      csv_opts.allowed_lateness = cli.lateness;
      io::CsvChunkReader reader(cli.input_csv, q->def().input_schema[0],
                                csv_opts);
      const size_t tsz0 = q->def().input_schema[0].tuple_size();
      // Deal whole timestamp groups, never splitting one across producers:
      // the trailing (possibly still growing) group is carried into the
      // next chunk. Groups are totally ordered by timestamp, so the
      // watermark merge reproduces the file's stream byte-identically —
      // count-window results match the --producers 1 run too.
      std::vector<uint8_t> carry;
      size_t next = 0;
      auto last_group_start = [&](const std::vector<uint8_t>& buf) {
        size_t off = buf.size() - tsz0;
        int64_t last_ts;
        std::memcpy(&last_ts, buf.data() + off, sizeof(last_ts));
        while (off >= tsz0) {
          int64_t ts;
          std::memcpy(&ts, buf.data() + off - tsz0, sizeof(ts));
          if (ts != last_ts) break;
          off -= tsz0;
        }
        return off;
      };
      while (!reader.done()) {
        auto chunk = reader.Next();
        if (!chunk.ok()) {
          std::fprintf(stderr, "input error: %s\n",
                       chunk.status().ToString().c_str());
          abort_feed();
          return 1;
        }
        if (chunk.value().empty()) break;
        carry.insert(carry.end(), chunk.value().begin(), chunk.value().end());
        const size_t cut = last_group_start(carry);
        if (cut == 0) continue;  // one still-open group: keep accumulating
        std::vector<uint8_t> block(carry.begin(),
                                   carry.begin() + static_cast<ptrdiff_t>(cut));
        carry.erase(carry.begin(), carry.begin() + static_cast<ptrdiff_t>(cut));
        qs[next % qs.size()]->Push(std::move(block));
        ++next;
      }
      if (!carry.empty()) qs[next % qs.size()]->Push(std::move(carry));
      for (auto& queue : qs) queue->Close();
    }
    for (auto& t : feeders) t.join();
    for (auto& ing : ingresses) ing->Drain();
  } else if (stream_csv) {
    io::CsvOptions csv_opts;
    csv_opts.allowed_lateness = cli.lateness;
    io::CsvChunkReader reader(cli.input_csv, q->def().input_schema[0],
                              csv_opts);
    while (!reader.done()) {
      auto chunk = reader.Next();
      if (!chunk.ok()) {
        std::fprintf(stderr, "input error: %s\n",
                     chunk.status().ToString().c_str());
        // Stop first so a churner mid-cycle errors out instead of running
        // its remaining add/remove cycles against a doomed engine.
        engine.Stop();
        if (churner.joinable()) churner.join();
        return 1;
      }
      q->Insert(chunk.value().data(), chunk.value().size());
    }
  } else {
    std::vector<size_t> offs(num_inputs, 0);
    for (bool progress = true; progress;) {
      progress = false;
      for (int i = 0; i < num_inputs; ++i) {
        const size_t tsz = q->def().input_schema[i].tuple_size();
        const size_t chunk = kChunkTuples * tsz;
        if (offs[i] < streams[i].size()) {
          const size_t m = std::min(chunk, streams[i].size() - offs[i]);
          q->InsertInto(i, streams[i].data() + offs[i], m);
          offs[i] += m;
          progress = true;
        }
      }
    }
  }
  if (churner.joinable()) churner.join();
  engine.Drain();
  const double secs = wall.ElapsedSeconds();

  std::printf("\n-- statistics --\n");
  std::printf("rows out     : %lld\n", static_cast<long long>(rows));
  std::printf("throughput   : %.2f Mtuples/s (%.3f GB/s)\n",
              q->tuples_in() / secs / 1e6,
              static_cast<double>(q->bytes_in()) / secs / (1 << 30));
  std::printf("p50 latency  : %lld us\n",
              static_cast<long long>(q->latency().Percentile(50) / 1000));
  std::printf("p99 latency  : %lld us\n",
              static_cast<long long>(q->latency().Percentile(99) / 1000));
  std::printf("task size    : %zu B\n", cli.task_size);
  std::printf("weight       : %.1f (weighted-fair HLS share)\n",
              q->def().weight);
  if (cli.churn > 0) {
    auto pct = [](std::vector<double> v, double p) {
      if (v.empty()) return 0.0;
      std::sort(v.begin(), v.end());
      return v[static_cast<size_t>(p * static_cast<double>(v.size() - 1))];
    };
    std::printf("churn        : %zu/%d add/remove cycles, add p50/p99 = "
                "%.0f/%.0f us, remove p50/p99 = %.0f/%.0f us\n",
                churn_remove_us.size(), cli.churn, pct(churn_add_us, 0.5),
                pct(churn_add_us, 0.99), pct(churn_remove_us, 0.5),
                pct(churn_remove_us, 0.99));
    if (!churn_error.empty()) {
      std::printf("churn error  : %s\n", churn_error.c_str());
    }
    std::printf("queries live : %zu\n", engine.num_live_queries());
  }
  // Every raw counter — tuples/bytes in, the CPU/GPGPU task split, GPGPU
  // failover, per-producer ingest — now renders through the registry
  // formatter: the same snapshot a /metrics scrape serves.
  const obs::MetricsSnapshot snap = engine.metrics()->Snapshot();
  std::printf("%s", obs::FormatMetricsSummary(snap, "  ").c_str());
  if (cli.late_policy == ingest::LatePolicy::kDeadLetter) {
    std::printf("dead letters : %lld tuples diverted to the side sink\n",
                static_cast<long long>(
                    dead_letter_tuples.load(std::memory_order_relaxed)));
  }
  if (dump_csv) {
    std::ofstream f(cli.output_csv, std::ios::trunc);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", cli.output_csv.c_str());
      return 1;
    }
    f << csv_out;
    std::printf("output file  : %s (%lld rows)\n", cli.output_csv.c_str(),
                static_cast<long long>(rows));
  }
  if (cli.dump_metrics) {
    std::printf("\n-- metrics (Prometheus exposition) --\n%s",
                obs::RenderPrometheusText(snap).c_str());
  }
  if (!cli.trace_out.empty()) {
    if (!obs::WriteChromeTraceFile(engine.trace(), cli.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", cli.trace_out.c_str());
      return 1;
    }
    std::printf("trace file   : %s (%lld spans sampled)\n",
                cli.trace_out.c_str(),
                static_cast<long long>(
                    engine.trace() ? engine.trace()->total_pushed() : 0));
  }
  return 0;
}
