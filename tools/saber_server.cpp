/// saber_server — the SABER engine behind a TCP front end.
///
/// Starts an Engine, binds a net::SaberServer on --port, and serves until
/// SIGINT/SIGTERM. Remote clients submit streaming SQL over the control
/// plane (saber_cli --connect, net::ControlClient), feed tuples over the
/// data plane (net::ProducerClient) and subscribe to result batches. The
/// catalog matches saber_cli: Syn, TaskEvents, SmartGridStr, PosSpeedStr,
/// SegSpeedStr.
///
/// Flags:
///   --port P             listen port (default 7643; 0 picks ephemeral)
///   --bind A             bind address (default 127.0.0.1; use 0.0.0.0
///                        to accept remote peers)
///   --workers N          engine CPU worker threads, 1 to 256 (default 4)
///   --no-gpu             disable the simulated GPGPU pipeline
///   --task-size B        query task size phi in bytes, 64 B to 64 MiB
///                        (default 1 MiB)
///   --idle-timeout-ms N  slow-loris guard / silent-connection sweep
///                        (default 30000; 0 disables)
///   --max-frame B        per-frame payload bound (default 4 MiB)
///   --staging B          per-producer staging ring bytes, 4 KiB to 1 GiB
///                        (default 4 MiB)
///   --stats-secs N       print a metrics summary every N seconds
///                        (0 = quiet); rendered from the same registry
///                        snapshot the /metrics endpoint serves
///   --metrics-port P     serve GET /metrics (Prometheus text exposition)
///                        on this port (0 picks ephemeral; omit to disable)
///   --trace-sample R     task-path trace sampling rate in [0,1]
///                        (default 0 = tracing compiled out of the hot path)
///   --trace-out FILE     write sampled task spans as Chrome trace_event
///                        JSON (chrome://tracing / Perfetto) at shutdown
///   --reconnect-grace-ms N  park a disconnected producer shard for N ms
///                        awaiting a resume-token reconnect (default 0 =
///                        close on disconnect, the historical contract)
///   --watchdog-ms N      watermark watchdog interval: log ingresses whose
///                        sealing watermark is pinned (default 0 = off)
///   --watchdog-force-close  when the watchdog trips, revoke the pinning
///                        shard so the watermark releases
///   --faults SPEC        arm fault-injection points (';'-separated
///                        directives, e.g. "gpu.kernel_fault=p:0.01");
///                        the SABER_FAULTS env var is honored too
///
/// Teardown order matters (see src/net/server.h): the server stops first —
/// revoking shards and waking every blocked reader — and only then the
/// engine. SIGINT/SIGTERM shut down gracefully: stop serving, drain, print
/// a final stats line.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/engine.h"
#include "fault/fault_registry.h"
#include "int_flag.h"
#include "net/http_metrics.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/clock.h"
#include "sql/parser.h"
#include "workloads/cluster_monitoring.h"
#include "workloads/linear_road.h"
#include "workloads/smart_grid.h"
#include "workloads/synthetic.h"

using namespace saber;

namespace {

struct ServerCliOptions {
  int port = 7643;
  std::string bind = "127.0.0.1";
  int workers = 4;
  bool use_gpu = true;
  size_t task_size = 1 << 20;
  int idle_timeout_ms = 30'000;
  uint32_t max_frame = net::kMaxFramePayload;
  size_t staging_bytes = size_t{4} << 20;
  int stats_secs = 0;
  int metrics_port = -1;  // < 0 = endpoint disabled
  double trace_sample = 0.0;
  std::string trace_out;
  int reconnect_grace_ms = 0;
  int watchdog_ms = 0;
  bool watchdog_force_close = false;
  std::string faults;
};

constexpr int kIntMax = std::numeric_limits<int>::max();

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port P] [--bind A] [--workers N] [--no-gpu] "
               "[--task-size B] [--idle-timeout-ms N] [--max-frame B] "
               "[--staging B] [--stats-secs N] [--metrics-port P] "
               "[--trace-sample R] [--trace-out FILE] "
               "[--reconnect-grace-ms N] [--watchdog-ms N] "
               "[--watchdog-force-close] [--faults SPEC]\n",
               argv0);
  std::exit(2);
}

bool ParseArgs(int argc, char** argv, ServerCliOptions* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--port") {
      if (!ParseIntFlag("--port", next(), 0, 65535, &o->port)) return false;
    } else if (a == "--bind") {
      o->bind = next();
    } else if (a == "--workers") {
      if (!ParseIntFlag("--workers", next(), 1, 256, &o->workers)) {
        return false;
      }
    } else if (a == "--no-gpu") {
      o->use_gpu = false;
    } else if (a == "--task-size") {
      if (!ParseTaskSizeFlag(next(), &o->task_size)) return false;
    } else if (a == "--idle-timeout-ms") {
      if (!ParseIntFlag("--idle-timeout-ms", next(), 0, kIntMax,
                        &o->idle_timeout_ms)) {
        return false;
      }
    } else if (a == "--max-frame") {
      if (!ParseIntFlag("--max-frame", next(), uint32_t{64},
                        net::kMaxFramePayload, &o->max_frame)) {
        return false;
      }
    } else if (a == "--staging") {
      if (!ParseIntFlag("--staging", next(), size_t{4096}, size_t{1} << 30,
                        &o->staging_bytes)) {
        return false;
      }
    } else if (a == "--stats-secs") {
      if (!ParseIntFlag("--stats-secs", next(), 0, kIntMax, &o->stats_secs)) {
        return false;
      }
    } else if (a == "--metrics-port") {
      if (!ParseIntFlag("--metrics-port", next(), 0, 65535,
                        &o->metrics_port)) {
        return false;
      }
    } else if (a == "--trace-sample") {
      o->trace_sample = std::atof(next());
      if (o->trace_sample < 0.0 || o->trace_sample > 1.0) {
        std::fprintf(stderr, "--trace-sample must be in [0,1]\n");
        return false;
      }
    } else if (a == "--trace-out") {
      o->trace_out = next();
    } else if (a == "--reconnect-grace-ms") {
      if (!ParseIntFlag("--reconnect-grace-ms", next(), 0, kIntMax,
                        &o->reconnect_grace_ms)) {
        return false;
      }
    } else if (a == "--watchdog-ms") {
      if (!ParseIntFlag("--watchdog-ms", next(), 0, kIntMax,
                        &o->watchdog_ms)) {
        return false;
      }
    } else if (a == "--watchdog-force-close") {
      o->watchdog_force_close = true;
    } else if (a == "--faults") {
      o->faults = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

std::sig_atomic_t volatile g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

/// One stats tick: a single registry snapshot formatted for humans — the
/// very numbers a concurrent /metrics scrape would read, not a second
/// bookkeeping pass over per-subsystem stats structs.
void PrintStats(const Engine& engine, size_t num_queries) {
  const obs::MetricsSnapshot snap = engine.metrics()->Snapshot();
  std::printf("[stats] queries=%zu\n%s", num_queries,
              obs::FormatMetricsSummary(snap, "[stats]   ").c_str());
  std::fflush(stdout);
}

int main(int argc, char** argv) {
  ServerCliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) Usage(argv[0]);

  // Fault injection: the env var first, then --faults directives on top.
  fault::FaultRegistry::Global().ArmFromEnv();
  if (!cli.faults.empty()) {
    size_t start = 0;
    while (start <= cli.faults.size()) {
      size_t end = cli.faults.find(';', start);
      if (end == std::string::npos) end = cli.faults.size();
      const std::string directive = cli.faults.substr(start, end - start);
      if (!directive.empty()) {
        if (Status s = fault::FaultRegistry::Global().ArmFromString(directive);
            !s.ok()) {
          std::fprintf(stderr, "--faults: %s\n", s.ToString().c_str());
          return 2;
        }
      }
      start = end + 1;
    }
  }

  sql::Catalog catalog;
  catalog["Syn"] = syn::SyntheticSchema();
  catalog["TaskEvents"] = cm::TaskEventSchema();
  catalog["SmartGridStr"] = sg::SmartGridSchema();
  catalog["PosSpeedStr"] = lrb::PositionSchema();
  catalog["SegSpeedStr"] = lrb::PositionSchema();

  EngineOptions eopts;
  eopts.num_cpu_workers = cli.workers;
  eopts.use_gpu = cli.use_gpu;
  eopts.task_size = cli.task_size;
  eopts.trace_sample_rate = cli.trace_sample;
  Engine engine(eopts);
  engine.Start();

  net::ServerOptions sopts;
  sopts.bind_addr = cli.bind;
  sopts.port = cli.port;
  sopts.idle_timeout_ms = cli.idle_timeout_ms;
  sopts.max_frame_bytes = cli.max_frame;
  sopts.ingress.staging_buffer_bytes = cli.staging_bytes;
  sopts.reconnect_grace_ms = cli.reconnect_grace_ms;
  sopts.ingress.watchdog_nanos =
      static_cast<int64_t>(cli.watchdog_ms) * 1'000'000;
  sopts.ingress.watchdog_force_close = cli.watchdog_force_close;
  net::SaberServer server(&engine, catalog, sopts);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", s.ToString().c_str());
    engine.Stop();
    return 1;
  }

  net::HttpMetricsServer metrics_server(engine.metrics(), cli.bind);
  if (cli.metrics_port >= 0) {
    if (Status s = metrics_server.Start(cli.metrics_port); !s.ok()) {
      std::fprintf(stderr, "cannot start metrics endpoint: %s\n",
                   s.ToString().c_str());
      server.Stop();
      engine.Stop();
      return 1;
    }
    std::printf("metrics on http://%s:%d/metrics\n", cli.bind.c_str(),
                metrics_server.port());
  }

  std::printf("saber_server listening on %s:%d (%d workers, gpu %s)\n",
              cli.bind.c_str(), server.port(), cli.workers,
              cli.use_gpu ? "on" : "off");
  std::printf("catalog: Syn TaskEvents SmartGridStr PosSpeedStr SegSpeedStr\n");
  std::fflush(stdout);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  int64_t last_stats = NowNanos();
  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (cli.stats_secs > 0 &&
        NowNanos() - last_stats >=
            static_cast<int64_t>(cli.stats_secs) * 1'000'000'000) {
      PrintStats(engine, server.num_queries());
      last_stats = NowNanos();
    }
  }

  // Graceful shutdown: stop serving (wakes/joins the data plane, drains
  // staged tuples where possible, stops ingresses), then the engine (the
  // merger may be parked downstream), then one final stats line.
  std::printf("shutting down\n");
  const size_t final_queries = server.num_queries();
  metrics_server.Stop();
  server.Stop();
  engine.Stop();
  PrintStats(engine, final_queries);
  if (!cli.trace_out.empty()) {
    if (!obs::WriteChromeTraceFile(engine.trace(), cli.trace_out)) {
      std::fprintf(stderr, "--trace-out: cannot write %s\n",
                   cli.trace_out.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", cli.trace_out.c_str());
  }
  return 0;
}
