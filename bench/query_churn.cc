#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ingest/sharded_ingress.h"
#include "workloads/synthetic.h"

/// \file query_churn.cc
/// Dynamic-lifecycle benchmark: 100 TryAddQuery/RemoveQuery cycles against a
/// live engine while a survivor query keeps streaming through a
/// multi-producer sharded ingress. Two interleave-controlled phases run the
/// *identical* survivor workload:
///
///   baseline — survivor only, no churn: steady-state p99 task latency.
///   churn    — same feed, plus `--churn N` add/feed/remove cycles of a
///              synthetic tenant (weight 2) racing the survivor's producers,
///              the dispatcher and the workers.
///
/// Reported per phase: survivor p99 latency, survivor dropped tuples, and —
/// for the churn phase — admission/removal latency percentiles. The churn
/// tenants meter their cost honestly: each cycle feeds the new query real
/// data, so removal exercises the full quiesce (ingress-less flush → wait
/// in-flight → retire), and admission exercises live splicing.
///
/// --check enforces the CI gate: every cycle completes, the survivor drops
/// zero tuples, and churn-phase survivor p99 stays within 2x of the
/// steady-state baseline (floored at 1 ms — below that the comparison
/// measures scheduler jitter, not interference).
///
/// Flags: --quick, --check, --churn N, --out <path>.

namespace saber::bench {
namespace {

constexpr int kProducers = 2;

EngineOptions ChurnOptions() {
  EngineOptions o;
  o.num_cpu_workers = 2;
  o.use_gpu = false;  // keep thread count low: CI hosts may be single-core
  o.task_size = 256 << 10;
  o.input_buffer_size = size_t{32} << 20;
  return o;
}

struct PhaseResult {
  double seconds = 0;
  int64_t survivor_p99_us = 0;
  int64_t survivor_dropped = 0;
  int64_t survivor_tuples = 0;
  int64_t throttle_waits = 0;
  int completed_cycles = 0;
  std::vector<double> add_us;
  std::vector<double> remove_us;
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

/// One phase: survivor + sharded ingress + (optionally) churn cycles.
PhaseResult RunPhase(size_t survivor_tuples, int cycles,
                     const std::vector<uint8_t>& churn_block) {
  Engine engine(ChurnOptions());
  QueryDef survivor_def = syn::MakeSelection(1);
  QueryHandle* survivor = engine.AddQuery(survivor_def);
  survivor->SetSink([](const uint8_t*, size_t) {});
  engine.Start();

  ingest::IngressOptions iopts;
  iopts.num_producers = kProducers;
  // Meter the producers (per-tenant token buckets) so both phases feed at
  // the same controlled rate; re-rated live mid-phase below.
  iopts.producer_rate_bytes_per_sec = 48.0 * 1024 * 1024;
  ingest::ShardedIngress* ingress =
      survivor->AttachIngress(iopts).value();

  Stopwatch wall;
  std::vector<std::thread> feeders;
  for (int p = 0; p < kProducers; ++p) {
    feeders.emplace_back([&, p] {
      const auto shard = syn::GenerateShard(survivor_tuples, p, kProducers);
      const size_t call = 512 * syn::SyntheticSchema().tuple_size();
      for (size_t off = 0; off < shard.size(); off += call) {
        ingress->producer(p)->Append(shard.data() + off,
                                     std::min(call, shard.size() - off));
      }
      ingress->producer(p)->Close();
    });
  }

  // Live per-tenant re-metering, identical in BOTH phases (it must not skew
  // the baseline/churn comparison): once half the survivor stream is in,
  // lift the throttle so the tail stresses dispatch at full speed.
  std::thread rerater([&] {
    while (survivor->tuples_in() <
           static_cast<int64_t>(survivor_tuples / 2)) {
      WaitUntilNanos(NowNanos() + 2'000'000);
    }
    for (int p = 0; p < kProducers; ++p) ingress->SetProducerRate(p, 0);
  });

  PhaseResult r;
  QueryDef churn_def = syn::MakeSelection(2);
  churn_def.weight = 2.0;
  for (int c = 0; c < cycles; ++c) {
    churn_def.name = "churn_" + std::to_string(c);
    Stopwatch add_sw;
    Result<QueryHandle*> added = engine.TryAddQuery(churn_def);
    if (!added.ok()) break;
    r.add_us.push_back(add_sw.ElapsedNanos() * 1e-3);
    QueryHandle* q = added.value();
    if (!q->SetSink([](const uint8_t*, size_t) {}).ok()) break;
    q->Insert(churn_block.data(), churn_block.size());
    Stopwatch rm_sw;
    if (!engine.RemoveQuery(q).ok()) break;
    r.remove_us.push_back(rm_sw.ElapsedNanos() * 1e-3);
    ++r.completed_cycles;
  }

  rerater.join();
  for (auto& t : feeders) t.join();
  ingress->Drain();
  const ingest::IngressStats st = ingress->stats();
  for (const auto& ps : st.producers) r.throttle_waits += ps.throttle_waits;
  engine.Drain();

  r.seconds = wall.ElapsedSeconds();
  r.survivor_p99_us = survivor->latency().Percentile(99) / 1000;
  r.survivor_dropped = survivor->tuples_dropped();
  r.survivor_tuples = survivor->tuples_in();
  return r;
}

int Run(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  int cycles = 100;
  std::string out = "BENCH_churn.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--churn") == 0 && i + 1 < argc) {
      cycles = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--quick] [--check] [--churn N] [--out path]\n",
                   argv[0]);
      return 2;
    }
  }
  if (quick) cycles = std::min(cycles, 20);
  const size_t survivor_tuples = quick ? 1'000'000 : 3'000'000;
  // One φ of churn-tenant data per cycle: enough for a real dispatched task
  // plus a sub-φ remainder, so removal flushes and waits like production.
  const auto churn_block =
      syn::Generate((size_t{256} << 10) / syn::SyntheticSchema().tuple_size());

  PrintHeader("query churn: add/remove cycles vs steady state",
              {"phase", "cycles", "p99 us", "dropped", "add p99 us",
               "rm p99 us", "seconds"});

  const PhaseResult base = RunPhase(survivor_tuples, 0, churn_block);
  const PhaseResult churn = RunPhase(survivor_tuples, cycles, churn_block);

  struct Row {
    const char* phase;
    const PhaseResult* r;
  } rows[] = {{"baseline", &base}, {"churn", &churn}};
  std::vector<JsonObject> results;
  for (const Row& row : rows) {
    const double add_p99 = Percentile(row.r->add_us, 0.99);
    const double rm_p99 = Percentile(row.r->remove_us, 0.99);
    PrintCell(std::string(row.phase));
    PrintCell(static_cast<double>(row.r->completed_cycles));
    PrintCell(static_cast<double>(row.r->survivor_p99_us));
    PrintCell(static_cast<double>(row.r->survivor_dropped));
    PrintCell(add_p99);
    PrintCell(rm_p99);
    PrintCell(row.r->seconds);
    EndRow();
    JsonObject rec;
    rec.Str("phase", row.phase)
        .Int("completed_cycles", row.r->completed_cycles)
        .Int("survivor_p99_us", row.r->survivor_p99_us)
        .Int("survivor_dropped", row.r->survivor_dropped)
        .Int("survivor_tuples", row.r->survivor_tuples)
        .Int("throttle_waits", row.r->throttle_waits)
        .Num("add_p50_us", Percentile(row.r->add_us, 0.5))
        .Num("add_p99_us", add_p99)
        .Num("remove_p50_us", Percentile(row.r->remove_us, 0.5))
        .Num("remove_p99_us", rm_p99)
        .Num("seconds", row.r->seconds);
    results.push_back(std::move(rec));
  }

  const double floor_us = 1000.0;  // 1 ms: below this it's jitter, not churn
  const double base_p99 =
      std::max(static_cast<double>(base.survivor_p99_us), floor_us);
  const double ratio =
      static_cast<double>(churn.survivor_p99_us) / base_p99;
  std::printf("\nchurn/baseline survivor p99 ratio: %.2fx (%d cycles)\n",
              ratio, churn.completed_cycles);

  JsonObject meta;
  meta.Int("survivor_tuples", static_cast<int64_t>(survivor_tuples))
      .Int("cycles_requested", cycles)
      .Num("p99_ratio", ratio)
      .Bool("quick", quick);
  if (!WriteBenchJson(out, "query_churn", meta, results)) return 1;

  if (check) {
    bool ok = true;
    if (churn.completed_cycles != cycles) {
      std::fprintf(stderr, "CHECK FAILED: %d/%d churn cycles completed\n",
                   churn.completed_cycles, cycles);
      ok = false;
    }
    if (base.survivor_dropped != 0 || churn.survivor_dropped != 0) {
      std::fprintf(stderr,
                   "CHECK FAILED: survivor dropped tuples (baseline %lld, "
                   "churn %lld; gate: 0)\n",
                   static_cast<long long>(base.survivor_dropped),
                   static_cast<long long>(churn.survivor_dropped));
      ok = false;
    }
    if (ratio > 2.0) {
      std::fprintf(stderr,
                   "CHECK FAILED: churn survivor p99 %.2fx steady-state "
                   "(gate: <= 2x)\n",
                   ratio);
      ok = false;
    }
    if (!ok) return 1;
  }
  return 0;
}

}  // namespace
}  // namespace saber::bench

int main(int argc, char** argv) { return saber::bench::Run(argc, argv); }
