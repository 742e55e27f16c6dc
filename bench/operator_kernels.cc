/// Operator-kernel bench: the batch-at-a-time CPU operators, single
/// threaded, driving ProcessBatch directly — no engine, no dispatcher, no
/// scheduler — so the number is pure per-tuple operator cost. Kernels:
/// predicate selection (SELECT_n-shaped, selectivity sweep), grouped
/// aggregation (GROUP-BY with WHERE), and the θ-join probe loop.
///
/// Emits BENCH_operators.json (median tuples/s per kernel) for the perf
/// trajectory; CI publishes it next to BENCH_sched.json. The source only
/// needs MakeCpuOperator(query), so it also builds against older checkouts
/// for interleaved A/B runs per docs/benchmarks.md methodology.
///
/// Flags: --quick (CI-sized run), --iters N, --out <path>.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cpu/cpu_operators.h"
#include "workloads/synthetic.h"

namespace saber::bench {
namespace {

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

/// Predicate-heavy selection in the SELECT_n shape (§6.1): (n-1)
/// never-matching equality terms OR a threshold term that controls the
/// overall selectivity (a4 is uniform in [0, 100)).
ExprPtr SelectionPred(const Schema& s, int terms, int selectivity_pct) {
  std::vector<ExprPtr> ps;
  static const char* kAttrs[] = {"a2", "a3", "a5", "a6"};
  for (int i = 0; i < terms - 1; ++i) {
    ps.push_back(Eq(Col(s, kAttrs[i % 4]), Lit(int64_t{-1})));
  }
  ps.push_back(Lt(Col(s, "a4"), Lit(static_cast<int64_t>(selectivity_pct))));
  return Or(std::move(ps));
}

/// Runs ProcessBatch over `data` split into `task_tuples`-sized tasks until
/// `min_seconds` elapse; returns tuples/s.
double TimeSingleInput(const Operator& op, const QueryDef& q,
                       const std::vector<uint8_t>& data, size_t task_tuples,
                       double min_seconds) {
  const Schema& s = q.input_schema[0];
  const size_t tsz = s.tuple_size();
  const size_t n = data.size() / tsz;
  TaskResult result;
  int64_t processed = 0;
  Stopwatch wall;
  do {
    int64_t prev_last_ts = -1;
    for (size_t i = 0; i < n; i += task_tuples) {
      const size_t m = std::min(task_tuples, n - i);
      TaskContext ctx;
      ctx.query = &q;
      ctx.num_inputs = 1;
      StreamBatch& b = ctx.input[0];
      b.data.seg1 = data.data() + i * tsz;
      b.data.len1 = m * tsz;
      b.tuple_size = tsz;
      b.first_index = static_cast<int64_t>(i);
      b.first_ts = TupleRef(b.data.seg1, &s).timestamp();
      b.last_ts = TupleRef(b.data.seg1 + (m - 1) * tsz, &s).timestamp();
      b.prev_last_ts = prev_last_ts;
      result.Reset();
      op.ProcessBatch(ctx, &result);
      prev_last_ts = b.last_ts;
    }
    processed += static_cast<int64_t>(n);
  } while (wall.ElapsedSeconds() < min_seconds);
  return static_cast<double>(processed) / wall.ElapsedSeconds();
}

/// One θ-join task joining the full batches (no history); returns tuples/s
/// over both inputs.
double TimeJoin(const Operator& op, const QueryDef& q,
                const std::vector<uint8_t>& left,
                const std::vector<uint8_t>& right, double min_seconds) {
  const Schema& ls = q.input_schema[0];
  const Schema& rs = q.input_schema[1];
  const size_t ltsz = ls.tuple_size(), rtsz = rs.tuple_size();
  const size_t nl = left.size() / ltsz, nr = right.size() / rtsz;
  TaskResult result;
  int64_t processed = 0;
  Stopwatch wall;
  do {
    TaskContext ctx;
    ctx.query = &q;
    ctx.num_inputs = 2;
    auto fill = [&](int side, const std::vector<uint8_t>& src, size_t tsz,
                    const Schema& sch, size_t cnt) {
      StreamBatch& b = ctx.input[side];
      b.data.seg1 = src.data();
      b.data.len1 = cnt * tsz;
      b.tuple_size = tsz;
      b.first_index = 0;
      b.first_ts = TupleRef(src.data(), &sch).timestamp();
      b.last_ts = TupleRef(src.data() + (cnt - 1) * tsz, &sch).timestamp();
      b.prev_last_ts = -1;
    };
    fill(0, left, ltsz, ls, nl);
    fill(1, right, rtsz, rs, nr);
    result.Reset();
    op.ProcessBatch(ctx, &result);
    processed += static_cast<int64_t>(nl + nr);
  } while (wall.ElapsedSeconds() < min_seconds);
  return static_cast<double>(processed) / wall.ElapsedSeconds();
}

struct Combo {
  std::string kernel;
  int selectivity_pct;  // -1: n/a
  QueryDef query;
  std::vector<uint8_t> left;
  std::vector<uint8_t> right;  // join only
};

int Run(int argc, char** argv) {
  bool quick = false;
  int iters = 0;
  std::string out = "BENCH_operators.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--iters N] [--out path]\n",
                   argv[0]);
      return 2;
    }
  }
  if (iters <= 0) iters = quick ? 3 : 5;
  const double min_seconds = quick ? 0.15 : 0.4;
  const size_t tuples = quick ? 256 * 1024 : 1024 * 1024;
  const size_t task_tuples = 32 * 1024;  // 1 MiB tasks of 32 B tuples
  const size_t join_tuples = quick ? 16 * 1024 : 32 * 1024;

  const Schema schema = syn::SyntheticSchema();
  const auto data = syn::Generate(tuples);
  const auto jleft = syn::Generate(join_tuples);
  syn::GeneratorOptions ropts;
  ropts.seed = 43;
  const auto jright = syn::Generate(join_tuples, ropts);

  std::vector<Combo> combos;
  // Selection: 8-term predicate, selectivity sweep.
  for (int sel : {1, 25, 50, 75, 99}) {
    Combo c;
    c.kernel = "selection";
    c.selectivity_pct = sel;
    c.query = QueryBuilder(StrCat("sel", sel), schema)
                  .Where(SelectionPred(schema, 8, sel))
                  .Build();
    c.left = data;
    combos.push_back(std::move(c));
  }
  // Grouped aggregation: GROUP-BY_64 behind the same predicate-heavy
  // 8-term WHERE (100 = no WHERE, isolating the key/accumulate path).
  for (int sel : {25, 75, 100}) {
    Combo c;
    c.kernel = "grouped-agg";
    c.selectivity_pct = sel;
    QueryBuilder b(StrCat("grp", sel), schema);
    b.Window(WindowDefinition::Count(1024, 1024));
    if (sel < 100) b.Where(SelectionPred(schema, 8, sel));
    b.GroupBy({Mod(Col(schema, "a4"), Lit(int64_t{64}))});
    b.Aggregate(AggregateFunction::kSum, Col(schema, "a1"));
    b.Aggregate(AggregateFunction::kCount, nullptr);
    c.query = b.Build();
    c.left = data;
    combos.push_back(std::move(c));
  }
  // θ-join: JOIN_3 shape, match_mod controls output selectivity.
  for (int mod : {64, 512}) {
    Combo c;
    c.kernel = "theta-join";
    c.selectivity_pct = -1;
    c.query = syn::MakeJoin(3, WindowDefinition::Count(256, 256), mod);
    c.left = jleft;
    c.right = jright;
    combos.push_back(std::move(c));
  }

  PrintHeader("Operator kernels (single-threaded)",
              {"kernel", "sel %", "Mt/s"});

  std::vector<JsonObject> results;
  for (Combo& c : combos) {
    auto op = MakeCpuOperator(&c.query);
    std::vector<double> t;
    for (int it = 0; it < iters; ++it) {
      t.push_back(c.kernel == "theta-join"
                      ? TimeJoin(*op, c.query, c.left, c.right, min_seconds)
                      : TimeSingleInput(*op, c.query, c.left, task_tuples,
                                        min_seconds));
    }
    const double m = Median(t);
    PrintCell(c.kernel);
    PrintCell(c.selectivity_pct >= 0 ? std::to_string(c.selectivity_pct) : "-");
    PrintCell(m / 1e6);
    EndRow();
    JsonObject rec;
    rec.Str("kernel", c.kernel)
        .Int("selectivity_pct", c.selectivity_pct)
        .Num("tuples_per_s", m);
    results.push_back(std::move(rec));
  }

  std::printf(
      "\nEach kernel drives Operator::ProcessBatch directly on one thread\n"
      "(median of %d runs): per-tuple operator cost, not parallelism.\n",
      iters);

  JsonObject meta;
  meta.Int("tuples", static_cast<int64_t>(tuples))
      .Int("task_tuples", static_cast<int64_t>(task_tuples))
      .Int("iters", iters)
      .Bool("quick", quick);
  return WriteBenchJson(out, "operator_kernels", meta, results) ? 0 : 1;
}

}  // namespace
}  // namespace saber::bench

int main(int argc, char** argv) { return saber::bench::Run(argc, argv); }
