#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <limits>
#include <ranges>

#include "cpu/cpu_operators.h"
#include "fault/fault_registry.h"
#include "ingest/ingress_options.h"
#include "ingest/sharded_ingress.h"
#include "relational/tuple_ref.h"
#include "runtime/clock.h"
#include "runtime/strcat.h"

namespace saber {

namespace {
constexpr int kEmpty = 0;
constexpr int kStored = 1;

/// Where TryCreateTasks may cut a query's pending input when the query has
/// no task in flight, on top of the φ grid (docs/architecture.md §3).
enum class IdleCut : uint8_t {
  kNone,       // sessions, joins, UDFs, unbounded-window aggregations
  kAnywhere,   // stateless: every output row depends on one tuple
  kWindowEnd,  // count/time-window aggregations: a window end splits no pane
};

IdleCut IdleCutFor(const QueryDef& q) {
  if (q.num_inputs != 1 || q.is_udf()) return IdleCut::kNone;
  if (q.is_stateless()) return IdleCut::kAnywhere;
  const WindowDefinition& w = q.window[0];
  return w.session() || w.unbounded ? IdleCut::kNone : IdleCut::kWindowEnd;
}

/// GPGPU failover multiplies the device's published rate by this per
/// failed task, so HLS steers away from a flaky device.
constexpr double kGpuFailureDecay = 0.5;
/// Completed spans the trace ring retains (~1 MiB).
constexpr size_t kTraceRingSpans = 8192;

}  // namespace

thread_local bool Engine::in_worker_thread_ = false;

/// Per-query engine state. Owned jointly by the registry slot and the
/// query's handle (shared_ptr): retirement frees the heavyweight pieces
/// (input buffers, ingress) and detaches the slot, while the statistics
/// and definition stay readable through the handle forever.
struct QueryState {
  struct Slot {
    std::atomic<int> status{0};  // 0 = empty, 1 = stored
    QueryTask* task = nullptr;
    TaskResult* result = nullptr;
  };

  QueryDef def;
  int index = 0;
  size_t task_size = 0;  // φ: the configured task size, tuple-rounded

  // Dynamic lifecycle (docs/architecture.md, "Query lifecycle & admission").
  // Admitted -> Running -> Draining -> Retired, monotone. The store to
  // kDraining and the insert-pin fetch_add below are both seq_cst: either
  // the producer observes Draining (and drops), or RemoveQuery observes the
  // pin (and waits) — never neither.
  std::atomic<QueryLifecycle> lifecycle{QueryLifecycle::kAdmitted};
  /// Producers inside InsertInto hold a pin; RemoveQuery flips the
  /// lifecycle, wakes the free channels and waits for pins to reach zero
  /// before it may touch the buffers. notify on the 1 -> 0 edge.
  std::atomic<int> insert_refs{0};
  /// Tuples rejected because they arrived at a Draining/Retired query.
  obs::Counter tuples_dropped;
  /// Claimed by the (single) RemoveQuery call that will retire this query.
  std::atomic<bool> removal_started{false};

  std::unique_ptr<Operator> cpu_op;
  /// Runs cpu_op's batch function on the device; declared after cpu_op,
  /// which it borrows.
  std::unique_ptr<GpuOperator> gpu_op;

  // Dispatching stage (§4.1). buffer[i] is non-null from admission until
  // retirement; every dereference outside a pinned InsertInto happens under
  // dispatch_mu, which is also where retirement resets it.
  std::unique_ptr<CircularBuffer> buffer[2];
  std::mutex dispatch_mu;
  /// Last inserted timestamp per input, for the InsertInto boundary
  /// validation. Producer-thread-private (one logical producer per input
  /// stream), so unlocked: for connected queries successive writers are
  /// serialized by the assembly token's release/acquire pair.
  int64_t insert_prev_ts[2] = {std::numeric_limits<int64_t>::min(),
                               std::numeric_limits<int64_t>::min()};
  int64_t next_task_start[2] = {0, 0};
  /// End of the last φ cut (single-input queries). The next φ cut falls
  /// at phi_cut_pos + φ whatever idle cuts came in between, so the φ grid
  /// sits at multiples of φ.
  int64_t phi_cut_pos = 0;
  IdleCut idle_cut = IdleCut::kNone;
  /// A cut the gate deferred owed an idle cut; the re-drive makes it.
  bool idle_cut_owed = false;
  int64_t tuples_dispatched[2] = {0, 0};
  int64_t prev_last_ts[2] = {-1, -1};
  int64_t last_ingest_ts[2] = {-1, -1};
  int64_t window_start_pos[2] = {0, 0};
  int64_t window_start_index[2] = {0, 0};
  int64_t next_task_id = 0;
  std::atomic<int64_t> tasks_dispatched{0};
  /// The deferral channel: set by the gate, cleared by the re-drive.
  std::atomic<bool> cut_deferred{false};

  // Engine-managed sharded ingress fronts (AttachIngress), revoked and
  // drained as the first phase of RemoveQuery, stopped by Engine::Stop.
  std::unique_ptr<ingest::ShardedIngress> ingress[2];

  // Result stage (§4.3). The dispatcher cuts task `id` only while
  // id - next_assemble < kSlots, so a completed task's slot is always free.
  static constexpr size_t kSlots = 128;
  /// Stateless and join queries assemble by concatenation (§4.3); their
  /// fragment results are forwarded zero-copy instead of re-buffered.
  bool concat_assembly = false;
  std::vector<std::unique_ptr<Slot>> slots;
  std::atomic<int64_t> next_assemble{0};
  std::atomic<bool> assembling{false};
  std::atomic<int64_t> tasks_assembled{0};
  std::unique_ptr<AssemblyState> assembly_state;
  ByteBuffer assembly_scratch;
  std::function<void(const uint8_t*, size_t)> sink;

  // Statistics. The obs::Counter members *are* the metrics-registry series
  // for this query (registered externally by the engine at admission with
  // labels {query, slot}); the handle accessors read the same storage, so a
  // /metrics scrape and QueryHandle::bytes_in() can never diverge. A handle
  // keeps the state — and with it the series storage — alive past
  // retirement; the engine repoints the series when the slot is recycled.
  obs::Counter bytes_in;
  obs::Counter tuples_in;
  obs::Counter rows_out;
  obs::Counter tasks_on[kNumProcessors];
  obs::Counter bytes_on[kNumProcessors];
  obs::Histogram latency;
  /// Wall clock of the newest insert (any input); the trace span's insert
  /// stage start. Only stamped while tracing is armed.
  std::atomic<int64_t> last_insert_nanos{0};
};

namespace {
/// Registry labels for one query's series: the slot uniquely identifies a
/// live query even when names collide or are empty.
obs::Labels QueryMetricLabels(const QueryState& qs) {
  return {{"query", qs.def.name.empty() ? StrCat("q", qs.index) : qs.def.name},
          {"slot", StrCat(qs.index)}};
}
}  // namespace

namespace {
using Slot = QueryState::Slot;

/// RAII insert pin: taken before the lifecycle check in InsertInto, released
/// on every exit path. The release notifies RemoveQuery's wait on the
/// 1 -> 0 edge.
struct InsertPin {
  explicit InsertPin(QueryState& qs) : qs(qs) {
    qs.insert_refs.fetch_add(1);  // seq_cst: pairs with the kDraining store
  }
  ~InsertPin() {
    if (qs.insert_refs.fetch_sub(1) == 1) qs.insert_refs.notify_all();
  }
  QueryState& qs;
};

bool AcceptingInserts(const QueryState& qs) {
  const QueryLifecycle lc = qs.lifecycle.load();  // seq_cst, see InsertPin
  return lc == QueryLifecycle::kAdmitted || lc == QueryLifecycle::kRunning;
}

/// The gate every cut goes through: the query's next task may be cut only
/// while its result slot is free. A closed gate publishes a deferral and
/// then re-reads the assembly cursor; the worker that advances the cursor
/// reads the deferral afterwards (TryAssemble). Both sides are seq_cst, so
/// one of them sees the other and no re-drive is lost. Caller holds
/// dispatch_mu.
bool SlotFree(QueryState& qs) {
  const auto free = [&] {
    return qs.next_task_id - qs.next_assemble.load() <
           static_cast<int64_t>(QueryState::kSlots);
  };
  if (free()) return true;
  qs.cut_deferred.store(true);
  return free();
}

}  // namespace

// ===========================================================================
// QueryHandle forwarding.
// ===========================================================================

void QueryHandle::InsertInto(int input, const void* tuples, size_t bytes) {
  engine_->InsertInto(*qs_, input, tuples, bytes);
}
Status QueryHandle::SetSink(std::function<void(const uint8_t*, size_t)> sink) {
  return engine_->SetSinkFor(*qs_, std::move(sink));
}
Result<ingest::ShardedIngress*> QueryHandle::AttachIngress(
    const ingest::IngressOptions& options, int input) {
  return engine_->AttachIngress(this, input, options);
}
const QueryDef& QueryHandle::def() const { return qs_->def; }
const Schema& QueryHandle::output_schema() const {
  return qs_->def.output_schema;
}
QueryLifecycle QueryHandle::lifecycle() const { return qs_->lifecycle.load(); }
double QueryHandle::weight() const { return qs_->def.weight; }
int64_t QueryHandle::bytes_in() const { return qs_->bytes_in.value(); }
int64_t QueryHandle::tuples_in() const { return qs_->tuples_in.value(); }
int64_t QueryHandle::rows_out() const { return qs_->rows_out.value(); }
int64_t QueryHandle::tuples_dropped() const {
  return qs_->tuples_dropped.value();
}
int64_t QueryHandle::tasks_on(Processor p) const {
  return qs_->tasks_on[static_cast<int>(p)].value();
}
int64_t QueryHandle::bytes_on(Processor p) const {
  return qs_->bytes_on[static_cast<int>(p)].value();
}
obs::Labels QueryHandle::metric_labels() const {
  return QueryMetricLabels(*qs_);
}
const obs::Histogram& QueryHandle::latency() const { return qs_->latency; }

// ===========================================================================
// Engine lifecycle.
// ===========================================================================

Engine::Engine(EngineOptions options) : options_(options) {
  SABER_CHECK(options_.max_queries > 0 &&
              options_.max_queries <= kMaxQuerySlots);
  SABER_CHECK(options_.task_size <= options_.input_buffer_size);
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.trace_sample_rate > 0.0) {
    trace_ = std::make_unique<obs::TraceRing>(options_.trace_sample_rate,
                                              kTraceRingSpans);
  }
  if (options_.use_gpu) {
    device_ = std::make_unique<SimDevice>(options_.device);
  }
  // Sized for the slot capacity up front (queries appear and vanish at
  // runtime; the matrix and scheduler never resize).
  matrix_ = std::make_unique<ThroughputMatrix>(options_.max_queries);
  task_queue_ = std::make_unique<TaskQueue>();
  // Rate drift can flip task preferences: instead of re-polling the queue on
  // a timer, blocked workers are woken whenever the matrix publishes.
  matrix_->SetRefreshListener([this] { task_queue_->OnEligibilityChanged(); });
  task_pool_ = std::make_unique<ObjectPool<QueryTask>>(
      [] { return std::make_unique<QueryTask>(); }, 64);
  result_pool_ = std::make_unique<ObjectPool<TaskResult>>(
      [] { return std::make_unique<TaskResult>(); }, 64);
  switch (options_.scheduler) {
    case SchedulerKind::kHls:
      policy_ = std::make_unique<HlsScheduler>(
          options_.switch_threshold, options_.hls_lookahead,
          /*cpu_enabled=*/options_.num_cpu_workers > 0,
          /*gpu_enabled=*/options_.use_gpu);
      break;
    case SchedulerKind::kFcfs:
      policy_ = std::make_unique<FcfsScheduler>();
      break;
    case SchedulerKind::kStatic:
      policy_ = std::make_unique<StaticScheduler>(options_.static_assignment);
      break;
  }
  registry_.resize(options_.max_queries);
  live_.reset(new std::atomic<QueryState*>[options_.max_queries]);
  for (size_t i = 0; i < options_.max_queries; ++i) live_[i].store(nullptr);

  metrics_->RegisterCounter(
      "saber_gpu_task_retries_total", {}, &gpu_task_retries_, this,
      "Device-failed tasks requeued (CPU-narrowed) by GPGPU failover");
  metrics_->RegisterCounter("saber_gpu_quarantines_total", {},
                            &device_quarantines_, this,
                            "GPGPU quarantine episodes entered");
  // Point-in-time values and lazily-owned counters fold in at snapshot time
  // (the collector contract in obs/metrics.h).
  obs::Gauge* queue_depth_gauge = metrics_->GetGauge(
      "saber_engine_queue_depth", {}, "Tasks in the system-wide task queue");
  obs::Gauge* live_queries_gauge = metrics_->GetGauge(
      "saber_engine_live_queries", {},
      "Queries occupying a slot (Admitted/Running/Draining)");
  // Collectors run while the registry holds its collector lock, and query
  // admission/retirement register and unregister series while holding
  // registry_mu_ — so a collector that took registry_mu_ (SnapshotQueries,
  // num_live_queries) would form an ABBA cycle with a concurrent
  // TryAddQuery/RemoveQuery scrape. The collector therefore counts the
  // lock-free live_ view instead.
  metrics_->AddCollector(
      [this, queue_depth_gauge, live_queries_gauge] {
        queue_depth_gauge->Set(static_cast<double>(task_queue_->size()));
        size_t live = 0;
        for (size_t i = 0; i < options_.max_queries; ++i) {
          if (live_[i].load(std::memory_order_acquire) != nullptr) ++live;
        }
        live_queries_gauge->Set(static_cast<double>(live));
      },
      this);
  // Fault-point counters live in the process-global FaultRegistry (which
  // stays obs-free); a collector mirrors them into registry series. Points
  // are remembered across Disarm so their final counts keep exposing.
  metrics_->AddCollector(
      [this, seen = std::vector<std::string>()]() mutable {
        auto& faults = fault::FaultRegistry::Global();
        for (std::string& p : faults.ArmedPoints()) {
          if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
            seen.push_back(std::move(p));
          }
        }
        for (const std::string& p : seen) {
          const obs::Labels labels = {{"point", p}};
          metrics_
              ->GetCounter("saber_fault_hits_total", labels,
                           "Fault-point evaluations")
              ->StoreForCollector(faults.hits(p));
          metrics_
              ->GetCounter("saber_fault_fires_total", labels,
                           "Fault-point fires (injected failures)")
              ->StoreForCollector(faults.fires(p));
        }
      },
      this);
}

Engine::~Engine() {
  Stop();
  // With a borrowed registry the external series (query stats and
  // failover counters) and the collectors reference engine-owned
  // storage; detach them so the registry remains scrapable after this
  // engine is gone. No-op side effects for an owned registry.
  metrics_->Unregister(this);
}

QueryHandle* Engine::AddQuery(QueryDef def) {
  Result<QueryHandle*> added = TryAddQuery(std::move(def));
  if (!added.ok()) {
    std::fprintf(stderr, "Engine::AddQuery: %s\n",
                 added.status().ToString().c_str());
    std::abort();
  }
  return added.value();
}

Result<QueryHandle*> Engine::TryAddQuery(QueryDef def) {
  // QueryBuilder::TryBuild already surfaces limit violations as a Status;
  // re-check here so hand-assembled QueryDefs fail at admission with a
  // clear message instead of aborting mid-task on a worker thread.
  SABER_RETURN_NOT_OK(def.ValidateLimits());
  std::lock_guard<std::mutex> lock(registry_mu_);
  size_t slot = registry_.size();
  for (size_t i = 0; i < registry_.size(); ++i) {
    if (registry_[i] == nullptr) {
      slot = i;
      break;
    }
  }
  if (slot == registry_.size()) {
    return Status::ResourceExhausted(
        StrCat("cannot admit query '", def.name, "': all ",
               options_.max_queries,
               " query slots are occupied (EngineOptions::max_queries)"));
  }
  auto qs = std::make_shared<QueryState>();
  qs->def = std::move(def);
  qs->index = static_cast<int>(slot);
  const size_t tsz0 = qs->def.input_schema[0].tuple_size();
  qs->task_size = std::max(tsz0, options_.task_size / tsz0 * tsz0);
  qs->cpu_op = MakeCpuOperator(&qs->def);
  if (device_ != nullptr) {
    qs->gpu_op = std::make_unique<GpuOperator>(*qs->cpu_op, device_.get());
  }
  for (int i = 0; i < qs->def.num_inputs; ++i) {
    qs->buffer[i] = std::make_unique<CircularBuffer>(
        options_.input_buffer_size, qs->def.input_schema[i].tuple_size());
  }
  for (size_t i = 0; i < QueryState::kSlots; ++i) {
    qs->slots.push_back(std::make_unique<Slot>());
  }
  qs->assembly_state = qs->cpu_op->MakeAssemblyState();
  qs->concat_assembly = !qs->def.is_aggregation() && !qs->def.is_udf();
  qs->idle_cut = IdleCutFor(qs->def);
  // The slot may be recycled: scrub the tenant-local scheduler/matrix state
  // before the dispatcher can see the new query.
  policy_->SetQueryWeight(qs->index, qs->def.weight);
  const bool live_engine = running_.load();
  qs->lifecycle.store(live_engine ? QueryLifecycle::kRunning
                                  : QueryLifecycle::kAdmitted);
  registry_[slot] = qs;
  live_[slot].store(qs.get(), std::memory_order_release);
  handles_.emplace_back(new QueryHandle(this, qs->index, qs));
  RegisterQueryMetricsLocked(*qs);
  if (live_engine) {
    // Blocked workers re-derive eligibility now that the topology changed.
    task_queue_->OnEligibilityChanged();
  }
  return handles_.back().get();
}

void Engine::RegisterQueryMetricsLocked(QueryState& qs) {
  const obs::Labels labels = QueryMetricLabels(qs);
  metrics_->RegisterCounter("saber_engine_bytes_in_total", labels, &qs.bytes_in,
                            this,
                            "Bytes accepted into the query's input buffers");
  metrics_->RegisterCounter("saber_engine_tuples_in_total", labels,
                            &qs.tuples_in, this, "Tuples accepted");
  metrics_->RegisterCounter("saber_engine_rows_out_total", labels,
                            &qs.rows_out, this, "Output rows emitted in order");
  metrics_->RegisterCounter(
      "saber_engine_tuples_dropped_total", labels, &qs.tuples_dropped, this,
      "Tuples rejected because the query was Draining or Retired");
  for (int p = 0; p < kNumProcessors; ++p) {
    obs::Labels pl = labels;
    pl.emplace_back("processor", p == static_cast<int>(Processor::kCpu)
                                     ? "cpu"
                                     : "gpu");
    metrics_->RegisterCounter("saber_engine_tasks_total", pl, &qs.tasks_on[p],
                              this, "Query tasks executed per processor");
    metrics_->RegisterCounter("saber_engine_task_bytes_total", pl,
                              &qs.bytes_on[p], this,
                              "Task input bytes executed per processor");
  }
  metrics_->RegisterHistogram(
      "saber_task_latency_nanos", labels, &qs.latency, this,
      "End-to-end task latency (dispatch to output emission)");
}

Status Engine::RemoveQuery(QueryHandle* query) {
  if (query == nullptr || query->engine_ != this) {
    return Status::NotFound("RemoveQuery: handle does not belong to this engine");
  }
  if (in_worker_thread_) {
    // A worker waiting for its own query's in-flight tasks to assemble would
    // deadlock.
    return Status::InvalidArgument(
        StrCat("RemoveQuery('", query->def().name,
               "'): must not be called from an engine worker thread"));
  }
  std::shared_ptr<QueryState> qs = query->qs_;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    const size_t slot = static_cast<size_t>(qs->index);
    if (qs->lifecycle.load() == QueryLifecycle::kRetired) {
      return Status::InvalidArgument(
          StrCat("RemoveQuery('", qs->def.name, "'): query already retired"));
    }
    if (slot >= registry_.size() || registry_[slot] != qs) {
      return Status::NotFound(
          StrCat("RemoveQuery('", qs->def.name, "'): query is not registered"));
    }
    for (const auto& edge : connections_) {
      if (edge.first == qs->index || edge.second == qs->index) {
        return Status::InvalidArgument(StrCat(
            "RemoveQuery('", qs->def.name,
            "'): query is one half of a connected pair; connected pipelines "
            "are removed only by engine shutdown"));
      }
    }
    if (qs->removal_started.exchange(true)) {
      return Status::InvalidArgument(StrCat("RemoveQuery('", qs->def.name,
                                            "'): removal already in progress"));
    }
  }

  const bool live_engine = running_.load();

  // Phase 1 — tear down the engine-managed ingress while the query is still
  // Running: revoked producers stop appending, but everything already staged
  // is merged and delivered downstream (into a query that still accepts it)
  // before the merger is joined. Skipped without workers (pre-Start): the
  // merger could block forever on a full input buffer nobody drains.
  for (auto& ing : qs->ingress) {
    if (ing == nullptr) continue;
    ing->Revoke();
    if (live_engine) ing->Drain();
    ing->Stop();
  }

  // Phase 2 — stop accepting inserts. seq_cst store pairs with the insert
  // pin (see QueryState::lifecycle); then wake any producer parked on a full
  // buffer so it can observe Draining, and wait for the pins to drain.
  qs->lifecycle.store(QueryLifecycle::kDraining);
  {
    std::lock_guard<std::mutex> lock(qs->dispatch_mu);
    for (int i = 0; i < qs->def.num_inputs; ++i) {
      if (qs->buffer[i]) qs->buffer[i]->WakeProducer();
    }
  }
  for (;;) {
    const int refs = qs->insert_refs.load();
    if (refs == 0) break;
    qs->insert_refs.wait(refs);
  }

  // Phase 3 — drain the pipeline: cut everything pending, the sub-φ tail
  // included, and sleep on the assembly channel until the query is done.
  // The gate may defer part of a flush until slots free up, so this loops
  // until a flush finds nothing left to cut and nothing in flight. Without
  // workers there is nothing in flight — whatever sits in the task queue is
  // swept below.
  if (live_engine) {
    for (;;) {
      if (stopping_.load()) {
        // Engine shutdown interrupts the quiesce; tasks may have been
        // abandoned. Leave the teardown to Stop()/~Engine — the handle keeps
        // its statistics and reads lifecycle Draining.
        return Status::OK();
      }
      const uint32_t gen = assembly_gen_.load(std::memory_order_acquire);
      if (!FlushRemainder(*qs)) break;
      assembly_gen_.wait(gen, std::memory_order_acquire);
    }
  }

  // Phase 4 — retire: no producer is pinned, no task of this query is queued
  // (running case: all assembled; stopped case: swept here), so the slot can
  // be scrubbed and recycled.
  std::lock_guard<std::mutex> lock(registry_mu_);
  RetireLocked(qs);
  return Status::OK();
}

void Engine::RetireLocked(const std::shared_ptr<QueryState>& qs) {
  const int index = qs->index;
  std::vector<QueryTask*> swept = task_queue_->SweepQuery(index);
  if (!swept.empty()) {
    // The swept tasks were dispatched but will never assemble; the counter
    // adjustment keeps dispatched == assembled for Drain.
    qs->tasks_dispatched.fetch_sub(static_cast<int64_t>(swept.size()));
    for (QueryTask* t : swept) {
      task_pool_->Release(std::unique_ptr<QueryTask>(t));
    }
  }
  qs->lifecycle.store(QueryLifecycle::kRetired);
  live_[static_cast<size_t>(index)].store(nullptr, std::memory_order_release);
  {
    // dispatch_mu orders the buffer teardown against any straggling
    // dispatcher-side reader (Drain's FlushRemainder snapshot).
    std::lock_guard<std::mutex> dl(qs->dispatch_mu);
    for (auto& buf : qs->buffer) buf.reset();
  }
  for (auto& ing : qs->ingress) ing.reset();
  matrix_->ResetQuery(index);
  policy_->OnQueryRetired(index);
  registry_[static_cast<size_t>(index)].reset();
  // The queue topology changed (a tenant vanished): blocked workers
  // re-derive eligibility.
  task_queue_->OnEligibilityChanged();
}

void Engine::Connect(QueryHandle* from, QueryHandle* to, int input) {
  SABER_CHECK(!running_.load());
  Engine* self = this;
  // The sink shares ownership of the downstream state: connected queries
  // are only torn down together (RemoveQuery refuses either half), so the
  // captured pointer can never dangle.
  std::shared_ptr<QueryState> to_qs = to->qs_;
  // The upstream query's assembly (ordered, single-threaded via the assembly
  // token) acts as the single logical producer for the downstream stream.
  const Status set = from->SetSink(
      [self, to_qs, input](const uint8_t* data, size_t bytes) {
        self->InsertInto(*to_qs, input, data, bytes);
      });
  SABER_CHECK(set.ok());
  std::lock_guard<std::mutex> lock(registry_mu_);
  connections_.emplace_back(from->index_, to->index_);
}

Result<ingest::ShardedIngress*> Engine::AttachIngress(
    QueryHandle* q, int input, const ingest::IngressOptions& options) {
  if (q == nullptr || q->engine_ != this) {
    return Status::NotFound(
        "AttachIngress: handle does not belong to this engine");
  }
  std::shared_ptr<QueryState> qs = q->qs_;
  if (input < 0 || input >= qs->def.num_inputs) {
    return Status::InvalidArgument(
        StrCat("AttachIngress('", qs->def.name, "'): input ", input,
               " out of range (query has ", qs->def.num_inputs, " inputs)"));
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  if (!AcceptingInserts(*qs) ||
      registry_[static_cast<size_t>(qs->index)] != qs) {
    return Status::InvalidArgument(
        StrCat("AttachIngress('", qs->def.name, "'): query is ",
               QueryLifecycleName(qs->lifecycle.load()),
               "; ingress can only feed an Admitted or Running query"));
  }
  if (qs->ingress[input] != nullptr) {
    return Status::AlreadyExists(
        StrCat("AttachIngress('", qs->def.name, "'): input ", input,
               " already has an engine-managed ingress"));
  }
  ingest::IngressOptions opts = options;
  if (opts.metrics == nullptr) opts.metrics = metrics_;
  if (opts.metrics_label.empty()) {
    opts.metrics_label = StrCat(
        qs->def.name.empty() ? StrCat("q", qs->index) : qs->def.name, "/in",
        input);
  }
  qs->ingress[input] = ingest::ShardedIngress::ForQuery(q, input, opts);
  return qs->ingress[input].get();
}

void Engine::Start() {
  // A worker-less engine would accept inserts and then hang in Drain.
  SABER_CHECK(options_.num_cpu_workers > 0 || options_.use_gpu);
  SABER_CHECK(!running_.exchange(true));
  stopping_.store(false);
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (auto& qs : registry_) {
      if (qs != nullptr &&
          qs->lifecycle.load() == QueryLifecycle::kAdmitted) {
        qs->lifecycle.store(QueryLifecycle::kRunning);
      }
    }
  }
  for (int i = 0; i < options_.num_cpu_workers; ++i) {
    workers_.emplace_back([this, i] { CpuWorkerLoop(i); });
  }
  if (device_ != nullptr) {
    workers_.emplace_back([this] { GpuWorkerLoop(); });
  }
}

std::vector<std::shared_ptr<QueryState>> Engine::SnapshotQueries() const {
  std::vector<std::shared_ptr<QueryState>> out;
  std::lock_guard<std::mutex> lock(registry_mu_);
  for (const auto& qs : registry_) {
    if (qs != nullptr) out.push_back(qs);
  }
  return out;
}

size_t Engine::num_live_queries() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  size_t n = 0;
  for (const auto& qs : registry_) {
    if (qs != nullptr) ++n;
  }
  return n;
}

void Engine::Drain() {
  if (!running_.load()) return;
  for (;;) {
    // The generation is read before the idleness check: an assembly that
    // completes between the check and the wait bumps it, so the wait
    // returns immediately instead of losing the wakeup.
    const uint32_t gen = assembly_gen_.load(std::memory_order_acquire);
    // Re-snapshotted every round: queries admitted mid-drain are picked up,
    // queries retired mid-drain already satisfied the idle condition
    // (retirement waits for assembled == dispatched).
    const auto queries = SnapshotQueries();
    // A single snapshot reads the queries in a fixed order, so a connected
    // query's sink dispatch can slip between the downstream-counter read and
    // the upstream-counter read: Drain would see both "idle" while a freshly
    // pushed downstream task sits in the queue, and Stop() would abandon it.
    // Each full re-read is ordered after the previous one and therefore
    // observes any dispatch that preceded a counter value the previous pass
    // already saw — a chain of connected queries can fool at most one pass
    // per hop, so size() + 1 consecutive idle passes are conclusive.
    auto idle_snapshot = [&] {
      bool idle = task_queue_->empty();
      for (const auto& qs : queries) {
        idle = idle && !qs->assembling.load(std::memory_order_acquire) &&
               qs->tasks_assembled.load() == qs->tasks_dispatched.load();
      }
      return idle;
    };
    bool idle = true;
    for (size_t pass = 0; pass <= queries.size() && idle; ++pass) {
      idle = idle_snapshot();
    }
    if (idle) {
      // A worker's re-drive may have dispatched since the snapshot, so
      // only FlushRemainder, which checks under dispatch_mu, says done.
      bool busy = false;
      for (const auto& qs : queries) busy = FlushRemainder(*qs) || busy;
      if (!busy) break;
      continue;  // wait for the tasks still in flight
    }
    assembly_gen_.wait(gen, std::memory_order_acquire);
  }
  Stop();
}

void Engine::Stop() {
  if (!running_.load()) return;
  stopping_.store(true);
  task_queue_->Close();
  const auto queries = SnapshotQueries();
  // Producers may be blocked on input-buffer back-pressure; they re-check
  // stopping_ once the free channel is signalled. dispatch_mu guards against
  // a concurrent RemoveQuery retiring the buffers.
  for (const auto& qs : queries) {
    std::lock_guard<std::mutex> lock(qs->dispatch_mu);
    for (int i = 0; i < qs->def.num_inputs; ++i) {
      if (qs->buffer[i]) qs->buffer[i]->WakeProducer();
    }
  }
  // Engine-managed ingress: the wake above unblocks a merger stuck inside
  // InsertInto, so the join inside Stop terminates.
  for (const auto& qs : queries) {
    for (auto& ing : qs->ingress) {
      if (ing != nullptr) ing->Stop();
    }
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
  // Release a RemoveQuery waiter parked on the assembly channel: with the
  // workers gone its counters will never converge, and it re-checks
  // stopping_ on wake.
  assembly_gen_.fetch_add(1, std::memory_order_release);
  assembly_gen_.notify_all();
  for (QueryTask* t : task_queue_->DrainRemaining()) {
    task_pool_->Release(std::unique_ptr<QueryTask>(t));
  }
  running_.store(false);
}

// ===========================================================================
// Dispatching stage (§4.1).
// ===========================================================================

int64_t Engine::TsAt(const CircularBuffer& buf, int64_t pos) {
  int64_t ts;
  buf.CopyOut(pos, sizeof(ts), &ts);  // timestamp is field 0
  return ts;
}

Status Engine::SetSinkFor(QueryState& qs,
                          std::function<void(const uint8_t*, size_t)> sink) {
  // Workers invoke the sink from TryAssemble without synchronization, so
  // swapping it while results can be in flight is a data race on the
  // std::function (and UB if a call is in progress). Holding dispatch_mu
  // with zero dispatched tasks is sufficient: every dispatch happens under
  // dispatch_mu, so no task exists and none can be created while we swap.
  std::lock_guard<std::mutex> lock(qs.dispatch_mu);
  if (running_.load() && qs.tasks_dispatched.load() > 0) {
    return Status::InvalidArgument(
        StrCat("SetSink('", qs.def.name,
               "'): the engine is running and the query has dispatched "
               "tasks; set the sink before Start() or directly after "
               "admission"));
  }
  qs.sink = std::move(sink);
  return Status::OK();
}

void Engine::InsertInto(QueryState& qs, int input, const void* tuples,
                        size_t bytes) {
  const Schema& schema = qs.def.input_schema[input];
  const size_t tsz = schema.tuple_size();
  // Boundary validation: everything past this point — the φ cut arithmetic,
  // pane math, the join watermark — assumes whole tuples and non-decreasing
  // timestamps. A partial tuple would shift every later field read; a
  // timestamp regression silently corrupts window contents. Fail loudly
  // here instead.
  if (bytes % tsz != 0) {
    std::fprintf(stderr,
                 "Engine::InsertInto(query '%s', input %d): %zu bytes is not "
                 "a multiple of the %zu-byte input tuple size\n",
                 qs.def.name.c_str(), input, bytes, tsz);
    std::abort();
  }
  if (bytes == 0) return;
  // Pin before the lifecycle gate: RemoveQuery waits for pins to reach zero
  // before it may retire the buffers, so a producer that saw
  // Admitted/Running here can safely dereference them for the whole insert.
  InsertPin pin(qs);
  if (!AcceptingInserts(qs)) {
    qs.tuples_dropped.Increment(static_cast<int64_t>(bytes / tsz));
    return;
  }
  // Timestamp order is validated only where the engine consumes time:
  // time-based windows (pane cutting scans the timestamp column) and
  // two-input queries (the dispatch cut T = min(last ingested ts) − 1 and
  // window-extent retention). Count-based and unbounded windows never read
  // timestamps for dispatch decisions, and re-feeding the same block with
  // restarting timestamps is their long-standing benchmark idiom
  // (bench_util.h StreamFeeder `shift_timestamps=false`), so they stay
  // exempt. The sharded ingestion stage (src/ingest/) is stricter — its
  // watermark merge is timestamp-driven regardless of window type.
  if (qs.def.num_inputs == 2 ||
      (qs.def.window[input].time_based() && !qs.def.window[input].unbounded)) {
    // insert_prev_ts is producer-thread-private state: one logical producer
    // per input stream (a connected query's producer is the upstream
    // assembly, serialized by the assembly token; a ShardedIngress's is its
    // merger thread), so no lock is needed.
    const int64_t bad =
        FirstTimestampRegression(tuples, bytes, tsz, &qs.insert_prev_ts[input]);
    if (bad >= 0) {
      std::fprintf(stderr,
                   "Engine::InsertInto(query '%s', input %d): timestamps "
                   "must be non-decreasing (violated at tuple %lld of this "
                   "insert)\n",
                   qs.def.name.c_str(), input, static_cast<long long>(bad));
      std::abort();
    }
  }
  CircularBuffer& buf = *qs.buffer[input];
  // A block larger than the circular buffer can never fit in one piece:
  // split it so arbitrarily large inserts simply block on back-pressure.
  const size_t max_chunk =
      std::max(tsz, options_.input_buffer_size / 2 / tsz * tsz);
  const uint8_t* src = static_cast<const uint8_t*>(tuples);
  for (size_t off = 0; off < bytes;) {
    const size_t chunk = std::min(max_chunk, bytes - off);
    for (;;) {
      // Epoch before the attempt: a free landing after this read makes the
      // wait below return immediately (no lost wakeup).
      const uint32_t epoch = buf.free_epoch();
      if (buf.TryInsert(src + off, chunk)) break;
      // Back-pressure: the result stage frees space as assemblies complete.
      // Make sure pending data has been turned into tasks workers can run,
      // then sleep until FreeUpTo (or shutdown) signals the free channel.
      TryCreateTasks(qs);
      if (stopping_.load()) return;
      if (!AcceptingInserts(qs)) {
        // The query went Draining while we were parked: drop the rest of
        // the block (RemoveQuery's WakeProducer bumped the free epoch, so
        // this re-check is reached promptly).
        qs.tuples_dropped.Increment(
            static_cast<int64_t>((bytes - off) / tsz));
        return;
      }
      buf.WaitFreeEpoch(epoch);
    }
    off += chunk;
    const uint8_t* last = src + off - tsz;
    int64_t last_ts;
    std::memcpy(&last_ts, last, sizeof(last_ts));
    {
      std::lock_guard<std::mutex> lock(qs.dispatch_mu);
      qs.last_ingest_ts[input] = last_ts;
    }
    qs.bytes_in.Increment(static_cast<int64_t>(chunk));
    qs.tuples_in.Increment(static_cast<int64_t>(chunk / tsz));
    if (trace_ != nullptr) {
      qs.last_insert_nanos.store(NowNanos(), std::memory_order_relaxed);
    }
    TryCreateTasks(qs);
  }
}

void Engine::TryCreateTasks(QueryState& qs) {
  std::lock_guard<std::mutex> lock(qs.dispatch_mu);
  if (qs.buffer[0] == nullptr) return;  // retired
  CutLocked(qs, /*flush=*/false);
}

bool Engine::FlushRemainder(QueryState& qs) {
  std::lock_guard<std::mutex> lock(qs.dispatch_mu);
  if (qs.buffer[0] == nullptr) return false;  // retired
  CutLocked(qs, /*flush=*/true);
  // Read under dispatch_mu, where a worker's re-drive dispatches too.
  bool busy = qs.tasks_dispatched.load() != qs.tasks_assembled.load();
  for (int i = 0; i < qs.def.num_inputs; ++i) {
    busy = busy || qs.buffer[i]->end() != qs.next_task_start[i];
  }
  return busy;
}

void Engine::CutLocked(QueryState& qs, bool flush) {
  if (qs.def.num_inputs == 2) {  // θ-join or two-input UDF
    while (SlotFree(qs) && TryCreateJoinTask(qs, flush)) {
    }
    return;
  }
  // Read before the φ cuts below, which put tasks in flight themselves. A
  // cut the gate deferred keeps the idle cut its call owed.
  const bool idle = qs.idle_cut_owed ||
                    qs.tasks_dispatched.load() == qs.tasks_assembled.load();
  qs.idle_cut_owed = idle;
  // One snapshot of the buffer end for the whole cut: a re-drive runs on a
  // worker while the producer inserts. φ cuts stay on their grid whatever
  // idle cuts came in between. An idle cut lies at or below `end`, which
  // this loop leaves less than φ past the last grid point, so it always
  // falls before the next one.
  const int64_t phi = static_cast<int64_t>(qs.task_size);
  const int64_t end = qs.buffer[0]->end();
  while (end - qs.phi_cut_pos >= phi) {
    if (!SlotFree(qs)) return;
    qs.phi_cut_pos += phi;
    CreateSingleInputTask(qs, qs.phi_cut_pos, end);
  }
  // Nothing in flight would emit the windows the buffered input has
  // closed, so dispatch them now instead of waiting for φ to fill.
  const int64_t start = qs.next_task_start[0];
  const int64_t cut = flush ? end : idle ? IdleCutPos(qs, end) : start;
  if (cut > start) {
    if (!SlotFree(qs)) return;
    CreateSingleInputTask(qs, cut, end);
    if (flush) qs.phi_cut_pos = end;
  }
  qs.idle_cut_owed = false;
}

int64_t Engine::IdleCutPos(const QueryState& qs, int64_t end) const {
  const int64_t start = qs.next_task_start[0];
  const CircularBuffer& buf = *qs.buffer[0];
  if (end == start || qs.idle_cut == IdleCut::kNone) return start;
  if (qs.idle_cut == IdleCut::kAnywhere) return end;
  const WindowDefinition& w = qs.def.window[0];
  const int64_t tsz =
      static_cast<int64_t>(qs.def.input_schema[0].tuple_size());
  const int64_t first = qs.tuples_dispatched[0];
  // Index of the last window the buffered input has closed: on the count
  // axis the one ending at or before the buffered tuple count, on the time
  // axis the one ending at or before the newest timestamp.
  const int64_t j =
      w.time_based()
          ? FloorDiv(TsAt(buf, end - tsz) - w.size, w.slide)
          : FloorDiv(first + (end - start) / tsz - w.size, w.slide);
  if (j < 0) return start;
  const int64_t close = WindowEnd(w, j);
  if (!w.time_based()) {
    return std::max(start, start + (close - first) * tsz);
  }
  // The first pending tuple at or past the window end (the newest tuple
  // is, so the search always lands inside the buffer).
  const auto pending = std::views::iota(int64_t{0}, (end - start) / tsz);
  return start + *std::ranges::partition_point(pending, [&](int64_t i) {
    return TsAt(buf, start + i * tsz) < close;
  }) * tsz;
}

/// Creates a single-input task for buffer bytes [next_task_start, end_pos);
/// `end` is the cut's snapshot of the buffer end. Caller holds dispatch_mu.
void Engine::CreateSingleInputTask(QueryState& qs, int64_t end_pos,
                                   int64_t end) {
  const Schema& schema = qs.def.input_schema[0];
  const size_t tsz = schema.tuple_size();
  CircularBuffer& buf = *qs.buffer[0];
  const int64_t start_pos = qs.next_task_start[0];
  const int64_t n = (end_pos - start_pos) / static_cast<int64_t>(tsz);
  SABER_CHECK(n > 0);

  std::unique_ptr<QueryTask> holder = task_pool_->Acquire();
  QueryTask* t = holder.release();
  t->id = qs.next_task_id++;
  t->query_index = qs.index;
  t->num_inputs = 1;
  t->allowed = kAllProcessors;  // pooled: clear any failover narrowing
  auto& in = t->in[0];
  in.start_pos = start_pos;
  in.end_pos = end_pos;
  in.first_index = qs.tuples_dispatched[0];
  in.first_ts = TsAt(buf, start_pos);
  in.last_ts = TsAt(buf, end_pos - static_cast<int64_t>(tsz));
  in.closing_ts = end_pos < end ? TsAt(buf, end_pos) : in.last_ts;
  in.prev_last_ts = qs.prev_last_ts[0];
  in.hist_start_pos = start_pos;
  in.hist_first_index = in.first_index;
  in.free_pos = end_pos;  // single-input operators never look back
  t->dispatched_nanos = NowNanos();
  t->total_bytes = end_pos - start_pos;
  SampleForTrace(qs, t);

  qs.tuples_dispatched[0] += n;
  qs.prev_last_ts[0] = in.last_ts;
  qs.next_task_start[0] = end_pos;
  PushTask(qs, t);
}

/// Join dispatch (§5.3 + DESIGN.md): both streams are cut at a common
/// timestamp T so that each task sees both inputs complete through T. The
/// window extent (history) of each stream stays alive via the free pointer.
/// Caller holds dispatch_mu.
bool Engine::TryCreateJoinTask(QueryState& qs, bool flush) {
  CircularBuffer& b0 = *qs.buffer[0];
  CircularBuffer& b1 = *qs.buffer[1];
  const size_t tsz0 = qs.def.input_schema[0].tuple_size();
  const size_t tsz1 = qs.def.input_schema[1].tuple_size();

  const int64_t pend0 = b0.end() - qs.next_task_start[0];
  const int64_t pend1 = b1.end() - qs.next_task_start[1];
  if (pend0 + pend1 == 0) return false;
  if (!flush && pend0 + pend1 < static_cast<int64_t>(qs.task_size)) {
    return false;
  }

  // Common timestamp cut: both streams are complete for ts <= T.
  int64_t T;
  if (flush) {
    T = std::numeric_limits<int64_t>::max();
  } else {
    if (qs.last_ingest_ts[0] < 0 || qs.last_ingest_ts[1] < 0) return false;
    T = std::min(qs.last_ingest_ts[0], qs.last_ingest_ts[1]) - 1;
  }

  // Scan forward to the cut on both streams.
  int64_t end_pos[2], first_ts[2] = {0, 0}, last_ts[2] = {0, 0};
  int64_t ntup[2];
  CircularBuffer* bufs[2] = {&b0, &b1};
  const size_t tszs[2] = {tsz0, tsz1};
  for (int i = 0; i < 2; ++i) {
    int64_t pos = qs.next_task_start[i];
    const int64_t end = bufs[i]->end();
    int64_t count = 0;
    int64_t lts = qs.prev_last_ts[i];
    int64_t fts = 0;
    while (pos < end) {
      const int64_t ts = TsAt(*bufs[i], pos);
      if (ts > T) break;
      if (count == 0) fts = ts;
      lts = ts;
      pos += static_cast<int64_t>(tszs[i]);
      ++count;
    }
    end_pos[i] = pos;
    ntup[i] = count;
    first_ts[i] = fts;
    last_ts[i] = lts;
  }
  if (ntup[0] + ntup[1] == 0) return false;

  std::unique_ptr<QueryTask> holder = task_pool_->Acquire();
  QueryTask* t = holder.release();
  t->id = qs.next_task_id++;
  t->query_index = qs.index;
  t->num_inputs = 2;
  t->allowed = kAllProcessors;  // pooled: clear any failover narrowing
  for (int i = 0; i < 2; ++i) {
    auto& in = t->in[i];
    in.start_pos = qs.next_task_start[i];
    in.end_pos = end_pos[i];
    in.first_index = qs.tuples_dispatched[i];
    in.first_ts = first_ts[i];
    in.last_ts = last_ts[i];
    in.prev_last_ts = qs.prev_last_ts[i];
    in.hist_start_pos = qs.window_start_pos[i];
    in.hist_first_index = qs.window_start_index[i];
    qs.tuples_dispatched[i] += ntup[i];
    qs.prev_last_ts[i] = last_ts[i];
    qs.next_task_start[i] = end_pos[i];
  }
  t->dispatched_nanos = NowNanos();
  t->total_bytes = (end_pos[0] - t->in[0].start_pos) +
                   (end_pos[1] - t->in[1].start_pos);
  SampleForTrace(qs, t);

  // UDF tasks copy their panes into the task result, so no history has to
  // stay alive in the input buffers (unlike the θ-join partner windows).
  if (qs.def.is_udf()) {
    for (int i = 0; i < 2; ++i) {
      qs.window_start_pos[i] = end_pos[i];
      qs.window_start_index[i] = qs.tuples_dispatched[i];
      t->in[i].hist_start_pos = t->in[i].start_pos;
      t->in[i].hist_first_index = t->in[i].first_index;
      t->in[i].free_pos = end_pos[i];
    }
    PushTask(qs, t);
    return true;
  }

  // Advance the window extents. Stream i's history serves as *partners* for
  // future tuples of the other stream (§2.4: windows are paired by index j).
  // The earliest window index any future other-stream tuple can open is
  //   j_min = floor((next_other_axis - size_other) / slide_other) + 1,
  // and stream i's partners for window j_min start at axis j_min * slide_i —
  // so retention is governed by the *other* stream's window definition
  // (asymmetric windows, e.g. LRB2, depend on this).
  for (int i = 0; i < 2; ++i) {
    const WindowDefinition& w_self = qs.def.window[i];
    const WindowDefinition& w_other = qs.def.window[1 - i];
    CircularBuffer& buf = *bufs[i];
    int64_t pos = qs.window_start_pos[i];
    int64_t idx = qs.window_start_index[i];
    if (!flush && T != std::numeric_limits<int64_t>::max()) {
      const int64_t next_other_axis =
          w_other.time_based() ? T + 1 : qs.tuples_dispatched[1 - i];
      const int64_t j_min = std::max<int64_t>(
          0, FloorDiv(next_other_axis - w_other.size, w_other.slide) + 1);
      if (w_self.time_based()) {
        const int64_t keep_ts = j_min * w_self.slide;
        while (pos < end_pos[i] && TsAt(buf, pos) < keep_ts) {
          pos += static_cast<int64_t>(tszs[i]);
          ++idx;
        }
      } else {
        const int64_t keep_idx = j_min * w_self.slide;
        while (idx < keep_idx && pos < end_pos[i]) {
          pos += static_cast<int64_t>(tszs[i]);
          ++idx;
        }
      }
    }
    qs.window_start_pos[i] = pos;
    qs.window_start_index[i] = idx;
    t->in[i].free_pos = pos;
  }
  PushTask(qs, t);
  return true;
}

void Engine::SampleForTrace(QueryState& qs, QueryTask* t) {
  // Tasks are pooled: `traced` must be (re)written on every dispatch. With
  // tracing off this is the whole per-task cost — one pointer test.
  t->traced = trace_ != nullptr && trace_->Sample();
  if (t->traced) {
    t->trace_insert_nanos =
        qs.last_insert_nanos.load(std::memory_order_relaxed);
    t->trace_backend = 0;
    t->trace_queued_nanos = 0;
    t->trace_select_nanos = 0;
    t->trace_exec_end_nanos = 0;
  }
}

void Engine::PushTask(QueryState& qs, QueryTask* task) {
  // Stamped before Push: once queued the task may execute (and its span
  // fields be written) on another thread immediately.
  if (task->traced) task->trace_queued_nanos = NowNanos();
  qs.tasks_dispatched.fetch_add(1);
  // policy/matrix let Push wake only the processors that could select this
  // task.
  if (!task_queue_->Push(task, policy_.get(), matrix_.get())) {
    // Engine stopping: recycle the task.
    qs.tasks_dispatched.fetch_sub(1);
    task_pool_->Release(std::unique_ptr<QueryTask>(task));
  }
}

// ===========================================================================
// Execution stage.
// ===========================================================================

SpanPair Engine::SpanFor(const CircularBuffer& buf, int64_t from,
                         int64_t to) const {
  SpanPair sp;
  const size_t total = static_cast<size_t>(to - from);
  if (total == 0) return sp;
  sp.seg1 = buf.DataAt(from);
  sp.len1 = std::min(total, buf.ContiguousBytes(from));
  if (sp.len1 < total) {
    sp.seg2 = buf.DataAt(from + static_cast<int64_t>(sp.len1));
    sp.len2 = total - sp.len1;
  }
  return sp;
}

TaskContext Engine::BuildContext(QueryState& qs, const QueryTask& t) const {
  TaskContext ctx;
  ctx.task_id = t.id;
  ctx.query = &qs.def;
  ctx.num_inputs = t.num_inputs;
  for (int i = 0; i < t.num_inputs; ++i) {
    const auto& in = t.in[i];
    StreamBatch& b = ctx.input[i];
    b.data = SpanFor(*qs.buffer[i], in.start_pos, in.end_pos);
    b.first_index = in.first_index;
    b.first_ts = in.first_ts;
    b.last_ts = in.last_ts;
    b.prev_last_ts = in.prev_last_ts;
    b.history = SpanFor(*qs.buffer[i], in.hist_start_pos, in.start_pos);
    b.history_first_index = in.hist_first_index;
    b.tuple_size = qs.def.input_schema[i].tuple_size();
  }
  return ctx;
}

void Engine::CpuWorkerLoop(int /*worker_id*/) {
  in_worker_thread_ = true;
  for (;;) {
    QueryTask* t = task_queue_->Select(*policy_, Processor::kCpu, *matrix_);
    if (t == nullptr) {
      if (stopping_.load()) return;
      continue;
    }
    // Retirement sweeps the queue and waits for in-flight tasks before the
    // slot pointer is retracted, so a selected task's state is always live.
    QueryState* qsp = LiveSlot(t->query_index);
    SABER_CHECK(qsp != nullptr);
    QueryState& qs = *qsp;
    if (t->traced) t->trace_select_nanos = NowNanos();
    TaskContext ctx = BuildContext(qs, *t);
    std::unique_ptr<TaskResult> holder = result_pool_->Acquire();
    TaskResult* r = holder.release();
    r->Reset();
    r->task_id = t->id;
    r->dispatched_nanos = t->dispatched_nanos;
    r->input_bytes = t->total_bytes;
    qs.cpu_op->ProcessBatch(ctx, r);
    if (t->traced) {
      t->trace_exec_end_nanos = NowNanos();
      t->trace_backend = static_cast<int32_t>(Processor::kCpu);
    }
    matrix_->RecordCompletion(t->query_index, Processor::kCpu);
    StoreAndAssemble(qs, t, r, Processor::kCpu);
  }
}

void Engine::GpuWorkerLoop() {
  in_worker_thread_ = true;
  struct Event {
    QueryTask* task = nullptr;  // nullptr: task-availability ping
    TaskResult* result = nullptr;
  };
  // The worker's single select point: device completions and task-queue
  // availability pings both land here, so the loop blocks on exactly one
  // queue — no polling sleep, and completions cannot stall behind a blocked
  // scheduler wait (which would deadlock the free-pointer chain under
  // back-pressure).
  BlockingQueue<Event> events(0);
  // Collapses bursts of availability notifications into one queued ping;
  // cleared before the next queue scan so nothing is lost.
  std::atomic<bool> ping_pending{false};
  task_queue_->SetAvailabilityListener(
      Processor::kGpu, [&events, &ping_pending] {
        if (!ping_pending.exchange(true, std::memory_order_acq_rel)) {
          events.Push(Event{});
        }
      });

  size_t inflight = 0;
  const size_t depth = options_.device.pipeline_depth;

  // GPGPU failover state (docs/architecture.md §14). consecutive_failures
  // counts device-failed completions since the last success; once it
  // reaches the threshold the worker quarantines the device: no submissions
  // until `quarantined_until`, then exactly one probe task at a time (the
  // inflight <= 0 gate below) until a success clears the episode.
  int consecutive_failures = 0;
  int64_t quarantined_until = 0;

  auto handle = [&](Event& e) {
    if (e.task == nullptr) {
      ping_pending.store(false, std::memory_order_release);
      return;
    }
    --inflight;
    // In-flight tasks pin their query (retirement waits for assembly), so
    // the slot lookup cannot fail even though the submit happened earlier.
    QueryState* qsp = LiveSlot(e.task->query_index);
    SABER_CHECK(qsp != nullptr);
    if (e.result->device_failed) {
      // The device failed the task: recycle the result, decay the device's
      // published rate so HLS steers away, narrow the task to the CPU (when
      // CPU workers exist — a GPGPU-only engine retries in place) and put
      // it back at the queue *front* to preserve per-query id order. No
      // RecordCompletion: a failure is not a throughput sample.
      gpu_task_retries_.Increment();
      matrix_->DecayRate(e.task->query_index, Processor::kGpu,
                         kGpuFailureDecay);
      if (options_.num_cpu_workers > 0) {
        e.task->allowed = ProcessorBit(Processor::kCpu);
      }
      if (++consecutive_failures >= options_.gpu_quarantine_threshold) {
        if (quarantined_until == 0) device_quarantines_.Increment();
        quarantined_until = NowNanos() + options_.gpu_quarantine_nanos;
      }
      result_pool_->Release(std::unique_ptr<TaskResult>(e.result));
      if (!task_queue_->Requeue(e.task)) {
        // Queue closed (engine stopping): recycle like PushTask does.
        qsp->tasks_dispatched.fetch_sub(1);
        task_pool_->Release(std::unique_ptr<QueryTask>(e.task));
      }
      return;
    }
    if (quarantined_until != 0 || consecutive_failures != 0) {
      // A healthy completion (steady state or probe) ends the episode; the
      // matrix re-publishes measured rates as completions accumulate.
      consecutive_failures = 0;
      quarantined_until = 0;
    }
    if (e.task->traced) {
      e.task->trace_exec_end_nanos = NowNanos();
      e.task->trace_backend = static_cast<int32_t>(Processor::kGpu);
    }
    matrix_->RecordCompletion(e.task->query_index, Processor::kGpu);
    StoreAndAssemble(*qsp, e.task, e.result, Processor::kGpu);
  };

  for (;;) {
    for (Event& e : events.PopAll()) handle(e);
    bool may_submit = inflight < depth && !stopping_.load();
    if (may_submit && quarantined_until != 0) {
      // Quarantined: hold all submissions inside the window; after it
      // elapses admit one probe task at a time.
      may_submit = NowNanos() >= quarantined_until && inflight == 0;
    }
    if (may_submit) {
      QueryTask* t = task_queue_->Select(*policy_, Processor::kGpu, *matrix_,
                                         /*wait=*/false);
      if (t != nullptr) {
        QueryState* qsp = LiveSlot(t->query_index);
        SABER_CHECK(qsp != nullptr);
        QueryState& qs = *qsp;
        if (t->traced) t->trace_select_nanos = NowNanos();
        TaskContext ctx = BuildContext(qs, *t);
        std::unique_ptr<TaskResult> holder = result_pool_->Acquire();
        TaskResult* r = holder.release();
        r->Reset();
        r->task_id = t->id;
        r->dispatched_nanos = t->dispatched_nanos;
        r->input_bytes = t->total_bytes;
        qs.gpu_op->SubmitAsync(ctx, r, [&events, t, r] {
          events.Push(Event{t, r});
        });
        ++inflight;
        continue;  // keep filling the pipeline while tasks are eligible
      }
    }
    if (stopping_.load() && inflight == 0) break;
    // Nothing to submit: block until a completion or an availability ping
    // arrives. Close() fires the availability listener, so shutdown wakes
    // this wait too; in-flight completions keep arriving from the device
    // stage threads, which outlive the worker. A quarantined worker with
    // nothing in flight additionally wakes at the window's expiry — no
    // event is coming to announce that the probe may go out.
    if (quarantined_until != 0 && inflight == 0 && !stopping_.load()) {
      const int64_t wait = quarantined_until - NowNanos();
      if (wait > 0) {
        if (auto e = events.PopFor(std::chrono::nanoseconds(wait))) handle(*e);
        continue;
      }
      // Window elapsed but Select found nothing: wait for work as usual.
    }
    if (auto e = events.Pop()) handle(*e);
  }
  // Detach under the queue lock before `events`/`ping_pending` go out of
  // scope: a CPU worker inside a notify could otherwise invoke the listener
  // after the captured locals are destroyed.
  task_queue_->SetAvailabilityListener(Processor::kGpu, nullptr);
}

// ===========================================================================
// Result stage (§4.3): slot storage -> in-order assembly -> output stream.
// ===========================================================================

void Engine::StoreAndAssemble(QueryState& qs, QueryTask* task,
                              TaskResult* result, Processor p) {
  qs.tasks_on[static_cast<int>(p)].Increment();
  qs.bytes_on[static_cast<int>(p)].Increment(task->total_bytes);

  Slot& slot = *qs.slots[static_cast<size_t>(task->id) % QueryState::kSlots];
  // The gate cut this task only once every task kSlots older had been
  // assembled (SlotFree), so its slot is free: no worker waits here.
  SABER_CHECK(slot.status.load(std::memory_order_acquire) == kEmpty &&
              task->id - qs.next_assemble.load(std::memory_order_acquire) <
                  static_cast<int64_t>(QueryState::kSlots));
  slot.task = task;
  slot.result = result;
  slot.status.store(kStored);  // seq_cst: see the re-check in TryAssemble
  TryAssemble(qs);
}

void Engine::TryAssemble(QueryState& qs) {
  bool assembled_any = false;
  for (;;) {
    bool expected = false;
    if (!qs.assembling.compare_exchange_strong(expected, true)) {
      break;  // another worker holds the assembly token
    }
    bool did_work = false;
    for (;;) {
      const int64_t id = qs.next_assemble.load(std::memory_order_relaxed);
      Slot& slot = *qs.slots[static_cast<size_t>(id) % QueryState::kSlots];
      if (slot.status.load(std::memory_order_acquire) != kStored) break;
      QueryTask* task = slot.task;
      TaskResult* result = slot.result;
      SABER_CHECK(task->id == id);
      SABER_CHECK(result->task_id == id);

      // The span's sink stage starts when the ordered output is ready to
      // emit — after the Assemble call for re-buffered assembly, immediately
      // for concatenation.
      int64_t sink_begin_nanos = 0;
      if (qs.concat_assembly) {
        // Window results are the concatenation of fragment results (§4.3):
        // forward the task's output bytes without re-buffering.
        if (task->traced) sink_begin_nanos = NowNanos();
        if (result->complete.size() > 0) {
          qs.rows_out.Increment(static_cast<int64_t>(
              result->complete.size() / qs.def.output_schema.tuple_size()));
          if (qs.sink) qs.sink(result->complete.data(), result->complete.size());
        }
      } else {
        // A time window ending at or before the closing bound is complete
        // (no later task holds an earlier tuple): raise the watermark so
        // this task, not the next one, emits it.
        if (qs.idle_cut == IdleCut::kWindowEnd &&
            qs.def.window[0].time_based()) {
          result->axis_q = std::max(result->axis_q, task->in[0].closing_ts);
        }
        qs.assembly_scratch.Clear();
        qs.cpu_op->Assemble(*result, qs.assembly_state.get(),
                            &qs.assembly_scratch);
        if (task->traced) sink_begin_nanos = NowNanos();
        if (qs.assembly_scratch.size() > 0) {
          qs.rows_out.Increment(static_cast<int64_t>(
              qs.assembly_scratch.size() / qs.def.output_schema.tuple_size()));
          if (qs.sink) {
            qs.sink(qs.assembly_scratch.data(), qs.assembly_scratch.size());
          }
        }
      }
      qs.latency.Record(NowNanos() - result->dispatched_nanos);
      if (task->traced && trace_ != nullptr) {
        obs::TaskSpan span;
        span.task_id = task->id;
        span.query_index = task->query_index;
        span.backend = task->trace_backend;
        span.bytes = task->total_bytes;
        span.insert_nanos = task->trace_insert_nanos;
        span.create_nanos = task->dispatched_nanos;
        span.queued_nanos = task->trace_queued_nanos;
        span.select_nanos = task->trace_select_nanos;
        span.exec_end_nanos = task->trace_exec_end_nanos;
        span.sink_begin_nanos = sink_begin_nanos;
        span.done_nanos = NowNanos();
        trace_->Push(span);
      }

      for (int i = 0; i < task->num_inputs; ++i) {
        qs.buffer[i]->FreeUpTo(task->in[i].free_pos);
      }
      result_pool_->Release(std::unique_ptr<TaskResult>(result));
      task_pool_->Release(std::unique_ptr<QueryTask>(task));

      slot.task = nullptr;
      slot.result = nullptr;
      slot.status.store(kEmpty, std::memory_order_release);
      qs.next_assemble.fetch_add(1);  // seq_cst: pairs with SlotFree
      qs.tasks_assembled.fetch_add(1);
      did_work = true;
    }
    qs.assembling.store(false);
    assembled_any = assembled_any || did_work;
    // Re-check: a result may have been stored between the loop exit and the
    // token release; without this re-acquisition it could wait forever. The
    // storer's store and token CAS and this release and load are seq_cst,
    // so one side sees the other.
    const int64_t id = qs.next_assemble.load();
    Slot& slot = *qs.slots[static_cast<size_t>(id) % QueryState::kSlots];
    if (slot.status.load() != kStored) break;
  }
  if (assembled_any) {
    // Slots were freed: re-run the cut the gate deferred, if any (read
    // after the cursor advanced, see SlotFree). An idle query is not cut.
    if (qs.cut_deferred.load() && qs.cut_deferred.exchange(false)) {
      TryCreateTasks(qs);
    }
    // Signal the drained channel once per assembly batch (outside the
    // token, so a blocked Drain never waits on a worker holding it).
    assembly_gen_.fetch_add(1, std::memory_order_release);
    assembly_gen_.notify_all();
  }
}

}  // namespace saber
