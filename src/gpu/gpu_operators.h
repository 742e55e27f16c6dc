#pragma once

#include <functional>
#include <vector>

#include "core/operator.h"
#include "gpu/sim_device.h"

/// \file gpu_operators.h
/// The GPGPU side of a query (§5.4). SABER builds its GPGPU operators from
/// the same query-specific functions as its CPU operators, and "the result
/// aggregation logic is the same for both". Here the device runs the
/// query's batch operator itself: a GpuOperator borrows the CPU batch
/// operator (cpu_operators.h, udf_operator.h) and executes its
/// ProcessBatch over device memory, split into work groups on the simulated
/// device's executor pool. Assembly is the borrowed operator's as well.

namespace saber {

/// Smallest work group the device cuts a task into, in tuples. Below this
/// the dispatch cost of a group outweighs the parallelism it adds.
inline constexpr size_t kMinWorkGroupTuples = 4096;

/// Cut points 0 = c_0 < c_1 < … < c_k = n that split the n tuples of input
/// 0 into k ≤ max(max_groups, 1) work groups of about n / max_groups tuples;
/// every group of a split batch holds at least kMinWorkGroupTuples. A cut
/// falls only where the batch operator's output is additive, so that
/// concatenating the groups' results reproduces the result of one
/// ProcessBatch over the whole batch:
///  - at any tuple, for stateless queries;
///  - at a pane boundary, for pane aggregation;
///  - at an inactivity gap, for session windows;
///  - never, for joins and UDFs (one group).
std::vector<size_t> WorkGroupCuts(const QueryDef& q, const StreamBatch& in,
                                  size_t max_groups);

/// An Operator whose batch function runs on the simulated device. Besides
/// the synchronous Operator::ProcessBatch (submit + wait), it exposes the
/// asynchronous path the engine's GPGPU worker uses to keep several tasks in
/// flight through the five-stage pipeline.
class GpuOperator final : public Operator {
 public:
  /// `batch_op` is the query's CPU batch operator; it must outlive this
  /// operator and every task submitted through it.
  GpuOperator(const Operator& batch_op, SimDevice* device);

  /// Submits the task into the device pipeline; `done` fires on the copyout
  /// thread after `out` has been populated. The caller must keep ctx's
  /// buffers alive until then (the engine's free-pointer protocol does).
  void SubmitAsync(const TaskContext& ctx, TaskResult* out,
                   std::function<void()> done) const;

  void ProcessBatch(const TaskContext& ctx, TaskResult* out) const override;

  void Assemble(const TaskResult& result, AssemblyState* state,
                ByteBuffer* output) const override {
    batch_op_.Assemble(result, state, output);
  }
  std::unique_ptr<AssemblyState> MakeAssemblyState() const override {
    return batch_op_.MakeAssemblyState();
  }

 private:
  void Kernel(SimDevice& dev, GpuJob& j, const TaskContext& host_ctx) const;

  const Operator& batch_op_;
  SimDevice* device_;
};

}  // namespace saber
