// Ahead-of-time execution plans: trace one training/inference step into a
// flat op schedule, then replay it with zero graph walking and zero per-op
// dispatch.
//
// How a plan is built. Every op in tensor/ops.cc computes its forward pass
// through a value-capturing closure over raw buffer pointers and
// pre-resolved shapes/strides/grains. Eagerly the closure runs once and is
// thrown away; while a CaptureScope is open on the calling thread the op
// additionally hands the closure to the active plan, which appends it to
// the schedule and retains the op's tensors (so the pool-backed buffers
// the closure points into stay resolved for the plan's lifetime — the
// "buffer slot" of the schedule). Tracing therefore IS an instrumented
// eager step: it costs one eager step plus the recording, and every later
// step with the same shapes replays the recorded closures back to back.
//
// Backward. Tensor::Backward() reports its reverse-topological node order
// to the active plan. ReplayBackward() zero-fills every gradient buffer
// the traced backward touched (eager allocates them freshly zeroed, so
// this is arithmetically identical), seeds d(root)/d(root) = 1 and runs
// the SAME tape closures in the SAME order — replay is bitwise-identical
// to eager by construction, on any thread count (see util/parallel.h's
// determinism contract).
//
// Inputs that change between steps flow through slots: an IndexSlot is a
// shared vector of indices that slot-taking ops (IndexSelect, NllLoss,
// Embedding::Forward, ClipModel::ContrastiveLoss) re-read on every
// execution, and write-in tensors (e.g. attention masks) are retained
// buffers whose contents the host refreshes before each replay.
//
// Invalidation. A plan records the process-wide kernel table (GEMM kernel
// + fused-kernel mode) at trace time and refuses to replay under a
// different table; BindParams() pins the parameter storages the closures
// point into so a plan built against reallocated parameters is rejected
// as stale. Shape/batch-size changes are handled by the caller keying its
// plan cache on them. A capture that saw an op it could not record (an
// uninstrumented code path) marks the plan incomplete, which callers must
// treat as "fall back to eager". CROSSEM_EXEC_PLAN=0 (or "false"/"off")
// is the global kill switch, mirroring CROSSEM_TENSOR_POOL and
// CROSSEM_FUSED_KERNELS.
//
// Threading. Capture state is thread-local: concurrent threads may trace
// and replay their own plans, but a single ExecutionPlan instance must not
// be replayed from two threads at once — its buffers are the shared state.
#ifndef CROSSEM_TENSOR_PLAN_H_
#define CROSSEM_TENSOR_PLAN_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace crossem {
namespace plan {

/// Per-step varying index input, re-read by slot-taking ops at execution
/// time. The host rewrites the vector's contents between replays; its SIZE
/// is part of the traced shape and must not change.
using IndexSlot = std::shared_ptr<std::vector<int64_t>>;

/// Makes a slot (optionally seeded with initial indices).
IndexSlot MakeIndexSlot(std::vector<int64_t> indices = {});

/// Whether plan capture/replay is globally enabled. Initial value honors
/// CROSSEM_EXEC_PLAN ("0"/"false"/"off" disables); SetEnabled() is the
/// programmatic override for tests and A/B benchmarks.
bool Enabled();
void SetEnabled(bool enabled);

/// A recorded flat op schedule plus the retained buffers it executes over.
class ExecutionPlan {
 public:
  ExecutionPlan() = default;
  ExecutionPlan(const ExecutionPlan&) = delete;
  ExecutionPlan& operator=(const ExecutionPlan&) = delete;

  /// Runs the recorded forward closures in trace order.
  void Replay();

  /// Zero-fills the traced gradient buffers, seeds the root gradient and
  /// runs the recorded tape closures in reverse topological order.
  /// Requires a traced backward (has_backward()).
  void ReplayBackward();

  /// Zero-fills the gradient buffer of every tensor the plan retains (the
  /// ones that have a gradient at all). An EAGER Backward() over a retained
  /// tape accumulates into whatever those buffers already hold — a fresh
  /// eager graph gets freshly-zeroed buffers — so callers must zero the
  /// tape before running an eager backward through retained tensors (e.g.
  /// when recording a backward schedule against an already-traced forward).
  void ZeroRetainedGrads();

  bool has_backward() const { return root_ != nullptr; }
  int64_t num_ops() const { return static_cast<int64_t>(ops_.size()); }

  /// True when capture recorded every tensor op it saw. An incomplete
  /// plan means an uninstrumented op ran during the trace; replaying it
  /// would silently skip work, so callers must fall back to eager.
  bool complete() const { return complete_; }

  /// Pins the storages of `params` so Validate() can detect a stale plan
  /// (parameters reallocated out from under the traced closures).
  void BindParams(const std::vector<Tensor>& params);

  /// Checks the plan against the current process state: kernel table
  /// unchanged since trace, bound parameter storages still live in the
  /// same buffers, and the capture was complete. On failure returns false,
  /// stores a short reason, and bumps the matching invalidation counter.
  bool Validate(std::string* reason) const;

  // -- Internal (capture hooks; not part of the public surface) ------------

  void RecordOpInternal(std::function<void()> fn,
                        const std::vector<Tensor>& keep);
  void RecordBackwardInternal(
      const std::shared_ptr<internal::TensorImpl>& root,
      const std::vector<internal::TensorImpl*>& order);
  void NoteTensorOpInternal() { ++ops_seen_; }
  void BeginCapture();  // snapshots the kernel table
  void EndCapture();    // finalizes completeness

 private:
  void Retain(const std::shared_ptr<internal::TensorImpl>& impl);

  std::vector<std::function<void()>> ops_;
  std::vector<std::shared_ptr<internal::TensorImpl>> retained_;
  std::unordered_set<const internal::TensorImpl*> retained_set_;

  // Backward schedule: post-order nodes (children first; replay iterates
  // reversed) + every gradient buffer the traced backward created.
  std::shared_ptr<internal::TensorImpl> root_;
  std::vector<internal::TensorImpl*> backward_order_;
  std::vector<internal::TensorImpl*> grad_nodes_;

  // Validation state. Bindings retain the parameter impls (so Validate()
  // never dereferences a freed impl) but compare the *storage* pointer,
  // which is what the traced closures actually point into.
  uint32_t kernel_sig_ = 0;
  std::vector<std::pair<std::shared_ptr<internal::TensorImpl>,
                        const internal::Storage*>>
      param_bindings_;
  int64_t ops_seen_ = 0;      // MakeResult calls during capture
  int64_t ops_recorded_ = 0;  // closures actually recorded
  bool complete_ = true;
  bool trace_counted_ = false;  // plan_traces_total bumped once per plan
};

/// RAII capture: while alive, tensor ops on THIS thread record into
/// `plan`. Non-reentrant per thread (CHECK-fails on nesting).
class CaptureScope {
 public:
  explicit CaptureScope(ExecutionPlan* plan);
  ~CaptureScope();
  CaptureScope(const CaptureScope&) = delete;
  CaptureScope& operator=(const CaptureScope&) = delete;
};

/// True while a CaptureScope is open on the calling thread.
bool CaptureActive();

namespace detail {

/// Appends `fn` to the active plan's schedule and retains `keep`'s impls.
/// Only call when CaptureActive().
void RecordOp(std::function<void()> fn, const std::vector<Tensor>& keep);

/// Reports a reverse-mode schedule to the active plan (called by
/// Tensor::Backward()). No-op when capture is inactive.
void RecordBackward(const std::shared_ptr<internal::TensorImpl>& root,
                    const std::vector<internal::TensorImpl*>& order);

/// Completeness accounting: MakeResult calls this for every tensor op so
/// a capture can detect ops that never recorded a closure.
void NoteTensorOp();

}  // namespace detail

}  // namespace plan
}  // namespace crossem

/// Records the op's forward closure into the active plan (no-op, one
/// thread-local load, when no capture is open). `...` lists the Tensors
/// whose buffers the closure points into.
#define CROSSEM_PLAN_CAPTURE(fn, ...)                                \
  do {                                                               \
    if (::crossem::plan::CaptureActive()) {                          \
      ::crossem::plan::detail::RecordOp((fn), {__VA_ARGS__});        \
    }                                                                \
  } while (0)

#endif  // CROSSEM_TENSOR_PLAN_H_
