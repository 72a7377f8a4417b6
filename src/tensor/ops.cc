#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <utility>

#include "obs/trace.h"
#include "tensor/vmath.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/target_clones.h"

namespace crossem {
namespace ops {

namespace {

/// Elements per chunk for parallel elementwise loops. Fixed (independent of
/// the thread count) so chunked decompositions are bitwise-deterministic.
constexpr int64_t kElemGrain = 1 << 16;

/// Elements per chunk for the scalar Sum reduction. A reduction chunk is a
/// single streaming add per element, so the grain must stay well above the
/// dispatch break-even — but the old 2^18 floor carved the 2M-element
/// bench reduction into just 8 chunks, which a work-stealing pool cannot
/// balance across 8 threads (one straggler chunk serializes the tail: the
/// flat sum_reduce scaling in the parallel report). 2^16 elements is still
/// ~50µs of work per chunk, two orders above dispatch cost, and yields 32
/// chunks at bench size.
constexpr int64_t kReduceGrain = 1 << 16;

/// Grain for elementwise loops, degenerating to one (inline) chunk when the
/// tensor is too small to amortize a pool dispatch (GrainWithCutoff).
int64_t ElemGrain(int64_t n) { return GrainWithCutoff(kElemGrain, n, 1); }

/// Grain for strided copies (transpose). A strided gather costs several
/// times a sequential float op (the read stream has no spatial locality),
/// so each element is credited ~4 work units: the 64K-element transposes
/// of 256x256 similarity/attention blocks now cross the dispatch cutoff
/// and parallelize instead of serializing an otherwise-parallel GEMM
/// pipeline behind them (the flat gemm_trans_b scaling in the parallel
/// report). Chunk decomposition still depends only on the problem size.
int64_t TransposeGrain(int64_t n) {
  return GrainWithCutoff(kElemGrain / 4, n, 4);
}

/// Rows per chunk for row-wise kernels (softmax, normalize, reductions):
/// about 2^15 elements per chunk, serial below the dispatch break-even.
int64_t RowGrain(int64_t rows, int64_t cols) {
  const int64_t c = std::max<int64_t>(cols, 1);
  return GrainWithCutoff(std::max<int64_t>(1, (int64_t{1} << 15) / c), rows,
                         c);
}

/// Rows per chunk for transcendental-heavy row kernels (softmax's exp
/// pass). Each element costs several float ops' worth of work, so chunks
/// amortize dispatch at ~2^12 elements instead of 2^15 — the coarse
/// RowGrain left the 4096x256 bench softmax with too few chunks per
/// thread to balance (the flat softmax_fwd scaling in the parallel
/// report). Work per row is credited 8x for the cutoff.
int64_t ExpRowGrain(int64_t rows, int64_t cols) {
  const int64_t c = std::max<int64_t>(cols, 1);
  return GrainWithCutoff(std::max<int64_t>(1, (int64_t{1} << 12) / c), rows,
                         8 * c);
}

using internal::AutogradNode;
using internal::Storage;
using internal::TensorImpl;

bool NeedsGrad(const std::shared_ptr<TensorImpl>& impl) {
  return impl->requires_grad || impl->grad_fn != nullptr;
}

/// Whether an op over `inputs` records an autograd node: grad mode is on
/// and some input needs a gradient. Ops that save state for their
/// backward consult this before MakeResult, which applies the same test.
bool RecordsGrad(const std::vector<Tensor>& inputs) {
  if (!GradModeEnabled()) return false;
  for (const Tensor& t : inputs) {
    if (NeedsGrad(t.impl())) return true;
  }
  return false;
}

/// Creates the output tensor for an op and records the autograd node when
/// tracing is active. `backward` may be empty for non-differentiable ops.
Tensor MakeResult(Shape shape, std::vector<Tensor> inputs, const char* name,
                  std::function<void(const TensorImpl&)> backward) {
  auto out = std::make_shared<TensorImpl>();
  out->shape = std::move(shape);
  out->storage = std::make_shared<Storage>(out->numel());
  if (backward && RecordsGrad(inputs)) {
    out->requires_grad = true;
    auto node = std::make_shared<AutogradNode>();
    node->op_name = name;
    for (const Tensor& t : inputs) node->inputs.push_back(t.impl());
    node->backward = std::move(backward);
    out->grad_fn = std::move(node);
  }
  return Tensor::FromImpl(std::move(out));
}

/// Row-major strides (in elements) for a shape.
std::vector<int64_t> ComputeStrides(const Shape& shape) {
  std::vector<int64_t> strides(shape.size());
  int64_t acc = 1;
  for (size_t i = shape.size(); i-- > 0;) {
    strides[i] = acc;
    acc *= shape[i];
  }
  return strides;
}

/// Strides for reading `in_shape` as if broadcast to `out_shape`
/// (right-aligned; broadcast dims get stride 0).
std::vector<int64_t> BroadcastStrides(const Shape& in_shape,
                                      const Shape& out_shape) {
  std::vector<int64_t> in_strides = ComputeStrides(in_shape);
  std::vector<int64_t> strides(out_shape.size(), 0);
  size_t offset = out_shape.size() - in_shape.size();
  for (size_t i = 0; i < in_shape.size(); ++i) {
    if (in_shape[i] == out_shape[offset + i]) {
      strides[offset + i] = in_strides[i];
    } else {
      CROSSEM_CHECK_EQ(in_shape[i], 1)
          << "broadcast mismatch: " << ShapeToString(in_shape) << " vs "
          << ShapeToString(out_shape);
      strides[offset + i] = 0;
    }
  }
  return strides;
}

/// Maps a flat output index to an element offset of a broadcast input.
int64_t BroadcastOffset(int64_t flat, const std::vector<int64_t>& out_strides,
                        const std::vector<int64_t>& in_strides) {
  int64_t off = 0;
  for (size_t d = 0; d < out_strides.size(); ++d) {
    int64_t coord = flat / out_strides[d];
    flat -= coord * out_strides[d];
    off += coord * in_strides[d];
  }
  return off;
}

/// Shared implementation for broadcasting elementwise binary ops.
///
/// `fwd(av, bv)` computes the output element; `bwd(g, av, bv, &ga, &gb)`
/// adds the per-element gradient contributions (ga/gb may be ignored when
/// the corresponding input does not require gradients).
/// Visits output indices [lo, hi) in linear order, handing the body the
/// matching input offset under `read_strides`. The multi-index advances
/// odometer-style, so after the one-time seed at `lo` no per-element
/// div/mod is needed (BroadcastOffset does rank divisions per element).
template <typename Body>
void StridedVisit(int64_t lo, int64_t hi, const Shape& shape,
                  const std::vector<int64_t>& out_strides,
                  const std::vector<int64_t>& read_strides, Body body) {
  const size_t rank = shape.size();
  std::vector<int64_t> idx(rank, 0);
  int64_t rem = lo;
  int64_t off = 0;
  for (size_t d = 0; d < rank; ++d) {
    idx[d] = rem / out_strides[d];
    rem %= out_strides[d];
    off += idx[d] * read_strides[d];
  }
  for (int64_t i = lo; i < hi; ++i) {
    body(i, off);
    for (int64_t d = static_cast<int64_t>(rank) - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      ++idx[du];
      off += read_strides[du];
      if (idx[du] < shape[du]) break;
      off -= shape[du] * read_strides[du];
      idx[du] = 0;
    }
  }
}

/// How a broadcast operand's input offset follows the linear output index.
/// The two periodic kinds cover the ubiquitous cases — a trailing-dims
/// operand (bias [D] under [.., D]) maps by modulo, and a trailing-ones
/// operand (keepdim mean [.., 1] under [.., D]) maps by division — letting
/// those ops stream without the per-element div/mod walk of the general
/// stride path.
struct BcastPlan {
  enum Kind { kIdentity, kModulo, kDivide, kGeneral };
  Kind kind = kGeneral;
  int64_t period = 1;
};

BcastPlan PlanBroadcast(const Shape& x, const Shape& out, bool contig) {
  if (contig) return {BcastPlan::kIdentity, 1};
  // Trailing suffix: x (leading 1s stripped) equals the trailing out dims.
  size_t lead = 0;
  while (lead < x.size() && x[lead] == 1) ++lead;
  const size_t rx = x.size() - lead;
  if (rx <= out.size()) {
    bool suffix = true;
    int64_t period = 1;
    for (size_t d = 0; d < rx && suffix; ++d) {
      suffix = (x[lead + d] == out[out.size() - rx + d]);
      period *= x[lead + d];
    }
    if (suffix) return {BcastPlan::kModulo, period};
  }
  // Trailing run of 1s with equal leading dims: offset = i / run-extent.
  if (x.size() == out.size()) {
    size_t t = x.size();
    while (t > 0 && x[t - 1] == 1) --t;
    bool ok = t < x.size();
    int64_t div = 1;
    for (size_t d = t; d < x.size(); ++d) div *= out[d];
    for (size_t d = 0; d < t && ok; ++d) ok = (x[d] == out[d]);
    if (ok) return {BcastPlan::kDivide, div};
  }
  return {BcastPlan::kGeneral, 1};
}

/// Streams a broadcast operand's input offsets for consecutive output
/// indices, division-free after construction.
class BcastCursor {
 public:
  BcastCursor(const BcastPlan& plan, int64_t start)
      : kind_(plan.kind), period_(plan.period) {
    switch (kind_) {
      case BcastPlan::kIdentity:
        idx_ = start;
        break;
      case BcastPlan::kModulo:
        idx_ = start % period_;
        break;
      case BcastPlan::kDivide:
        idx_ = start / period_;
        rem_ = start - idx_ * period_;
        break;
      case BcastPlan::kGeneral:
        break;
    }
  }

  int64_t index() const { return idx_; }

  void Advance() {
    switch (kind_) {
      case BcastPlan::kIdentity:
        ++idx_;
        break;
      case BcastPlan::kModulo:
        if (++idx_ == period_) idx_ = 0;
        break;
      case BcastPlan::kDivide:
        if (++rem_ == period_) {
          rem_ = 0;
          ++idx_;
        }
        break;
      case BcastPlan::kGeneral:
        break;
    }
  }

 private:
  BcastPlan::Kind kind_;
  int64_t period_;
  int64_t idx_ = 0;
  int64_t rem_ = 0;
};

template <typename FwdFn, typename BwdFn>
Tensor BroadcastBinaryOp(const Tensor& a, const Tensor& b, const char* name,
                         FwdFn fwd, BwdFn bwd) {
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  std::vector<int64_t> out_strides = ComputeStrides(out_shape);
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> b_strides = BroadcastStrides(b.shape(), out_shape);
  const bool a_contig = (a.shape() == out_shape);
  const bool b_contig = (b.shape() == out_shape);
  const BcastPlan a_plan = PlanBroadcast(a.shape(), out_shape, a_contig);
  const BcastPlan b_plan = PlanBroadcast(b.shape(), out_shape, b_contig);
  const bool periodic = a_plan.kind != BcastPlan::kGeneral &&
                        b_plan.kind != BcastPlan::kGeneral;

  auto a_impl = a.impl();
  auto b_impl = b.impl();

  auto backward = [a_impl, b_impl, out_strides, a_strides, b_strides, a_contig,
                   b_contig, a_plan, b_plan, periodic,
                   bwd](const TensorImpl& out) {
    const float* g = out.grad->data();
    const float* av = a_impl->storage->data();
    const float* bv = b_impl->storage->data();
    float* ga = NeedsGrad(a_impl) ? a_impl->MutableGrad().data() : nullptr;
    float* gb = NeedsGrad(b_impl) ? b_impl->MutableGrad().data() : nullptr;
    const int64_t n = out.numel();
    if (a_contig && b_contig) {
      ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          float da = 0.0f, db = 0.0f;
          bwd(g[i], av[i], bv[i], &da, &db);
          if (ga) ga[i] += da;
          if (gb) gb[i] += db;
        }
      });
    } else if (periodic) {
      // Broadcast dims scatter-add into shared grad slots; keep serial
      // (ascending i) but stream offsets division-free.
      BcastCursor ac(a_plan, 0), bc(b_plan, 0);
      for (int64_t i = 0; i < n; ++i) {
        float da = 0.0f, db = 0.0f;
        bwd(g[i], av[ac.index()], bv[bc.index()], &da, &db);
        if (ga) ga[ac.index()] += da;
        if (gb) gb[bc.index()] += db;
        ac.Advance();
        bc.Advance();
      }
    } else {
      // Broadcast dims scatter-add into shared grad slots; keep serial.
      for (int64_t i = 0; i < n; ++i) {
        int64_t ai = a_contig ? i : BroadcastOffset(i, out_strides, a_strides);
        int64_t bi = b_contig ? i : BroadcastOffset(i, out_strides, b_strides);
        float da = 0.0f, db = 0.0f;
        bwd(g[i], av[ai], bv[bi], &da, &db);
        if (ga) ga[ai] += da;
        if (gb) gb[bi] += db;
      }
    }
  };

  Tensor out = MakeResult(out_shape, {a, b}, name, backward);
  const int64_t n = out.numel();
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  if (a_contig && b_contig) {
    ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) ov[i] = fwd(av[i], bv[i]);
    });
  } else if (periodic) {
    ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
      BcastCursor ac(a_plan, lo), bc(b_plan, lo);
      for (int64_t i = lo; i < hi; ++i) {
        ov[i] = fwd(av[ac.index()], bv[bc.index()]);
        ac.Advance();
        bc.Advance();
      }
    });
  } else {
    ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        int64_t ai = a_contig ? i : BroadcastOffset(i, out_strides, a_strides);
        int64_t bi = b_contig ? i : BroadcastOffset(i, out_strides, b_strides);
        ov[i] = fwd(av[ai], bv[bi]);
      }
    });
  }
  return out;
}

/// Elements per stack block in which a unary op's backward evaluates its
/// local derivatives.
constexpr int64_t kDyDxBlock = 256;

/// Shared implementation for elementwise unary ops, over block kernels:
/// `fwd(x, y, n)` writes y[0, n) from x[0, n), and `dydx(x, y, d, n)` writes
/// the local derivatives d[0, n) given input and output values.
template <typename BlockFwdFn, typename BlockDyDxFn>
Tensor UnaryBlockOp(const Tensor& a, const char* name, BlockFwdFn fwd,
                    BlockDyDxFn dydx) {
  auto a_impl = a.impl();
  // Keep a copy of outputs for derivative formulas expressed in terms of y.
  auto backward = [a_impl, dydx](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    const float* x = a_impl->storage->data();
    const float* y = out.storage->data();
    float* ga = a_impl->MutableGrad().data();
    const int64_t n = out.numel();
    ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
      float d[kDyDxBlock];
      for (int64_t i = lo; i < hi; i += kDyDxBlock) {
        const int64_t m = std::min(kDyDxBlock, hi - i);
        dydx(x + i, y + i, d, m);
        for (int64_t j = 0; j < m; ++j) ga[i + j] += g[i + j] * d[j];
      }
    });
  };
  Tensor out = MakeResult(a.shape(), {a}, name, backward);
  const float* x = a.data();
  float* y = out.data();
  const int64_t n = a.numel();
  ParallelFor(0, n, ElemGrain(n),
              [&](int64_t lo, int64_t hi) { fwd(x + lo, y + lo, hi - lo); });
  return out;
}

/// UnaryBlockOp over per-element functions: `fwd(x)` returns the output
/// and `dydx(x, y)` the local derivative given input and output values.
template <typename FwdFn, typename DyDxFn>
Tensor UnaryOp(const Tensor& a, const char* name, FwdFn fwd, DyDxFn dydx) {
  return UnaryBlockOp(
      a, name,
      [fwd](const float* x, float* y, int64_t n) {
        for (int64_t i = 0; i < n; ++i) y[i] = fwd(x[i]);
      },
      [dydx](const float* x, const float* y, float* d, int64_t n) {
        for (int64_t i = 0; i < n; ++i) d[i] = dydx(x[i], y[i]);
      });
}

/// Rows of C per parallel chunk; also the unit the row micro-kernel tiles.
constexpr int64_t kGemmRowChunk = 32;
/// Depth of the K panel kept hot in cache between passes over C rows.
constexpr int64_t kGemmKBlock = 256;
/// Multiply-adds below which a GEMM runs serially on the calling thread:
/// ~2M flops is around a millisecond of scalar work, several times the
/// cost of waking the pool. The small per-layer GEMMs of the training
/// towers stay inline; the 256^3-and-up matrices still fan out.
constexpr int64_t kGemmMinParallelOps = int64_t{1} << 21;

/// Columns of C held in registers across a K-panel (4 rows x 16 cols of
/// float accumulators fits the 16 YMM registers of the AVX2 clone).
constexpr int64_t kGemmNTile = 16;

/// C rows [r0, r1) += A rows [r0, r1) times the K-panel b[p0:p1, :].
///
/// Register-tiled micro-kernel: a 4 x kGemmNTile accumulator block is
/// loaded from C once, updated in registers across the whole K panel, and
/// stored back once — C traffic is O(m*n) per panel instead of O(m*n*k).
/// Each C element still accumulates its products in ascending-p order in
/// every tile/remainder path, so results are independent of tiling edges
/// and thread count. The AVX2 clone contracts `t += a * b` into FMAs, so
/// the clone a host picks decides the rounding (util/target_clones.h).
CROSSEM_TARGET_CLONES
void GemmRowBlock(const float* a, const float* b, float* c, int64_t k,
                  int64_t n, int64_t p0, int64_t p1, int64_t r0, int64_t r1) {
  int64_t i = r0;
  for (; i + 4 <= r1; i += 4) {
    const float* a0 = a + i * k;
    const float* a1 = a0 + k;
    const float* a2 = a1 + k;
    const float* a3 = a2 + k;
    float* c0 = c + i * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    int64_t j0 = 0;
    for (; j0 + kGemmNTile <= n; j0 += kGemmNTile) {
      float t0[kGemmNTile], t1[kGemmNTile], t2[kGemmNTile], t3[kGemmNTile];
      for (int64_t j = 0; j < kGemmNTile; ++j) {
        t0[j] = c0[j0 + j];
        t1[j] = c1[j0 + j];
        t2[j] = c2[j0 + j];
        t3[j] = c3[j0 + j];
      }
      for (int64_t p = p0; p < p1; ++p) {
        const float av0 = a0[p], av1 = a1[p], av2 = a2[p], av3 = a3[p];
        const float* bp = b + p * n + j0;
        for (int64_t j = 0; j < kGemmNTile; ++j) {
          const float bv = bp[j];
          t0[j] += av0 * bv;
          t1[j] += av1 * bv;
          t2[j] += av2 * bv;
          t3[j] += av3 * bv;
        }
      }
      for (int64_t j = 0; j < kGemmNTile; ++j) {
        c0[j0 + j] = t0[j];
        c1[j0 + j] = t1[j];
        c2[j0 + j] = t2[j];
        c3[j0 + j] = t3[j];
      }
    }
    for (; j0 < n; ++j0) {
      float s0 = c0[j0], s1 = c1[j0], s2 = c2[j0], s3 = c3[j0];
      for (int64_t p = p0; p < p1; ++p) {
        const float bv = b[p * n + j0];
        s0 += a0[p] * bv;
        s1 += a1[p] * bv;
        s2 += a2[p] * bv;
        s3 += a3[p] * bv;
      }
      c0[j0] = s0;
      c1[j0] = s1;
      c2[j0] = s2;
      c3[j0] = s3;
    }
  }
  for (; i < r1; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    int64_t j0 = 0;
    for (; j0 + kGemmNTile <= n; j0 += kGemmNTile) {
      float t[kGemmNTile];
      for (int64_t j = 0; j < kGemmNTile; ++j) t[j] = ci[j0 + j];
      for (int64_t p = p0; p < p1; ++p) {
        const float av = ai[p];
        const float* bp = b + p * n + j0;
        for (int64_t j = 0; j < kGemmNTile; ++j) t[j] += av * bp[j];
      }
      for (int64_t j = 0; j < kGemmNTile; ++j) ci[j0 + j] = t[j];
    }
    for (; j0 < n; ++j0) {
      float s = ci[j0];
      for (int64_t p = p0; p < p1; ++p) s += ai[p] * b[p * n + j0];
      ci[j0] = s;
    }
  }
}

/// C (m x n) = or += A (m x k) * B (k x n), with optional transposes
/// interpreting A as (k x m) / B as (n x k) physical layouts.
///
/// Transposed operands are packed once into contiguous row-major panels so
/// both layouts stream sequentially, the K dimension is blocked so the B
/// panel stays cache-resident, and C rows are processed four at a time to
/// reuse each B row across four accumulators. Row blocks run in parallel;
/// per-row accumulation order is fixed (ascending p), so results do not
/// depend on the thread count.
GemmKernel g_gemm_kernel = GemmKernel::kBlocked;

void Gemm(const float* a, const float* b, float* c, int64_t m, int64_t k,
          int64_t n, bool trans_a, bool trans_b, bool accumulate) {
  // Disabled-tracing cost is one relaxed load + branch — measured
  // against the 256^3 GEMM bench this is noise (DESIGN.md §11 budget).
  CROSSEM_TRACE_SPAN_V(span, "gemm");
  span.Arg("m", m).Arg("k", k).Arg("n", n);
  if (!accumulate) std::fill_n(c, m * n, 0.0f);
  if (m == 0 || n == 0 || k == 0) return;

  static thread_local std::vector<float> a_pack;
  static thread_local std::vector<float> b_pack;
  if (trans_a) {
    // a is physically (k x m); pack to row-major (m x k). Chunks write
    // disjoint pack columns, so the copy parallelizes for large panels
    // (and GrainWithCutoff keeps small ones on the calling thread).
    a_pack.resize(static_cast<size_t>(m * k));
    float* ap = a_pack.data();
    const float* asrc = a;
    ParallelFor(0, k,
                GrainWithCutoff(
                    std::max<int64_t>(1, (int64_t{1} << 15) /
                                            std::max<int64_t>(m, 1)),
                    k, m),
                [ap, asrc, m, k](int64_t p0, int64_t p1) {
                  for (int64_t p = p0; p < p1; ++p) {
                    const float* src = asrc + p * m;
                    for (int64_t i = 0; i < m; ++i) ap[i * k + p] = src[i];
                  }
                });
    a = a_pack.data();
  }
  if (trans_b) {
    // b is physically (n x k); pack to row-major (k x n). Same disjoint
    // column-chunk parallelization as the A pack.
    b_pack.resize(static_cast<size_t>(k * n));
    float* bp = b_pack.data();
    const float* bsrc = b;
    ParallelFor(0, n,
                GrainWithCutoff(
                    std::max<int64_t>(1, (int64_t{1} << 15) /
                                            std::max<int64_t>(k, 1)),
                    n, k),
                [bp, bsrc, k, n](int64_t j0, int64_t j1) {
                  for (int64_t j = j0; j < j1; ++j) {
                    const float* src = bsrc + j * k;
                    for (int64_t p = 0; p < k; ++p) bp[p * n + j] = src[p];
                  }
                });
    b = b_pack.data();
  }

  if (g_gemm_kernel == GemmKernel::kReference) {
    // The seed repository's serial scalar loop (including its zero-skip
    // branch), preserved as the benchmark baseline.
    for (int64_t i = 0; i < m; ++i) {
      const float* ai = a + i * k;
      float* ci = c + i * n;
      for (int64_t p = 0; p < k; ++p) {
        const float av = ai[p];
        if (av == 0.0f) continue;
        const float* bp = b + p * n;
        for (int64_t j = 0; j < n; ++j) ci[j] += av * bp[j];
      }
    }
    return;
  }

  // Serial below the flop cutoff: the chunk decomposition still depends
  // only on the problem size, so determinism is unaffected.
  const int64_t row_grain = (m * n * k < kGemmMinParallelOps) ? m
                                                              : kGemmRowChunk;
  ParallelFor(0, m, row_grain, [a, b, c, k, n](int64_t r0, int64_t r1) {
    for (int64_t p0 = 0; p0 < k; p0 += kGemmKBlock) {
      const int64_t p1 = std::min(k, p0 + kGemmKBlock);
      GemmRowBlock(a, b, c, k, n, p0, p1, r0, r1);
    }
  });
}

FusedKernels ResolveFusedKernelsDefault() {
  const char* env = std::getenv("CROSSEM_FUSED_KERNELS");
  if (env != nullptr &&
      (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
       std::strcmp(env, "reference") == 0)) {
    return FusedKernels::kReference;
  }
  return FusedKernels::kFused;
}

FusedKernels g_fused_kernels = ResolveFusedKernelsDefault();

}  // namespace

void SetGemmKernel(GemmKernel kernel) { g_gemm_kernel = kernel; }

GemmKernel GetGemmKernel() { return g_gemm_kernel; }

void SetFusedKernels(FusedKernels mode) { g_fused_kernels = mode; }

FusedKernels GetFusedKernels() { return g_fused_kernels; }

Shape BroadcastShapes(const Shape& a, const Shape& b) {
  const size_t rank = std::max(a.size(), b.size());
  Shape out(rank);
  for (size_t i = 0; i < rank; ++i) {
    int64_t da = i < rank - a.size() ? 1 : a[i - (rank - a.size())];
    int64_t db = i < rank - b.size() ? 1 : b[i - (rank - b.size())];
    if (da == db) {
      out[i] = da;
    } else if (da == 1) {
      out[i] = db;
    } else if (db == 1) {
      out[i] = da;
    } else {
      CROSSEM_CHECK(false) << "cannot broadcast " << ShapeToString(a) << " and "
                           << ShapeToString(b);
    }
  }
  return out;
}

Tensor Eye(int64_t n) {
  Tensor t = Tensor::Zeros({n, n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i * n + i] = 1.0f;
  return t;
}

// -- Elementwise binary -----------------------------------------------------------

Tensor Add(const Tensor& a, const Tensor& b) {
  return BroadcastBinaryOp(
      a, b, "add", [](float x, float y) { return x + y; },
      [](float g, float, float, float* ga, float* gb) {
        *ga = g;
        *gb = g;
      });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return BroadcastBinaryOp(
      a, b, "sub", [](float x, float y) { return x - y; },
      [](float g, float, float, float* ga, float* gb) {
        *ga = g;
        *gb = -g;
      });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return BroadcastBinaryOp(
      a, b, "mul", [](float x, float y) { return x * y; },
      [](float g, float x, float y, float* ga, float* gb) {
        *ga = g * y;
        *gb = g * x;
      });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  return BroadcastBinaryOp(
      a, b, "div", [](float x, float y) { return x / y; },
      [](float g, float x, float y, float* ga, float* gb) {
        *ga = g / y;
        *gb = -g * x / (y * y);
      });
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "add_scalar", [s](float x) { return x + s; },
      [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, "mul_scalar", [s](float x) { return x * s; },
      [s](float, float) { return s; });
}

// -- Elementwise unary -------------------------------------------------------------

Tensor Neg(const Tensor& a) {
  return UnaryOp(
      a, "neg", [](float x) { return -x; }, [](float, float) { return -1.0f; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, "exp", [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, "log", [](float x) { return std::log(x); },
      [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, "sqrt", [](float x) { return std::sqrt(x); },
      [](float, float y) { return y > 0.0f ? 0.5f / y : 0.0f; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, "abs", [](float x) { return std::fabs(x); },
      [](float x, float) { return x >= 0.0f ? 1.0f : -1.0f; });
}

Tensor Sin(const Tensor& a) {
  return UnaryOp(
      a, "sin", [](float x) { return std::sin(x); },
      [](float x, float) { return std::cos(x); });
}

Tensor Cos(const Tensor& a) {
  return UnaryOp(
      a, "cos", [](float x) { return std::cos(x); },
      [](float x, float) { return -std::sin(x); });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, "relu", [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Gelu(const Tensor& a) {
  return UnaryBlockOp(
      a, "gelu", vmath::Gelu,
      [](const float* x, const float*, float* d, int64_t n) {
        vmath::GeluDerivative(x, d, n);
      });
}

Tensor Tanh(const Tensor& a) {
  return UnaryBlockOp(
      a, "tanh", vmath::Tanh,
      [](const float*, const float* y, float* d, int64_t n) {
        for (int64_t i = 0; i < n; ++i) d[i] = 1.0f - y[i] * y[i];
      });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, "sigmoid", [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Pow(const Tensor& a, float p) {
  return UnaryOp(
      a, "pow", [p](float x) { return std::pow(x, p); },
      [p](float x, float) { return p * std::pow(x, p - 1.0f); });
}

// -- Matrix multiply ------------------------------------------------------------------

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CROSSEM_CHECK_GE(a.dim(), 2);
  CROSSEM_CHECK_GE(b.dim(), 2);
  const int64_t m = a.size(-2);
  const int64_t k = a.size(-1);
  const int64_t k2 = b.size(-2);
  const int64_t n = b.size(-1);
  CROSSEM_CHECK_EQ(k, k2) << "matmul inner dims: " << ShapeToString(a.shape())
                          << " x " << ShapeToString(b.shape());

  // Batch layout: leading dims of `a` define the batch; `b` either matches
  // exactly or is a shared 2D matrix.
  Shape lead(a.shape().begin(), a.shape().end() - 2);
  int64_t batch = 1;
  for (int64_t d : lead) batch *= d;
  const bool b_shared = (b.dim() == 2);
  if (!b_shared) {
    CROSSEM_CHECK(Shape(b.shape().begin(), b.shape().end() - 2) == lead)
        << "matmul batch dims must match: " << ShapeToString(a.shape())
        << " x " << ShapeToString(b.shape());
  }

  Shape out_shape = lead;
  out_shape.push_back(m);
  out_shape.push_back(n);

  // A shared 2D rhs makes the whole batch one GEMM: `a` is contiguous, so
  // [batch, m, k] x [k, n] is exactly [batch*m, k] x [k, n]. Collapsing
  // avoids per-slice dispatch (the dominant cost for seq-1 towers) and
  // turns the shared-dB reduction into a single fixed-order trans_a GEMM.
  const int64_t rows = b_shared ? batch * m : m;
  const int64_t slices = b_shared ? 1 : batch;

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  auto backward = [a_impl, b_impl, rows, k, n, slices](const TensorImpl& out) {
    const float* g = out.grad->data();
    const float* av = a_impl->storage->data();
    const float* bv = b_impl->storage->data();
    float* ga = NeedsGrad(a_impl) ? a_impl->MutableGrad().data() : nullptr;
    float* gb = NeedsGrad(b_impl) ? b_impl->MutableGrad().data() : nullptr;
    // dA and dB slices are disjoint per batch entry (the shared-B case is
    // a single slice covering the whole batch), so the slice dimension
    // parallelizes directly.
    ParallelFor(0, slices, 1, [&](int64_t s0, int64_t s1) {
      for (int64_t s = s0; s < s1; ++s) {
        const float* gs = g + s * rows * n;
        const float* as = av + s * rows * k;
        const float* bs = bv + s * k * n;
        if (ga) {
          // dA = dC * B^T   (rows x n)(n x k)
          Gemm(gs, bs, ga + s * rows * k, rows, n, k, false, true, true);
        }
        if (gb) {
          // dB = A^T * dC   (k x rows)(rows x n)
          Gemm(as, gs, gb + s * k * n, k, rows, n, true, false, true);
        }
      }
    });
  };

  Tensor out = MakeResult(out_shape, {a, b}, "matmul", backward);
  const float* av = a.data();
  const float* bv = b.data();
  float* ov = out.data();
  ParallelFor(0, slices, 1, [&](int64_t s0, int64_t s1) {
    for (int64_t s = s0; s < s1; ++s) {
      Gemm(av + s * rows * k, bv + s * k * n, ov + s * rows * n, rows, k, n,
           false, false, false);
    }
  });
  return out;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  CROSSEM_CHECK_GE(a.dim(), 2);
  CROSSEM_CHECK_EQ(b.dim(), 2);
  const int64_t m = a.size(-2);
  const int64_t k = a.size(-1);
  const int64_t n = b.size(0);
  CROSSEM_CHECK_EQ(k, b.size(1))
      << "matmul_trans_b inner dims: " << ShapeToString(a.shape()) << " x "
      << ShapeToString(b.shape()) << "^T";

  // b is shared across a's batch dims, so (as in MatMul's shared-2D case)
  // the whole batch collapses into one [batch*m, k] x [k, n] GEMM.
  Shape lead(a.shape().begin(), a.shape().end() - 2);
  int64_t batch = 1;
  for (int64_t d : lead) batch *= d;
  Shape out_shape = lead;
  out_shape.push_back(m);
  out_shape.push_back(n);
  const int64_t rows = batch * m;

  auto a_impl = a.impl();
  auto b_impl = b.impl();
  auto backward = [a_impl, b_impl, rows, k, n](const TensorImpl& out) {
    const float* g = out.grad->data();
    const float* av = a_impl->storage->data();
    const float* bv = b_impl->storage->data();
    if (float* ga = NeedsGrad(a_impl) ? a_impl->MutableGrad().data()
                                      : nullptr) {
      // dA = dC * B: b is already the (n x k) row-major operand this GEMM
      // wants, so unlike the Transpose-composed path no packing happens.
      Gemm(g, bv, ga, rows, n, k, false, false, true);
    }
    if (float* gb = NeedsGrad(b_impl) ? b_impl->MutableGrad().data()
                                      : nullptr) {
      // dB = dC^T * A   (n x rows)(rows x k)
      Gemm(g, av, gb, n, rows, k, true, false, true);
    }
  };

  Tensor out = MakeResult(std::move(out_shape), {a, b}, "matmul_trans_b",
                          backward);
  Gemm(a.data(), b.data(), out.data(), rows, k, n, false, true, false);
  return out;
}

Tensor Transpose(const Tensor& a, int64_t d0, int64_t d1) {
  const int64_t rank = a.dim();
  if (d0 < 0) d0 += rank;
  if (d1 < 0) d1 += rank;
  CROSSEM_CHECK_GE(d0, 0);
  CROSSEM_CHECK_LT(d0, rank);
  CROSSEM_CHECK_GE(d1, 0);
  CROSSEM_CHECK_LT(d1, rank);

  Shape out_shape = a.shape();
  std::swap(out_shape[static_cast<size_t>(d0)],
            out_shape[static_cast<size_t>(d1)]);

  std::vector<int64_t> in_strides = ComputeStrides(a.shape());
  std::vector<int64_t> out_strides = ComputeStrides(out_shape);
  // Strides for reading the input in output order.
  std::vector<int64_t> read_strides = in_strides;
  std::swap(read_strides[static_cast<size_t>(d0)],
            read_strides[static_cast<size_t>(d1)]);

  auto a_impl = a.impl();
  auto backward = [a_impl, out_shape, out_strides,
                   read_strides](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    // The output->input index map is a bijection, so the scatter-adds are
    // disjoint and parallelize safely.
    ParallelFor(0, out.numel(), ElemGrain(out.numel()),
                [&](int64_t lo, int64_t hi) {
      StridedVisit(lo, hi, out_shape, out_strides, read_strides,
                   [&](int64_t i, int64_t off) { ga[off] += g[i]; });
    });
  };

  Tensor out = MakeResult(out_shape, {a}, "transpose", backward);
  const float* src = a.data();
  float* dst = out.data();
  const int64_t n = a.numel();
  ParallelFor(0, n, TransposeGrain(n), [&](int64_t lo, int64_t hi) {
    StridedVisit(lo, hi, out_shape, out_strides, read_strides,
                 [&](int64_t i, int64_t off) { dst[i] = src[off]; });
  });
  return out;
}

Tensor Reshape(const Tensor& a, Shape shape) {
  // Resolve a single -1 dimension.
  int64_t known = 1;
  int64_t infer = -1;
  for (size_t i = 0; i < shape.size(); ++i) {
    if (shape[i] == -1) {
      CROSSEM_CHECK_EQ(infer, -1) << "at most one -1 dim in reshape";
      infer = static_cast<int64_t>(i);
    } else {
      known *= shape[i];
    }
  }
  if (infer >= 0) {
    CROSSEM_CHECK_GT(known, 0);
    CROSSEM_CHECK_EQ(a.numel() % known, 0);
    shape[static_cast<size_t>(infer)] = a.numel() / known;
  }
  CROSSEM_CHECK_EQ(ShapeNumel(shape), a.numel())
      << "reshape " << ShapeToString(a.shape()) << " -> "
      << ShapeToString(shape);

  auto a_impl = a.impl();
  auto backward = [a_impl](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    const int64_t n = out.numel();
    for (int64_t i = 0; i < n; ++i) ga[i] += g[i];
  };
  Tensor out = MakeResult(std::move(shape), {a}, "reshape", backward);
  std::copy_n(a.data(), a.numel(), out.data());
  return out;
}

// -- Reductions ---------------------------------------------------------------------

Tensor Sum(const Tensor& a) {
  auto a_impl = a.impl();
  auto backward = [a_impl](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float g = out.grad->data()[0];
    float* ga = a_impl->MutableGrad().data();
    ParallelFor(0, a_impl->numel(), ElemGrain(a_impl->numel()),
                [&](int64_t lo, int64_t hi) {
                  for (int64_t i = lo; i < hi; ++i) ga[i] += g;
                });
  };
  Tensor out = MakeResult({}, {a}, "sum", backward);
  const float* p = a.data();
  const int64_t n = a.numel();
  // Fixed-grain chunked reduction: partials are combined in chunk order,
  // so the result is identical at any thread count (see util/parallel.h).
  const double acc = ParallelReduce<double>(
      0, n, GrainWithCutoff(kReduceGrain, n, 1), 0.0,
      [p](int64_t lo, int64_t hi) {
        double part = 0.0;
        for (int64_t i = lo; i < hi; ++i) part += p[i];
        return part;
      },
      [](double x, double y) { return x + y; });
  out.data()[0] = static_cast<float>(acc);
  return out;
}

namespace {
/// Decomposes a shape around `dim` into (outer, reduce, inner) extents.
void SplitAroundDim(const Shape& shape, int64_t dim, int64_t* outer,
                    int64_t* reduce, int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < dim; ++i) *outer *= shape[static_cast<size_t>(i)];
  *reduce = shape[static_cast<size_t>(dim)];
  for (size_t i = static_cast<size_t>(dim) + 1; i < shape.size(); ++i) {
    *inner *= shape[i];
  }
}
}  // namespace

Tensor Sum(const Tensor& a, int64_t dim, bool keepdim) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CROSSEM_CHECK_GE(dim, 0);
  CROSSEM_CHECK_LT(dim, rank);
  int64_t outer, reduce, inner;
  SplitAroundDim(a.shape(), dim, &outer, &reduce, &inner);

  Shape out_shape = a.shape();
  if (keepdim) {
    out_shape[static_cast<size_t>(dim)] = 1;
  } else {
    out_shape.erase(out_shape.begin() + dim);
  }

  auto a_impl = a.impl();
  auto backward = [a_impl, outer, reduce, inner](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    ParallelFor(0, outer, RowGrain(outer, reduce * inner),
                [&](int64_t o0, int64_t o1) {
                  for (int64_t o = o0; o < o1; ++o) {
                    for (int64_t r = 0; r < reduce; ++r) {
                      for (int64_t i = 0; i < inner; ++i) {
                        ga[(o * reduce + r) * inner + i] += g[o * inner + i];
                      }
                    }
                  }
                });
  };
  Tensor out = MakeResult(std::move(out_shape), {a}, "sum_dim", backward);
  const float* p = a.data();
  float* q = out.data();
  std::fill_n(q, out.numel(), 0.0f);
  ParallelFor(0, outer, RowGrain(outer, reduce * inner),
              [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t r = 0; r < reduce; ++r) {
        for (int64_t i = 0; i < inner; ++i) {
          q[o * inner + i] += p[(o * reduce + r) * inner + i];
        }
      }
    }
  });
  return out;
}

Tensor Mean(const Tensor& a) {
  CROSSEM_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor Mean(const Tensor& a, int64_t dim, bool keepdim) {
  int64_t d = dim < 0 ? dim + a.dim() : dim;
  const float scale = 1.0f / static_cast<float>(a.size(d));
  return MulScalar(Sum(a, dim, keepdim), scale);
}

std::vector<int64_t> ArgMax(const Tensor& a, int64_t dim) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  int64_t outer, reduce, inner;
  SplitAroundDim(a.shape(), dim, &outer, &reduce, &inner);
  std::vector<int64_t> result(static_cast<size_t>(outer * inner));
  const float* p = a.data();
  ParallelFor(0, outer, RowGrain(outer, reduce * inner), [&](int64_t o0, int64_t o1) {
    for (int64_t o = o0; o < o1; ++o) {
      for (int64_t i = 0; i < inner; ++i) {
        int64_t best = 0;
        float best_v = p[o * reduce * inner + i];
        for (int64_t r = 1; r < reduce; ++r) {
          float v = p[(o * reduce + r) * inner + i];
          if (v > best_v) {
            best_v = v;
            best = r;
          }
        }
        result[static_cast<size_t>(o * inner + i)] = best;
      }
    }
  });
  return result;
}

// -- Softmax family ----------------------------------------------------------------

Tensor Softmax(const Tensor& a) {
  CROSSEM_CHECK_GE(a.dim(), 1);
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;

  auto a_impl = a.impl();
  auto backward = [a_impl, rows, cols](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    const float* y = out.storage->data();
    float* ga = a_impl->MutableGrad().data();
    ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * cols;
        const float* yr = y + r * cols;
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
        float* gar = ga + r * cols;
        for (int64_t c = 0; c < cols; ++c) gar[c] += yr[c] * (gr[c] - dot);
      }
    });
  };
  Tensor out = MakeResult(a.shape(), {a}, "softmax", backward);
  const float* x = a.data();
  float* y = out.data();
  ParallelFor(0, rows, ExpRowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float mx = xr[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
      float denom = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        yr[c] = std::exp(xr[c] - mx);
        denom += yr[c];
      }
      const float inv = 1.0f / denom;
      for (int64_t c = 0; c < cols; ++c) yr[c] *= inv;
    }
  });
  return out;
}

Tensor LogSoftmax(const Tensor& a) {
  CROSSEM_CHECK_GE(a.dim(), 1);
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;

  auto a_impl = a.impl();
  auto backward = [a_impl, rows, cols](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    const float* y = out.storage->data();  // log-probabilities
    float* ga = a_impl->MutableGrad().data();
    ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * cols;
        const float* yr = y + r * cols;
        float gsum = 0.0f;
        for (int64_t c = 0; c < cols; ++c) gsum += gr[c];
        float* gar = ga + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          gar[c] += gr[c] - std::exp(yr[c]) * gsum;
        }
      }
    });
  };
  Tensor out = MakeResult(a.shape(), {a}, "log_softmax", backward);
  const float* x = a.data();
  float* y = out.data();
  ParallelFor(0, rows, ExpRowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float mx = xr[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, xr[c]);
      float denom = 0.0f;
      for (int64_t c = 0; c < cols; ++c) denom += std::exp(xr[c] - mx);
      const float log_denom = std::log(denom) + mx;
      for (int64_t c = 0; c < cols; ++c) yr[c] = xr[c] - log_denom;
    }
  });
  return out;
}

Tensor L2Normalize(const Tensor& a, float eps) {
  CROSSEM_CHECK_GE(a.dim(), 1);
  const int64_t cols = a.size(-1);
  const int64_t rows = a.numel() / cols;

  auto a_impl = a.impl();
  auto backward = [a_impl, rows, cols, eps](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    const float* x = a_impl->storage->data();
    const float* y = out.storage->data();
    float* ga = a_impl->MutableGrad().data();
    ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* xr = x + r * cols;
        const float* yr = y + r * cols;
        const float* gr = g + r * cols;
        float norm2 = 0.0f;
        for (int64_t c = 0; c < cols; ++c) norm2 += xr[c] * xr[c];
        float norm = std::max(std::sqrt(norm2), eps);
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
        float* gar = ga + r * cols;
        const float inv = 1.0f / norm;
        for (int64_t c = 0; c < cols; ++c) {
          gar[c] += (gr[c] - yr[c] * dot) * inv;
        }
      }
    });
  };
  Tensor out = MakeResult(a.shape(), {a}, "l2_normalize", backward);
  const float* x = a.data();
  float* y = out.data();
  ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = x + r * cols;
      float* yr = y + r * cols;
      float norm2 = 0.0f;
      for (int64_t c = 0; c < cols; ++c) norm2 += xr[c] * xr[c];
      const float inv = 1.0f / std::max(std::sqrt(norm2), eps);
      for (int64_t c = 0; c < cols; ++c) yr[c] = xr[c] * inv;
    }
  });
  return out;
}

// -- Fused kernels ------------------------------------------------------------------
//
// Each kernel below replays the arithmetic of the composed-op graph it
// replaces, per element and in the same accumulation order, so fused and
// reference paths produce bitwise-identical values and gradients. The
// build does not turn FMA contraction off (g++ defaults to
// -ffp-contract=fast), but these kernels are compiled for baseline x86-64
// only, which has no FMA instruction, so every float op rounds
// individually and the sequences really are reproducible. The fusion
// rules are documented in DESIGN.md §12.

Tensor LayerNormFused(const Tensor& x, const Tensor& gamma,
                      const Tensor& beta, float eps) {
  CROSSEM_CHECK_GE(x.dim(), 1);
  const int64_t cols = x.size(-1);
  const int64_t rows = x.numel() / cols;
  CROSSEM_CHECK_EQ(gamma.numel(), cols);
  CROSSEM_CHECK_EQ(beta.numel(), cols);
  const float inv_d = 1.0f / static_cast<float>(cols);

  // Row statistics saved for backward: mean and var+eps (2 floats per row,
  // pool-backed, instead of the seven intermediate tensors the composed
  // graph keeps alive on the tape).
  Tensor stats = Tensor::Zeros({2, std::max<int64_t>(rows, 1)});

  auto x_impl = x.impl();
  auto g_impl = gamma.impl();
  auto b_impl = beta.impl();
  auto backward = [x_impl, g_impl, b_impl, stats, rows, cols,
                   inv_d](const TensorImpl& out) {
    const float* g = out.grad->data();
    const float* xv = x_impl->storage->data();
    const float* gam = g_impl->storage->data();
    const float* mp = stats.data();
    const float* vp = mp + rows;
    // Scatter-adds into gamma/beta run serially in ascending element order,
    // exactly as the composed graph's periodic broadcast backwards do.
    if (NeedsGrad(b_impl)) {
      float* gbet = b_impl->MutableGrad().data();
      for (int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * cols;
        for (int64_t c = 0; c < cols; ++c) gbet[c] += gr[c];
      }
    }
    if (NeedsGrad(g_impl)) {
      float* ggam = g_impl->MutableGrad().data();
      for (int64_t r = 0; r < rows; ++r) {
        const float m = mp[r];
        const float is = std::pow(vp[r], -0.5f);
        const float* gr = g + r * cols;
        const float* xr = xv + r * cols;
        for (int64_t c = 0; c < cols; ++c) {
          const float norm = (xr[c] - m) * is;
          ggam[c] += gr[c] * norm;
        }
      }
    }
    if (NeedsGrad(x_impl)) {
      float* gx = x_impl->MutableGrad().data();
      // Rows write disjoint gx slices and all cross-element accumulators
      // (ginv, gmean) are per-row, so row parallelism keeps the composed
      // graph's per-element add sequences intact.
      ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
        for (int64_t r = r0; r < r1; ++r) {
          const float m = mp[r];
          const float vpe = vp[r];
          const float is = std::pow(vpe, -0.5f);
          const float* xr = xv + r * cols;
          const float* gr = g + r * cols;
          float* gxr = gx + r * cols;
          // d(inv_std): ascending-c accumulation, as the composed
          // Mul(centered, inv_std) backward streams it.
          float ginv = 0.0f;
          for (int64_t c = 0; c < cols; ++c) {
            const float cv = xr[c] - m;
            const float gnorm = gr[c] * gam[c];
            ginv += gnorm * cv;
          }
          // Pow(-0.5) -> AddScalar(eps) -> MulScalar(1/D) chain.
          const float dydx = -0.5f * std::pow(vpe, -1.5f);
          const float gvpe = ginv * dydx;
          const float gsumsq = gvpe * inv_d;
          float gmean = 0.0f;
          for (int64_t c = 0; c < cols; ++c) {
            const float cv = xr[c] - m;
            const float gnorm = gr[c] * gam[c];
            // Mul(centered, centered) contributes the same product twice,
            // as two separate adds (da then db in the composed backward).
            const float t = gsumsq * cv;
            float gc = gnorm * is;
            gc += t;
            gc += t;
            gxr[c] += gc;        // Sub backward: d(x)
            gmean += -gc;        // Sub backward: d(mean), ascending c
          }
          const float gsum = gmean * inv_d;  // Mean's MulScalar backward
          for (int64_t c = 0; c < cols; ++c) gxr[c] += gsum;
        }
      });
    }
  };

  Tensor out = MakeResult(x.shape(), {x, gamma, beta}, "layer_norm_fused",
                          backward);
  const float* xv = x.data();
  const float* gam = gamma.data();
  const float* bet = beta.data();
  float* y = out.data();
  float* mp = stats.data();
  float* vp = mp + rows;
  ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = xv + r * cols;
      float* yr = y + r * cols;
      // Float accumulators in ascending order, matching Sum(dim).
      float s = 0.0f;
      for (int64_t c = 0; c < cols; ++c) s += xr[c];
      const float m = s * inv_d;
      float s2 = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        const float cv = xr[c] - m;
        const float sq = cv * cv;
        s2 += sq;
      }
      const float var = s2 * inv_d;
      const float vpe = var + eps;
      const float is = std::pow(vpe, -0.5f);
      mp[r] = m;
      vp[r] = vpe;
      for (int64_t c = 0; c < cols; ++c) {
        const float norm = (xr[c] - m) * is;
        yr[c] = (norm * gam[c]) + bet[c];
      }
    }
  });
  return out;
}

Tensor ScaledMaskedSoftmax(const Tensor& x, float scale,
                           const Tensor& key_padding_mask) {
  CROSSEM_CHECK_GE(x.dim(), 1);
  const int64_t cols = x.size(-1);
  const int64_t rows = x.numel() / cols;
  int64_t rows_per_batch = rows;
  if (key_padding_mask.defined()) {
    CROSSEM_CHECK_EQ(x.dim(), 4) << "masked scores must be [B, H, Tq, Tk]";
    CROSSEM_CHECK_EQ(key_padding_mask.dim(), 2);
    CROSSEM_CHECK_EQ(key_padding_mask.size(0), x.size(0));
    CROSSEM_CHECK_EQ(key_padding_mask.size(1), cols);
    rows_per_batch = rows / x.size(0);
  }

  auto x_impl = x.impl();
  auto backward = [x_impl, rows, cols, scale](const TensorImpl& out) {
    if (!NeedsGrad(x_impl)) return;
    const float* g = out.grad->data();
    const float* y = out.storage->data();
    float* gx = x_impl->MutableGrad().data();
    ParallelFor(0, rows, RowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
      for (int64_t r = r0; r < r1; ++r) {
        const float* gr = g + r * cols;
        const float* yr = y + r * cols;
        float dot = 0.0f;
        for (int64_t c = 0; c < cols; ++c) dot += gr[c] * yr[c];
        float* gxr = gx + r * cols;
        // Softmax backward, then the MulScalar(scale) backward, per
        // element — the additive mask bias has derivative zero.
        for (int64_t c = 0; c < cols; ++c) {
          gxr[c] += (yr[c] * (gr[c] - dot)) * scale;
        }
      }
    });
  };

  // The (detached) mask rides along as an input only to keep its storage
  // alive; it is a constant and receives no gradient.
  std::vector<Tensor> inputs = {x};
  if (key_padding_mask.defined()) inputs = {x, key_padding_mask.Detach()};
  Tensor out = MakeResult(x.shape(), std::move(inputs),
                          "scaled_masked_softmax", backward);
  const float* xv = x.data();
  const float* mv =
      key_padding_mask.defined() ? key_padding_mask.data() : nullptr;
  float* y = out.data();
  ParallelFor(0, rows, ExpRowGrain(rows, cols), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float* xr = xv + r * cols;
      const float* mr = mv ? mv + (r / rows_per_batch) * cols : nullptr;
      float* yr = y + r * cols;
      // z = x*scale (+ (mask-1)*1e9), rounded per op exactly as the
      // composed MulScalar / AddScalar / MulScalar / Add chain stores it.
      for (int64_t c = 0; c < cols; ++c) {
        float z = xr[c] * scale;
        if (mr != nullptr) z = z + ((mr[c] + (-1.0f)) * 1e9f);
        yr[c] = z;
      }
      float mx = yr[0];
      for (int64_t c = 1; c < cols; ++c) mx = std::max(mx, yr[c]);
      float denom = 0.0f;
      for (int64_t c = 0; c < cols; ++c) {
        yr[c] = std::exp(yr[c] - mx);
        denom += yr[c];
      }
      const float inv = 1.0f / denom;
      for (int64_t c = 0; c < cols; ++c) yr[c] *= inv;
    }
  });
  return out;
}

namespace {

/// d(act)/dz for the activations whose backward recomputes z: kRelu, and
/// kNone with the composed Add backward's implicit factor 1. GELU's
/// derivative is saved by its forward.
inline float BiasActBwd(BiasAct act, float z) {
  return act != BiasAct::kRelu || z > 0.0f ? 1.0f : 0.0f;
}

}  // namespace

Tensor BiasActivation(const Tensor& x, const Tensor& bias, BiasAct act) {
  CROSSEM_CHECK_GE(x.dim(), 1);
  const int64_t cols = x.size(-1);
  CROSSEM_CHECK_EQ(bias.numel(), cols);
  const int64_t n = x.numel();
  const int64_t rows = cols > 0 ? n / cols : 0;

  // GELU's derivative costs a tanh per element, so a recording forward
  // saves it (pool-backed, owned by the backward closure) rather than
  // have the backward recompute it.
  Tensor dact;
  if (act == BiasAct::kGelu && RecordsGrad({x, bias})) {
    dact = Tensor::Zeros(x.shape());
  }

  auto x_impl = x.impl();
  auto b_impl = bias.impl();
  auto backward = [x_impl, b_impl, dact, n, rows, cols,
                   act](const TensorImpl& out) {
    const float* g = out.grad->data();
    const float* xv = x_impl->storage->data();
    const float* bv = b_impl->storage->data();
    // dact exists exactly when the op records this backward.
    const float* d = dact.defined() ? dact.data() : nullptr;
    CROSSEM_CHECK(act != BiasAct::kGelu || d != nullptr);
    if (NeedsGrad(x_impl)) {
      float* gx = x_impl->MutableGrad().data();
      ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
        if (d != nullptr) {
          for (int64_t i = lo; i < hi; ++i) gx[i] += g[i] * d[i];
          return;
        }
        int64_t c = lo % cols;
        for (int64_t i = lo; i < hi; ++i) {
          const float z = xv[i] + bv[c];  // recomputed pre-activation
          gx[i] += g[i] * BiasActBwd(act, z);
          if (++c == cols) c = 0;
        }
      });
    }
    if (NeedsGrad(b_impl)) {
      // Serial and row by row: each bias slot accumulates in ascending
      // row order, as the composed Add's modulo-broadcast backward does.
      float* gb = b_impl->MutableGrad().data();
      for (int64_t r = 0; r < rows; ++r) {
        const float* gr = g + r * cols;
        if (d != nullptr) {
          const float* dr = d + r * cols;
          for (int64_t c = 0; c < cols; ++c) gb[c] += gr[c] * dr[c];
        } else {
          const float* xr = xv + r * cols;
          for (int64_t c = 0; c < cols; ++c) {
            gb[c] += gr[c] * BiasActBwd(act, xr[c] + bv[c]);
          }
        }
      }
    }
  };

  Tensor out = MakeResult(x.shape(), {x, bias}, "bias_act", backward);
  const float* xv = x.data();
  const float* bv = bias.data();
  float* y = out.data();
  float* d = dact.defined() ? dact.data() : nullptr;
  ParallelFor(0, n, ElemGrain(n), [&](int64_t lo, int64_t hi) {
    // One row segment of [lo, hi) at a time: the bias add vectorizes,
    // then the activation runs over the segment in place.
    for (int64_t i = lo; i < hi;) {
      const int64_t c0 = i % cols;
      const int64_t len = std::min(hi - i, cols - c0);
      const float* xr = xv + i;
      const float* br = bv + c0;
      float* yr = y + i;
      for (int64_t c = 0; c < len; ++c) yr[c] = xr[c] + br[c];
      if (act == BiasAct::kRelu) {
        for (int64_t c = 0; c < len; ++c) {
          yr[c] = yr[c] > 0.0f ? yr[c] : 0.0f;
        }
      } else if (act == BiasAct::kGelu && d != nullptr) {
        vmath::GeluWithDerivative(yr, yr, d + i, len);
      } else if (act == BiasAct::kGelu) {
        vmath::Gelu(yr, yr, len);
      }
      i += len;
    }
  });
  return out;
}

// -- Structural ---------------------------------------------------------------------

Tensor Concat(const std::vector<Tensor>& tensors, int64_t dim) {
  CROSSEM_CHECK(!tensors.empty());
  const int64_t rank = tensors[0].dim();
  if (dim < 0) dim += rank;
  CROSSEM_CHECK_GE(dim, 0);
  CROSSEM_CHECK_LT(dim, rank);

  Shape out_shape = tensors[0].shape();
  int64_t cat_extent = 0;
  for (const Tensor& t : tensors) {
    CROSSEM_CHECK_EQ(t.dim(), rank);
    for (int64_t d = 0; d < rank; ++d) {
      if (d != dim) {
        CROSSEM_CHECK_EQ(t.size(d), tensors[0].size(d));
      }
    }
    cat_extent += t.size(dim);
  }
  out_shape[static_cast<size_t>(dim)] = cat_extent;

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= out_shape[static_cast<size_t>(d)];
  for (int64_t d = dim + 1; d < rank; ++d) {
    inner *= out_shape[static_cast<size_t>(d)];
  }

  std::vector<std::shared_ptr<TensorImpl>> impls;
  std::vector<int64_t> extents;
  for (const Tensor& t : tensors) {
    impls.push_back(t.impl());
    extents.push_back(t.size(dim));
  }

  auto backward = [impls, extents, outer, inner,
                   cat_extent](const TensorImpl& out) {
    const float* g = out.grad->data();
    int64_t col_offset = 0;
    for (size_t t = 0; t < impls.size(); ++t) {
      const int64_t ext = extents[t];
      if (NeedsGrad(impls[t])) {
        float* ga = impls[t]->MutableGrad().data();
        for (int64_t o = 0; o < outer; ++o) {
          const float* src = g + (o * cat_extent + col_offset) * inner;
          float* dst = ga + o * ext * inner;
          for (int64_t i = 0; i < ext * inner; ++i) dst[i] += src[i];
        }
      }
      col_offset += ext;
    }
  };

  Tensor out = MakeResult(out_shape, tensors, "concat", backward);
  float* q = out.data();
  int64_t col_offset = 0;
  for (size_t t = 0; t < tensors.size(); ++t) {
    const float* src = tensors[t].data();
    const int64_t ext = extents[t];
    for (int64_t o = 0; o < outer; ++o) {
      std::copy_n(src + o * ext * inner, ext * inner,
                  q + (o * cat_extent + col_offset) * inner);
    }
    col_offset += ext;
  }
  return out;
}

Tensor Stack(const std::vector<Tensor>& tensors) {
  CROSSEM_CHECK(!tensors.empty());
  std::vector<Tensor> reshaped;
  reshaped.reserve(tensors.size());
  for (const Tensor& t : tensors) {
    Shape s = t.shape();
    s.insert(s.begin(), 1);
    reshaped.push_back(Reshape(t, s));
  }
  return Concat(reshaped, 0);
}

Tensor Slice(const Tensor& a, int64_t dim, int64_t start, int64_t end) {
  const int64_t rank = a.dim();
  if (dim < 0) dim += rank;
  CROSSEM_CHECK_GE(dim, 0);
  CROSSEM_CHECK_LT(dim, rank);
  const int64_t extent = a.size(dim);
  CROSSEM_CHECK_GE(start, 0);
  CROSSEM_CHECK_LE(end, extent);
  CROSSEM_CHECK_LE(start, end);

  Shape out_shape = a.shape();
  out_shape[static_cast<size_t>(dim)] = end - start;

  int64_t outer = 1, inner = 1;
  for (int64_t d = 0; d < dim; ++d) outer *= a.size(d);
  for (int64_t d = dim + 1; d < rank; ++d) inner *= a.size(d);
  const int64_t width = end - start;

  auto a_impl = a.impl();
  auto backward = [a_impl, outer, inner, extent, start,
                   width](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    for (int64_t o = 0; o < outer; ++o) {
      const float* src = g + o * width * inner;
      float* dst = ga + (o * extent + start) * inner;
      for (int64_t i = 0; i < width * inner; ++i) dst[i] += src[i];
    }
  };
  Tensor out = MakeResult(std::move(out_shape), {a}, "slice", backward);
  const float* p = a.data();
  float* q = out.data();
  for (int64_t o = 0; o < outer; ++o) {
    std::copy_n(p + (o * extent + start) * inner, width * inner,
                q + o * width * inner);
  }
  return out;
}

Tensor IndexSelect(const Tensor& a, const std::vector<int64_t>& indices) {
  CROSSEM_CHECK_GE(a.dim(), 1);
  const int64_t rows = a.size(0);
  const int64_t row_width = a.numel() / std::max<int64_t>(rows, 1);
  for (int64_t idx : indices) {
    CROSSEM_CHECK_GE(idx, 0);
    CROSSEM_CHECK_LT(idx, rows);
  }
  Shape out_shape = a.shape();
  out_shape[0] = static_cast<int64_t>(indices.size());

  auto a_impl = a.impl();
  auto backward = [a_impl, indices, row_width](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* src = g + static_cast<int64_t>(i) * row_width;
      float* dst = ga + indices[i] * row_width;
      for (int64_t c = 0; c < row_width; ++c) dst[c] += src[c];
    }
  };
  Tensor out = MakeResult(std::move(out_shape), {a}, "index_select", backward);
  const float* p = a.data();
  float* q = out.data();
  for (size_t i = 0; i < indices.size(); ++i) {
    std::copy_n(p + indices[i] * row_width, row_width,
                q + static_cast<int64_t>(i) * row_width);
  }
  return out;
}

// -- Losses --------------------------------------------------------------------------

Tensor NllLoss(const Tensor& log_probs, const std::vector<int64_t>& targets) {
  CROSSEM_CHECK_EQ(log_probs.dim(), 2);
  const int64_t n = log_probs.size(0);
  const int64_t c = log_probs.size(1);
  CROSSEM_CHECK_EQ(n, static_cast<int64_t>(targets.size()));
  for (int64_t t : targets) {
    CROSSEM_CHECK_GE(t, 0);
    CROSSEM_CHECK_LT(t, c);
  }

  auto lp_impl = log_probs.impl();
  auto backward = [lp_impl, targets, n, c](const TensorImpl& out) {
    if (!NeedsGrad(lp_impl)) return;
    const float g = out.grad->data()[0];
    float* ga = lp_impl->MutableGrad().data();
    const float scale = g / static_cast<float>(n);
    for (int64_t i = 0; i < n; ++i) {
      ga[i * c + targets[static_cast<size_t>(i)]] -= scale;
    }
  };
  Tensor out = MakeResult({}, {log_probs}, "nll_loss", backward);
  const float* p = log_probs.data();
  double acc = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    acc -= p[i * c + targets[static_cast<size_t>(i)]];
  }
  out.data()[0] = static_cast<float>(acc / static_cast<double>(n));
  return out;
}

Tensor Dropout(const Tensor& a, float p, bool training, Rng* rng) {
  if (!training || p <= 0.0f) return a;
  CROSSEM_CHECK(rng != nullptr);
  CROSSEM_CHECK_LT(p, 1.0f);
  const float keep = 1.0f - p;
  auto mask = std::make_shared<std::vector<float>>(
      static_cast<size_t>(a.numel()));
  for (auto& m : *mask) {
    m = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }

  auto a_impl = a.impl();
  auto backward = [a_impl, mask](const TensorImpl& out) {
    if (!NeedsGrad(a_impl)) return;
    const float* g = out.grad->data();
    float* ga = a_impl->MutableGrad().data();
    for (int64_t i = 0; i < out.numel(); ++i) ga[i] += g[i] * (*mask)[i];
  };
  Tensor out = MakeResult(a.shape(), {a}, "dropout", backward);
  const float* x = a.data();
  float* y = out.data();
  for (int64_t i = 0; i < a.numel(); ++i) y[i] = x[i] * (*mask)[i];
  return out;
}

}  // namespace ops
}  // namespace crossem
