#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "tensor/pool.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace crossem {

int64_t ShapeNumel(const Shape& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    CROSSEM_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const Shape& shape) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) out << ", ";
    out << shape[i];
  }
  out << "]";
  return out.str();
}

namespace internal {

Storage::Storage(int64_t numel)
    : data_(TensorPool::Instance().Acquire(numel)),
      tracked_bytes_(numel * static_cast<int64_t>(sizeof(float))) {
  MemoryTracker::Instance().OnAlloc(tracked_bytes_);
}

Storage::~Storage() {
  // tracked_bytes_ (not data_.size()) keeps OnAlloc/OnFree symmetric even
  // after TakeData() emptied the buffer.
  MemoryTracker::Instance().OnFree(tracked_bytes_);
  TensorPool::Instance().Release(std::move(data_));
}

std::vector<float> Storage::TakeData() { return std::move(data_); }

Storage& TensorImpl::MutableGrad() {
  if (!grad) grad = std::make_shared<Storage>(numel());
  return *grad;
}

}  // namespace internal

namespace {
// Thread-local so worker threads in parallel regions manage their own
// no-grad scopes (see util/parallel.h); workers default to grad-on and
// must open a NoGradGuard themselves when running inference chunks.
thread_local bool t_grad_mode = true;
}  // namespace

bool GradModeEnabled() { return t_grad_mode; }

NoGradGuard::NoGradGuard() : prev_(t_grad_mode) { t_grad_mode = false; }
NoGradGuard::~NoGradGuard() { t_grad_mode = prev_; }

// -- Factories ----------------------------------------------------------------

namespace {
Tensor MakeTensor(Shape shape, bool requires_grad) {
  auto impl = std::make_shared<internal::TensorImpl>();
  impl->shape = std::move(shape);
  impl->storage = std::make_shared<internal::Storage>(impl->numel());
  impl->requires_grad = requires_grad;
  return Tensor::FromImpl(std::move(impl));
}
}  // namespace

Tensor Tensor::Zeros(Shape shape, bool requires_grad) {
  return MakeTensor(std::move(shape), requires_grad);
}

Tensor Tensor::Full(Shape shape, float value, bool requires_grad) {
  Tensor t = MakeTensor(std::move(shape), requires_grad);
  std::fill_n(t.data(), t.numel(), value);
  return t;
}

Tensor Tensor::Ones(Shape shape, bool requires_grad) {
  return Full(std::move(shape), 1.0f, requires_grad);
}

Tensor Tensor::Randn(Shape shape, Rng* rng, float stddev, bool requires_grad) {
  CROSSEM_CHECK(rng != nullptr);
  Tensor t = MakeTensor(std::move(shape), requires_grad);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng* rng, float lo, float hi,
                    bool requires_grad) {
  CROSSEM_CHECK(rng != nullptr);
  Tensor t = MakeTensor(std::move(shape), requires_grad);
  float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    p[i] = static_cast<float>(rng->Uniform(lo, hi));
  }
  return t;
}

Tensor Tensor::FromVector(Shape shape, const std::vector<float>& values,
                          bool requires_grad) {
  CROSSEM_CHECK_EQ(ShapeNumel(shape), static_cast<int64_t>(values.size()));
  Tensor t = MakeTensor(std::move(shape), requires_grad);
  std::copy(values.begin(), values.end(), t.data());
  return t;
}

Tensor Tensor::Scalar(float value, bool requires_grad) {
  return FromVector({}, {value}, requires_grad);
}

// -- Introspection --------------------------------------------------------------

const Shape& Tensor::shape() const {
  CROSSEM_CHECK(defined());
  return impl_->shape;
}

int64_t Tensor::dim() const { return static_cast<int64_t>(shape().size()); }

int64_t Tensor::size(int64_t d) const {
  CROSSEM_CHECK(defined());
  if (d < 0) d += dim();
  CROSSEM_CHECK_GE(d, 0);
  CROSSEM_CHECK_LT(d, dim());
  return impl_->shape[static_cast<size_t>(d)];
}

int64_t Tensor::numel() const {
  CROSSEM_CHECK(defined());
  return impl_->numel();
}

float* Tensor::data() {
  CROSSEM_CHECK(defined());
  return impl_->storage->data();
}

const float* Tensor::data() const {
  CROSSEM_CHECK(defined());
  return impl_->storage->data();
}

std::vector<float> Tensor::ToVector() const& {
  const float* p = data();
  return std::vector<float>(p, p + numel());
}

std::vector<float> Tensor::ToVector() && {
  CROSSEM_CHECK(defined());
  if (impl_.use_count() == 1 && impl_->storage &&
      impl_->storage.use_count() == 1) {
    // Sole owner of both handle and buffer: steal instead of copying. The
    // tensor is left undefined so any later use CHECK-fails loudly.
    std::vector<float> out = impl_->storage->TakeData();
    impl_.reset();
    return out;
  }
  return ToVector();  // aliased storage: lvalue overload copies
}

float Tensor::item() const {
  CROSSEM_CHECK_EQ(numel(), 1);
  return data()[0];
}

float Tensor::at(int64_t flat_index) const {
  CROSSEM_CHECK_GE(flat_index, 0);
  CROSSEM_CHECK_LT(flat_index, numel());
  return data()[flat_index];
}

// -- Autograd -------------------------------------------------------------------

bool Tensor::requires_grad() const {
  return defined() && impl_->requires_grad;
}

Tensor& Tensor::set_requires_grad(bool value) {
  CROSSEM_CHECK(defined());
  CROSSEM_CHECK(impl_->grad_fn == nullptr)
      << "set_requires_grad is only valid on leaf tensors";
  impl_->requires_grad = value;
  return *this;
}

Tensor Tensor::grad() const {
  CROSSEM_CHECK(defined());
  if (!impl_->grad) return Tensor();
  auto g = std::make_shared<internal::TensorImpl>();
  g->shape = impl_->shape;
  g->storage = impl_->grad;
  return FromImpl(std::move(g));
}

void Tensor::ZeroGrad() {
  CROSSEM_CHECK(defined());
  if (impl_->grad) {
    std::fill_n(impl_->grad->data(), impl_->grad->numel(), 0.0f);
  }
}

void Tensor::Backward() {
  CROSSEM_CHECK(defined());
  CROSSEM_CHECK_EQ(numel(), 1) << "Backward() requires a scalar output";

  // Topological order over AutogradNodes reachable from this output.
  std::vector<internal::TensorImpl*> order;
  std::unordered_set<internal::TensorImpl*> visited;
  // Iterative DFS to avoid stack overflow on deep graphs.
  struct Frame {
    internal::TensorImpl* node;
    size_t next_child;
  };
  std::vector<Frame> stack;
  if (impl_->grad_fn) {
    stack.push_back({impl_.get(), 0});
    visited.insert(impl_.get());
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    auto& fn = f.node->grad_fn;
    if (!fn || f.next_child >= fn->inputs.size()) {
      order.push_back(f.node);
      stack.pop_back();
      continue;
    }
    internal::TensorImpl* child = fn->inputs[f.next_child++].get();
    if (child->grad_fn && !visited.count(child)) {
      visited.insert(child);
      stack.push_back({child, 0});
    }
  }

  // Seed d(out)/d(out) = 1.
  impl_->MutableGrad().data()[0] += 1.0f;

  // `order` is post-order (children before parents), so iterate reversed.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::TensorImpl* node = *it;
    if (node->grad_fn && node->grad_fn->backward) {
      node->grad_fn->backward(*node);
    }
  }
}

Tensor Tensor::Detach() const {
  CROSSEM_CHECK(defined());
  auto d = std::make_shared<internal::TensorImpl>();
  d->shape = impl_->shape;
  d->storage = impl_->storage;
  d->requires_grad = false;
  return FromImpl(std::move(d));
}

Tensor Tensor::Clone() const {
  CROSSEM_CHECK(defined());
  Tensor out = MakeTensor(impl_->shape, false);
  std::copy_n(data(), numel(), out.data());
  return out;
}

Tensor Tensor::FromImpl(std::shared_ptr<internal::TensorImpl> impl) {
  Tensor t;
  t.impl_ = std::move(impl);
  return t;
}

}  // namespace crossem
