#include "nn/optimizer.h"

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace crossem {
namespace nn {

namespace {
/// A parameter participates in the update if it is trainable and has
/// received a gradient this step.
bool Updatable(const Tensor& p) {
  return p.requires_grad() && p.grad().defined();
}

/// Shared-registry optimizer instruments, resolved once; the per-step
/// cost is one atomic increment + one atomic store.
struct StepMetrics {
  obs::Counter* steps =
      obs::MetricsRegistry::Default().GetCounter("crossem_optimizer_steps_total");
  obs::Counter* updated_params = obs::MetricsRegistry::Default().GetCounter(
      "crossem_optimizer_updated_parameters_total");
  obs::Gauge* lr = obs::MetricsRegistry::Default().GetGauge(
      "crossem_optimizer_learning_rate");
};

StepMetrics& Metrics() {
  static StepMetrics metrics;
  return metrics;
}
}  // namespace

Optimizer::Optimizer(std::vector<Tensor> params, float lr)
    : params_(std::move(params)), lr_(lr) {}

void Optimizer::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

Sgd::Sgd(std::vector<Tensor> params, float lr, float momentum)
    : Optimizer(std::move(params), lr), momentum_(momentum) {
  velocity_.resize(params_.size());
}

void Sgd::Step() {
  CROSSEM_TRACE_SPAN("optimizer_step");
  StepMetrics& metrics = Metrics();
  metrics.steps->Increment();
  metrics.lr->Set(static_cast<double>(lr_));
  int64_t updated = 0;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!Updatable(p)) continue;
    ++updated;
    const float* g = p.grad().data();
    float* w = p.data();
    const int64_t n = p.numel();
    if (momentum_ > 0.0f) {
      auto& vel = velocity_[i];
      if (vel.empty()) vel.assign(static_cast<size_t>(n), 0.0f);
      for (int64_t j = 0; j < n; ++j) {
        vel[static_cast<size_t>(j)] =
            momentum_ * vel[static_cast<size_t>(j)] + g[j];
        w[j] -= lr_ * vel[static_cast<size_t>(j)];
      }
    } else {
      for (int64_t j = 0; j < n; ++j) w[j] -= lr_ * g[j];
    }
  }
  metrics.updated_params->Add(updated);
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : Optimizer(std::move(params), lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.resize(params_.size());
  v_.resize(params_.size());
}

Adam::State Adam::ExportState() const {
  State state;
  state.step = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

Status Adam::ImportState(const State& state) {
  if (state.step < 0) {
    return Status::InvalidArgument("optimizer step count is negative");
  }
  if (state.m.size() != params_.size() || state.v.size() != params_.size()) {
    return Status::InvalidArgument(
        "optimizer state holds " + std::to_string(state.m.size()) +
        " moment slots, expected " + std::to_string(params_.size()));
  }
  for (size_t i = 0; i < params_.size(); ++i) {
    const size_t numel = static_cast<size_t>(params_[i].numel());
    if ((!state.m[i].empty() && state.m[i].size() != numel) ||
        (!state.v[i].empty() && state.v[i].size() != numel)) {
      return Status::InvalidArgument(
          "optimizer moment size mismatch at slot " + std::to_string(i));
    }
  }
  t_ = state.step;
  m_ = state.m;
  v_ = state.v;
  return Status::OK();
}

void Adam::Step() {
  CROSSEM_TRACE_SPAN("optimizer_step");
  StepMetrics& metrics = Metrics();
  metrics.steps->Increment();
  metrics.lr->Set(static_cast<double>(lr_));
  ++t_;
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  int64_t updated = 0;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!Updatable(p)) continue;
    ++updated;
    const float* g = p.grad().data();
    float* w = p.data();
    const int64_t n = p.numel();
    auto& m = m_[i];
    auto& v = v_[i];
    if (m.empty()) {
      m.assign(static_cast<size_t>(n), 0.0f);
      v.assign(static_cast<size_t>(n), 0.0f);
    }
    for (int64_t j = 0; j < n; ++j) {
      float grad = g[j];
      if (!decoupled_decay_ && weight_decay_ > 0.0f) {
        grad += weight_decay_ * w[j];
      }
      const size_t js = static_cast<size_t>(j);
      m[js] = beta1_ * m[js] + (1.0f - beta1_) * grad;
      v[js] = beta2_ * v[js] + (1.0f - beta2_) * grad * grad;
      const float mhat = m[js] / bc1;
      const float vhat = v[js] / bc2;
      float update = lr_ * mhat / (std::sqrt(vhat) + eps_);
      if (decoupled_decay_ && weight_decay_ > 0.0f) {
        update += lr_ * weight_decay_ * w[j];
      }
      w[j] -= update;
    }
  }
  metrics.updated_params->Add(updated);
}

AdamW::AdamW(std::vector<Tensor> params, float lr, float beta1, float beta2,
             float eps, float weight_decay)
    : Adam(std::move(params), lr, beta1, beta2, eps, weight_decay) {
  decoupled_decay_ = true;
}

float ClipGradNorm(const std::vector<Tensor>& params, float max_norm) {
  CROSSEM_CHECK_GT(max_norm, 0.0f);
  double total = 0.0;
  for (const Tensor& p : params) {
    if (!Updatable(p)) continue;
    const float* g = p.grad().data();
    const int64_t n = p.numel();
    for (int64_t j = 0; j < n; ++j) {
      total += static_cast<double>(g[j]) * g[j];
    }
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-12f);
    for (const Tensor& p : params) {
      if (!Updatable(p)) continue;
      float* g = p.grad().data();
      const int64_t n = p.numel();
      for (int64_t j = 0; j < n; ++j) g[j] *= scale;
    }
  }
  return norm;
}

}  // namespace nn
}  // namespace crossem
