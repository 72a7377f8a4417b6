#include "nn/module.h"

#include "util/logging.h"

namespace crossem {
namespace nn {

std::vector<Tensor> Module::Parameters() const {
  std::vector<Tensor> out;
  for (const auto& [name, p] : NamedParameters()) out.push_back(p);
  return out;
}

std::vector<std::pair<std::string, Tensor>> Module::NamedParameters() const {
  std::vector<std::pair<std::string, Tensor>> out;
  for (const auto& [name, p] : params_) out.emplace_back(name, p);
  for (const auto& [name, child] : children_) {
    for (const auto& [cname, p] : child->NamedParameters()) {
      out.emplace_back(name + "." + cname, p);
    }
  }
  return out;
}

int64_t Module::NumParameters() const {
  int64_t n = 0;
  for (const Tensor& p : Parameters()) n += p.numel();
  return n;
}

void Module::SetRequiresGrad(bool value) {
  for (Tensor p : Parameters()) p.set_requires_grad(value);
}

void Module::ZeroGrad() {
  for (Tensor p : Parameters()) p.ZeroGrad();
}

std::vector<Tensor> Module::SnapshotParameters() const {
  std::vector<Tensor> out;
  for (const Tensor& p : Parameters()) out.push_back(p.Clone());
  return out;
}

void Module::RestoreParameters(const std::vector<Tensor>& snapshot) {
  std::vector<Tensor> params = Parameters();
  CROSSEM_CHECK_EQ(params.size(), snapshot.size());
  for (size_t i = 0; i < params.size(); ++i) {
    CROSSEM_CHECK_EQ(params[i].numel(), snapshot[i].numel());
    std::copy_n(snapshot[i].data(), snapshot[i].numel(), params[i].data());
  }
}

void Module::SetTraining(bool training) {
  training_ = training;
  for (auto& [name, child] : children_) child->SetTraining(training);
}

Tensor Module::RegisterParameter(std::string name, Tensor tensor) {
  CROSSEM_CHECK(tensor.defined());
  tensor.set_requires_grad(true);
  params_.emplace_back(std::move(name), tensor);
  return params_.back().second;
}

void Module::RegisterModule(std::string name, Module* child) {
  CROSSEM_CHECK(child != nullptr);
  children_.emplace_back(std::move(name), child);
}

}  // namespace nn
}  // namespace crossem
