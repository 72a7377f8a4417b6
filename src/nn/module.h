// Base class for neural-network modules (PyTorch-style parameter registry).
#ifndef CROSSEM_NN_MODULE_H_
#define CROSSEM_NN_MODULE_H_

#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace crossem {
namespace nn {

/// A composable unit owning parameters and child modules.
///
/// Parameters registered via RegisterParameter are returned (recursively)
/// by Parameters(), which is what optimizers consume. Freezing a module
/// (e.g. the CLIP image encoder during prompt tuning) is done with
/// SetRequiresGrad(false).
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<Tensor> Parameters() const;

  /// Parameters with dotted path names ("encoder.layer0.wq.weight").
  std::vector<std::pair<std::string, Tensor>> NamedParameters() const;

  /// Total parameter element count.
  int64_t NumParameters() const;

  /// Toggles requires_grad on every parameter (freeze / unfreeze).
  void SetRequiresGrad(bool value);

  /// Zero-fills accumulated gradients on every parameter.
  void ZeroGrad();

  /// Deep-copies all parameter values (for checkpoint/restore across
  /// experiment arms sharing one pre-trained model).
  std::vector<Tensor> SnapshotParameters() const;

  /// Writes back values captured by SnapshotParameters. The module's
  /// architecture must be unchanged.
  void RestoreParameters(const std::vector<Tensor>& snapshot);

  /// Training mode toggles stochastic layers (dropout). Propagates to
  /// children.
  void SetTraining(bool training);
  bool training() const { return training_; }

 protected:
  Module() = default;

  /// Registers and returns a parameter tensor (requires_grad is forced on).
  Tensor RegisterParameter(std::string name, Tensor tensor);

  /// Registers a child (non-owning; children are members of the subclass).
  void RegisterModule(std::string name, Module* child);

 private:
  std::vector<std::pair<std::string, Tensor>> params_;
  std::vector<std::pair<std::string, Module*>> children_;
  bool training_ = true;
};

}  // namespace nn
}  // namespace crossem

#endif  // CROSSEM_NN_MODULE_H_
