// Extension: persistent weight faults.
//
// The paper's fault model is transient computational faults in activation
// values (ECC protects memory). Related range-restriction work also studies
// persistent faults in weights; this extension injects a bit flip into one
// weight-matrix element for the duration of an inference and measures
// whether FT2's activation-level range restriction still catches the
// corrupted products (it should: a large faulty weight produces large
// faulty outputs at every token, which the clamp keeps suppressing).
#pragma once

#include "fi/campaign.hpp"

namespace ft2 {

struct WeightFaultPlan {
  LayerSite site;          ///< which linear layer's weight matrix
  std::size_t row = 0;     ///< output index
  std::size_t col = 0;     ///< input index
  BitFlips flips;
  ValueType vtype = ValueType::kF16;
};

/// Weight-element site space over all linear layers of the model.
class WeightFaultSpace {
 public:
  explicit WeightFaultSpace(const ModelConfig& config);

  std::size_t total_elements() const { return total_; }

  WeightFaultPlan sample(FaultModel model, ValueType vtype,
                         PhiloxStream& rng) const;

 private:
  struct Segment {
    LayerKind kind;
    std::size_t rows, cols, offset;
  };
  ModelConfig config_;
  std::vector<Segment> segments_;  // per block-kind
  std::size_t per_block_ = 0;
  std::size_t total_ = 0;
};

/// RAII: applies the bit flip to the live weight on construction and
/// restores the original value on destruction. The flip lands in the
/// model's packed tiles (PackedLinear::at), the one copy of the weights,
/// so every forward path sees it: sessions, campaigns and every
/// ServeEngine over the model, including engines built before the fault.
class ScopedWeightFault {
 public:
  ScopedWeightFault(TransformerLM& model, const WeightFaultPlan& plan);
  ~ScopedWeightFault();

  ScopedWeightFault(const ScopedWeightFault&) = delete;
  ScopedWeightFault& operator=(const ScopedWeightFault&) = delete;

  float original_value() const { return original_; }
  float faulty_value() const { return faulty_; }

 private:
  float* target_;
  float original_;
  float faulty_;
};

/// Statistical campaign over persistent weight faults. Mutates and restores
/// the model's weights per trial, hence the non-const model and sequential
/// execution.
CampaignResult run_weight_fault_campaign(TransformerLM& model,
                                         const std::vector<EvalInput>& inputs,
                                         const SchemeSpec& scheme,
                                         const BoundStore& offline_bounds,
                                         const CampaignConfig& config);

/// Registry path: each trial instantiates `scheme` through its registered
/// factory, so any DetectionScheme runs the weight-fault campaign.
CampaignResult run_weight_fault_campaign(TransformerLM& model,
                                         const std::vector<EvalInput>& inputs,
                                         const SchemeRef& scheme,
                                         const BoundStore& offline_bounds,
                                         const CampaignConfig& config);

}  // namespace ft2
