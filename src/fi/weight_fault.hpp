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

#include <cstdint>

#include "fi/campaign.hpp"
#include "numeric/f16.hpp"

namespace ft2 {

struct WeightFaultPlan {
  LayerSite site;          ///< which linear layer's weight matrix
  std::size_t row = 0;     ///< output index
  std::size_t col = 0;     ///< input index
  BitFlips flips;
  /// Weights are stored as binary16 (nn/model.hpp), so kF16 is the only
  /// encoding a weight fault can flip; applying a kF32 plan throws.
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

/// RAII: flips the planned bits of the live weight's stored binary16
/// encoding on construction (flip_f16_bits: no rounding, no conversion)
/// and restores the original bits on destruction. The flip lands in the
/// model's packed tiles (PackedLinear::at), the one copy of the weights,
/// so every forward path sees it: sessions, campaigns and every
/// ServeEngine over the model, including engines built before the fault.
/// Throws ft2::Error for a plan whose vtype is kF32: an FP32 weight flip
/// has no FP32 encoding to flip.
class ScopedWeightFault {
 public:
  ScopedWeightFault(TransformerLM& model, const WeightFaultPlan& plan);
  ~ScopedWeightFault();

  ScopedWeightFault(const ScopedWeightFault&) = delete;
  ScopedWeightFault& operator=(const ScopedWeightFault&) = delete;

  std::uint16_t original_bits() const { return original_; }
  std::uint16_t faulty_bits() const { return faulty_; }
  /// The weight before and after the flip, widened as the kernels see it.
  float original_value() const { return f16::from_bits(original_).to_float(); }
  float faulty_value() const { return f16::from_bits(faulty_).to_float(); }

 private:
  std::uint16_t* target_;
  std::uint16_t original_;
  std::uint16_t faulty_;
};

/// Statistical campaign over persistent weight faults. Mutates and restores
/// the model's weights per trial, hence the non-const model and sequential
/// execution. Throws ft2::Error, before any trial, when config.vtype is
/// kF32.
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
