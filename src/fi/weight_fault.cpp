#include "fi/weight_fault.hpp"

namespace ft2 {

WeightFaultSpace::WeightFaultSpace(const ModelConfig& config)
    : config_(config) {
  for (LayerKind kind : config.block_layers()) {
    if (!is_linear_layer(kind)) continue;
    Segment seg;
    seg.kind = kind;
    seg.rows = config.layer_output_dim(kind);
    // Input width: d_ff for FC2/DOWN (they consume the MLP hidden), d_model
    // otherwise (attention projections and MLP inputs).
    seg.cols = (kind == LayerKind::kFc2 || kind == LayerKind::kDownProj)
                   ? config.d_ff
                   : config.d_model;
    seg.offset = per_block_;
    per_block_ += seg.rows * seg.cols;
    segments_.push_back(seg);
  }
  total_ = per_block_ * config.n_blocks;
  FT2_CHECK(total_ > 0);
}

WeightFaultPlan WeightFaultSpace::sample(FaultModel model, ValueType vtype,
                                         PhiloxStream& rng) const {
  const std::size_t index = rng.uniform(total_);
  const std::size_t block = index / per_block_;
  std::size_t within = index % per_block_;

  std::size_t s = segments_.size() - 1;
  while (s > 0 && segments_[s].offset > within) --s;
  const Segment& seg = segments_[s];
  within -= seg.offset;

  WeightFaultPlan plan;
  plan.site = {static_cast<int>(block), seg.kind};
  plan.row = within / seg.cols;
  plan.col = within % seg.cols;
  plan.flips = sample_bit_flips(model, vtype, rng);
  plan.vtype = vtype;
  return plan;
}

namespace {

void check_weight_vtype(ValueType vtype) {
  FT2_CHECK_MSG(vtype == ValueType::kF16,
                "a weight fault flips a binary16 weight; the model stores no "
                "fp32 weight to flip");
}

}  // namespace

ScopedWeightFault::ScopedWeightFault(TransformerLM& model,
                                     const WeightFaultPlan& plan) {
  check_weight_vtype(plan.vtype);
  PackedLinear& pl = model.linear(plan.site);
  FT2_CHECK(plan.row < pl.n && plan.col < pl.k);
  target_ = &pl.at(plan.row, plan.col);
  original_ = *target_;
  faulty_ = flip_f16_bits(original_, plan.flips);
  *target_ = faulty_;
}

ScopedWeightFault::~ScopedWeightFault() { *target_ = original_; }

namespace {

CampaignResult run_weight_fault_campaign_impl(
    TransformerLM& model, const std::vector<EvalInput>& inputs,
    const std::function<std::unique_ptr<DetectionScheme>()>& make_scheme,
    const CampaignConfig& config) {
  FT2_CHECK(!inputs.empty());
  check_weight_vtype(config.vtype);
  const WeightFaultSpace space(model.config());
  const GenerateOptions opts = fixed_length_options(
      config.gen_tokens, config.vtype, config.chunked_accum);
  // One session for every trial: the fault lives in the model's tiles,
  // which the session reads, and each generate starts from an empty cache.
  InferenceSession session(model);

  CampaignResult result;
  for (std::size_t input_idx = 0; input_idx < inputs.size(); ++input_idx) {
    const EvalInput& input = inputs[input_idx];
    for (std::size_t t = 0; t < config.trials_per_input; ++t) {
      const std::size_t trial = input_idx * config.trials_per_input + t;
      PhiloxStream rng(config.seed, trial);
      const WeightFaultPlan plan =
          space.sample(config.fault_model, config.vtype, rng);

      ScopedWeightFault fault(model, plan);
      ProtectionHook protection(model.config(), make_scheme(), ObsSinks{});
      const HookRegistration reg = session.hooks().add(protection);
      const auto out = session.generate(input.prompt, opts);

      result.add(classify_outcome(out.tokens, input));
    }
  }
  return result;
}

}  // namespace

CampaignResult run_weight_fault_campaign(TransformerLM& model,
                                         const std::vector<EvalInput>& inputs,
                                         const SchemeSpec& scheme,
                                         const BoundStore& offline_bounds,
                                         const CampaignConfig& config) {
  return run_weight_fault_campaign_impl(
      model, inputs,
      [&] {
        return std::make_unique<RangeRestrictScheme>(model.config(), scheme,
                                                     offline_bounds);
      },
      config);
}

CampaignResult run_weight_fault_campaign(TransformerLM& model,
                                         const std::vector<EvalInput>& inputs,
                                         const SchemeRef& scheme,
                                         const BoundStore& offline_bounds,
                                         const CampaignConfig& config) {
  return run_weight_fault_campaign_impl(
      model, inputs,
      [&] { return scheme.instantiate(model.config(), offline_bounds); },
      config);
}

}  // namespace ft2
