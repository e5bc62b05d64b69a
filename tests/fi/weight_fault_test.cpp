#include "fi/weight_fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/ft2.hpp"
#include "numeric/f16.hpp"

namespace ft2 {
namespace {

ModelConfig micro_config() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.vocab_size = Vocab::shared().size();
  c.d_model = 16;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 24;
  c.max_seq = 96;
  return c;
}

TransformerLM micro_model() {
  const ModelConfig c = micro_config();
  Xoshiro256 rng(11);
  return TransformerLM(c, init_weights(c, rng));
}

TEST(WeightFault, SpaceCountsAllWeightElements) {
  const ModelConfig c = micro_config();
  const WeightFaultSpace space(c);
  // Per block: Q,K,V,OUT: 4 * 16*16; GATE,UP: 2 * 24*16; DOWN: 16*24.
  const std::size_t per_block = 4 * 16 * 16 + 2 * 24 * 16 + 16 * 24;
  EXPECT_EQ(space.total_elements(), 2 * per_block);
}

TEST(WeightFault, SampleStaysInRange) {
  const ModelConfig c = micro_config();
  const WeightFaultSpace space(c);
  for (std::size_t t = 0; t < 500; ++t) {
    PhiloxStream rng(3, t);
    const auto plan =
        space.sample(FaultModel::kSingleBit, ValueType::kF16, rng);
    EXPECT_TRUE(is_linear_layer(plan.site.kind));
    EXPECT_LT(static_cast<std::size_t>(plan.site.block), c.n_blocks);
    EXPECT_LT(plan.row, c.layer_output_dim(plan.site.kind));
    const std::size_t cols = (plan.site.kind == LayerKind::kDownProj ||
                              plan.site.kind == LayerKind::kFc2)
                                 ? c.d_ff
                                 : c.d_model;
    EXPECT_LT(plan.col, cols);
  }
}

TEST(WeightFault, ScopedFaultAppliesAndRestores) {
  TransformerLM model = micro_model();
  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kVProj};
  plan.row = 3;
  plan.col = 5;
  plan.flips.count = 1;
  plan.flips.bits[0] = 15;  // sign flip

  const PackedLinear& pl = model.linear(plan.site);
  const std::uint16_t before = pl.at(3, 5);
  {
    ScopedWeightFault fault(model, plan);
    EXPECT_EQ(pl.at(3, 5), fault.faulty_bits());
    EXPECT_EQ(fault.original_bits(), before);
    EXPECT_NE(pl.at(3, 5), before);
    EXPECT_EQ(f32_bits(fault.faulty_value()),
              f32_bits(-fault.original_value()));
  }
  EXPECT_EQ(pl.at(3, 5), before);
}

std::vector<std::uint32_t> bits(std::span<const float> v) {
  std::vector<std::uint32_t> out;
  for (const float f : v) out.push_back(f32_bits(f));
  return out;
}

std::vector<std::uint16_t> bits(const AlignedHalves& tiles) {
  return {tiles.begin(), tiles.end()};
}

TEST(WeightFault, FlipChangesExactlyThePlannedBitsAndRestoresThem) {
  // Every fault model's flips, on stored binary16 weights of every sign
  // and scale: the stored element changes by exactly the planned bits (no
  // rounding on the way in or out), and the restore puts the original
  // bits back.
  TransformerLM model = micro_model();
  const WeightFaultSpace space(model.config());
  for (const FaultModel fm : all_fault_models()) {
    for (std::size_t t = 0; t < 200; ++t) {
      PhiloxStream rng(77, t);
      const WeightFaultPlan plan = space.sample(fm, ValueType::kF16, rng);
      std::uint16_t mask = 0;
      for (int i = 0; i < plan.flips.count; ++i) {
        mask = static_cast<std::uint16_t>(mask | (1u << plan.flips.bits[i]));
      }
      const PackedLinear& pl = model.linear(plan.site);
      const std::uint16_t before = pl.at(plan.row, plan.col);
      {
        const ScopedWeightFault fault(model, plan);
        ASSERT_EQ(pl.at(plan.row, plan.col) ^ before, mask)
            << fault_model_name(fm) << " trial " << t;
        EXPECT_EQ(fault.original_bits(), before);
        EXPECT_EQ(fault.faulty_bits(), pl.at(plan.row, plan.col));
        EXPECT_EQ(f32_bits(fault.faulty_value()),
                  f32_bits(pl.weight(plan.row, plan.col)));
      }
      ASSERT_EQ(pl.at(plan.row, plan.col), before);
    }
  }
}

TEST(WeightFault, Fp32PlansThrow) {
  // Weights are binary16: an FP32 weight flip has nothing to flip, so the
  // plan and a campaign configured with it throw before touching the
  // model.
  TransformerLM model = micro_model();
  const std::vector<std::uint16_t> clean = bits(model.linear({0,
      LayerKind::kVProj}).tiles);
  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kVProj};
  plan.flips.count = 1;
  plan.flips.bits[0] = 30;
  plan.vtype = ValueType::kF32;
  EXPECT_THROW(ScopedWeightFault(model, plan), Error);
  EXPECT_EQ(bits(model.linear({0, LayerKind::kVProj}).tiles), clean);

  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 2);
  const auto inputs = prepare_eval_inputs(model, samples, 4, false);
  CampaignConfig config;
  config.vtype = ValueType::kF32;
  config.trials_per_input = 2;
  config.gen_tokens = 4;
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  EXPECT_THROW(
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config),
      Error);
}

/// d_model 8, d_ff 20: the gate projection is a 20 x 8 matrix, one tile
/// of kTileCols columns with 20 of them live.
ModelConfig odd_config() {
  ModelConfig c = micro_config();
  c.d_model = 8;
  c.d_ff = 20;
  return c;
}

TEST(WeightFault, FlipsExactlyTheIntendedTileElementAndRestoresTheTiles) {
  const ModelConfig c = odd_config();
  Xoshiro256 rng(19);
  TransformerLM model(c, init_weights(c, rng));
  const LayerSite site{1, LayerKind::kGateProj};
  const PackedLinear& pl = model.linear(site);
  ASSERT_EQ(pl.n, 20u);
  ASSERT_EQ(pl.k, 8u);
  const std::vector<std::uint16_t> clean_tiles = bits(pl.tiles);
  const std::vector<std::uint32_t> clean_w = bits(pl.unpack_weight().span());
  for (std::size_t row = 0; row < pl.n; ++row) {
    for (std::size_t col = 0; col < pl.k; ++col) {
      SCOPED_TRACE(::testing::Message() << "row " << row << " col " << col);
      WeightFaultPlan plan;
      plan.site = site;
      plan.row = row;
      plan.col = col;
      plan.flips.count = 1;
      plan.flips.bits[0] = 15;  // sign flip: never a no-op on a nonzero
      {
        const ScopedWeightFault fault(model, plan);
        // The tile offset: g * k * 32 + col * 32 + row % 32, g = row / 32.
        const std::size_t offset =
            (row / kTileCols) * pl.k * kTileCols + col * kTileCols +
            row % kTileCols;
        const std::vector<std::uint16_t> tiles = bits(pl.tiles);
        for (std::size_t i = 0; i < tiles.size(); ++i) {
          if (i == offset) {
            EXPECT_EQ(tiles[i], fault.faulty_bits());
            EXPECT_NE(tiles[i], clean_tiles[i]);
          } else {
            ASSERT_EQ(tiles[i], clean_tiles[i]) << "tile index " << i;
          }
        }
        const std::vector<std::uint32_t> w = bits(pl.unpack_weight().span());
        for (std::size_t i = 0; i < w.size(); ++i) {
          if (i == row * pl.k + col) {
            EXPECT_NE(w[i], clean_w[i]);
          } else {
            ASSERT_EQ(w[i], clean_w[i]) << "weight index " << i;
          }
        }
      }
      ASSERT_EQ(bits(pl.tiles), clean_tiles);
    }
  }
}

/// Logits of a 6-position prefill and three decode steps.
std::vector<std::uint32_t> run_logits(const TransformerLM& model, bool fp16) {
  const ExecConfig exec{fp16, false, nullptr};
  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> logits(model.config().vocab_size);
  const std::vector<int> prompt = {1, 7, 4, 9, 2, 5};
  model.forward_span(prompt, 0, cache, hooks, exec, true, ws, logits);
  std::vector<std::uint32_t> out = bits(logits);
  for (const int token : {3, 8, 6}) {
    model.forward_position(token, cache.length(), cache, hooks, exec, false,
                           ws, logits);
    const std::vector<std::uint32_t> step = bits(logits);
    out.insert(out.end(), step.begin(), step.end());
  }
  return out;
}

TEST(WeightFault, FaultedModelMatchesAModelBuiltFromFlippedWeights) {
  const ModelConfig c = odd_config();
  Xoshiro256 rng(23);
  const ModelWeights clean = init_weights(c, rng);
  TransformerLM model(c, clean);
  for (const LayerKind kind : c.block_layers()) {
    if (!is_linear_layer(kind)) continue;
    SCOPED_TRACE(layer_kind_name(kind));
    WeightFaultPlan plan;
    plan.site = {1, kind};
    // The last row and column: inside the partial tile for n = 20.
    plan.row = c.layer_output_dim(kind) - 1;
    plan.col = (kind == LayerKind::kDownProj ? c.d_ff : c.d_model) - 1;
    plan.flips.count = 1;
    plan.flips.bits[0] = f16::kExponentHigh;

    ModelWeights flipped = clean;
    float& w = linear_at(flipped, c, plan.site).w.at(plan.row, plan.col);
    w = apply_bit_flips(w, plan.flips, plan.vtype);
    const TransformerLM reference(c, std::move(flipped));

    const ScopedWeightFault fault(model, plan);
    for (const bool fp16 : {false, true}) {
      EXPECT_EQ(run_logits(model, fp16), run_logits(reference, fp16))
          << "fp16=" << fp16;
    }
  }
}

TEST(WeightFault, ServeEngineBuiltBeforeTheFaultSeesIt) {
  TransformerLM model = micro_model();
  ServeOptions options;
  options.share_prefix = false;
  ServeEngine engine(model, options);

  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(3, 4);
  const auto inputs = prepare_eval_inputs(model, samples, 8, false);
  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.eos_token = -1;
  std::vector<GenerateResult> clean;
  for (const EvalInput& input : inputs) {
    InferenceSession session(model);
    clean.push_back(session.generate(input.prompt, opts));
  }

  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kOutProj};
  plan.row = 0;
  plan.col = 0;
  plan.flips.count = 1;
  plan.flips.bits[0] = f16::kExponentHigh;
  const ScopedWeightFault fault(model, plan);

  std::vector<RequestId> ids;
  for (const EvalInput& input : inputs) {
    ids.push_back(engine.submit(input.prompt, opts));
  }
  engine.run();
  bool changed = false;
  for (std::size_t r = 0; r < inputs.size(); ++r) {
    InferenceSession session(model);
    const GenerateResult solo = session.generate(inputs[r].prompt, opts);
    const GenerateResult& served = engine.result(ids[r]);
    EXPECT_EQ(served.tokens, solo.tokens) << "request " << r;
    EXPECT_EQ(served.positions_run, solo.positions_run) << "request " << r;
    changed = changed || served.tokens != clean[r].tokens;
  }
  // The fault reached the engine: some request's answer changed.
  EXPECT_TRUE(changed);
}

TEST(WeightFault, FaultChangesGeneration) {
  TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 2);
  const auto inputs = prepare_eval_inputs(model, samples, 8, false);

  GenerateOptions opts;
  opts.max_new_tokens = 8;
  opts.eos_token = -1;
  InferenceSession session(model);
  const auto clean = session.generate(inputs[0].prompt, opts);

  WeightFaultPlan plan;
  plan.site = {0, LayerKind::kOutProj};
  plan.row = 0;
  plan.col = 0;
  plan.flips.count = 1;
  plan.flips.bits[0] = f16::kExponentHigh;
  {
    ScopedWeightFault fault(model, plan);
    InferenceSession faulty_session(model);
    const auto faulty = faulty_session.generate(inputs[0].prompt, opts);
    // An exponent flip on a weight makes a whole row of products extreme;
    // the generation virtually always changes.
    EXPECT_NE(clean.tokens, faulty.tokens);
  }
  InferenceSession restored(model);
  EXPECT_EQ(restored.generate(inputs[0].prompt, opts).tokens, clean.tokens);
}

TEST(WeightFault, CampaignRunsAndIsReproducible) {
  TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 9);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.trials_per_input = 15;
  config.gen_tokens = 6;

  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const auto a =
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config);
  const auto b =
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config);
  EXPECT_EQ(a.trials, 30u);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.masked_identical, b.masked_identical);
}

/// Outcome counts of `config`'s weight-fault trials run by hand: each
/// trial's plan from the campaign's per-trial Philox stream, applied with
/// ScopedWeightFault, then a fixed-length generate under the scheme's
/// protection hook with the config's reduction order.
CampaignResult hand_weight_campaign(TransformerLM& model,
                                    const std::vector<EvalInput>& inputs,
                                    const SchemeSpec& spec,
                                    const CampaignConfig& config) {
  const WeightFaultSpace space(model.config());
  GenerateOptions opts;
  opts.max_new_tokens = config.gen_tokens;
  opts.eos_token = -1;
  opts.fp16 = config.vtype == ValueType::kF16;
  opts.chunked_accum = config.chunked_accum;
  CampaignResult result;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    for (std::size_t t = 0; t < config.trials_per_input; ++t) {
      PhiloxStream rng(config.seed, i * config.trials_per_input + t);
      const ScopedWeightFault fault(
          model, space.sample(config.fault_model, config.vtype, rng));
      ProtectionHook protection(model.config(), spec, BoundStore{});
      InferenceSession session(model);
      const HookRegistration reg = session.hooks().add(protection);
      const GenerateResult out = session.generate(inputs[i].prompt, opts);
      ++result.trials;
      switch (classify_outcome(out.tokens, inputs[i])) {
        case Outcome::kMaskedIdentical: ++result.masked_identical; break;
        case Outcome::kMaskedSemantic: ++result.masked_semantic; break;
        case Outcome::kSdc: ++result.sdc; break;
        case Outcome::kNotInjected: ++result.not_injected; break;
      }
    }
  }
  return result;
}

void expect_same_counts(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.masked_identical, b.masked_identical);
  EXPECT_EQ(a.masked_semantic, b.masked_semantic);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.not_injected, b.not_injected);
}

TEST(WeightFault, CampaignRunsTheConfiguredReductionOrder) {
  const ModelConfig c = micro_config();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(1, 11);
  Xoshiro256 rng(11);
  ModelWeights weights = init_weights(c, rng);
  // A cancellation that the reduction order decides. MLP units 0 and 8
  // get identical large gate and up rows, so they carry the same value h,
  // and every down-projection row adds 65504 * h at input 0 and subtracts
  // it at input 8, with +-0.5 weights on inputs 1-7 between them. The
  // chunked chain sums inputs 0 and 8 into one partial, where they cancel
  // exactly; the sequential chain adds inputs 1-7 onto the large running
  // sum, which rounds their products away. Under binary16 activations the
  // two orders then differ by many ulps of the residual stream, not by
  // FP32 rounding that the next quantization erases, so outcomes move.
  for (BlockWeights& blk : weights.blocks) {
    for (std::size_t i = 0; i < c.d_model; ++i) {
      blk.fc1.w.at(0, i) = blk.fc1.w.at(8, i) = 8.0f;
      blk.up.w.at(0, i) = blk.up.w.at(8, i) = 8.0f;
    }
    for (std::size_t o = 0; o < c.d_model; ++o) {
      blk.fc2.w.at(o, 0) = f16::kMax;
      blk.fc2.w.at(o, 8) = -f16::kMax;
      for (std::size_t i = 1; i < 8; ++i) {
        blk.fc2.w.at(o, i) = (o + i) % 2 == 0 ? -0.5f : 0.5f;
      }
    }
  }
  TransformerLM model(c, std::move(weights));
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig config;
  config.fault_model = FaultModel::kExponentBit;
  config.vtype = ValueType::kF16;
  config.trials_per_input = 20;
  config.gen_tokens = 6;
  config.chunked_accum = true;
  const auto spec = scheme_spec(SchemeKind::kFt2, model.config());
  const CampaignResult chunked =
      hand_weight_campaign(model, inputs, spec, config);
  // Precondition: the reduction order moves outcomes on these trials, so
  // a campaign that ran the default order would not match.
  CampaignConfig plain = config;
  plain.chunked_accum = false;
  ASSERT_NE(chunked.masked_identical,
            hand_weight_campaign(model, inputs, spec, plain).masked_identical);

  expect_same_counts(
      run_weight_fault_campaign(model, inputs, spec, BoundStore{}, config),
      chunked);
}

TEST(MultiFault, MoreFaultsNeverInjectLess) {
  const TransformerLM model = micro_model();
  const auto samples =
      make_generator(DatasetKind::kSynthQA)->generate_many(2, 10);
  const auto inputs = prepare_eval_inputs(model, samples, 6, false);

  CampaignConfig one;
  one.fault_model = FaultModel::kExponentBit;
  one.trials_per_input = 25;
  one.gen_tokens = 6;
  CampaignConfig three = one;
  three.faults_per_trial = 3;

  const auto r1 =
      run_campaign(model, inputs, SchemeKind::kNone, BoundStore{}, one);
  const auto r3 =
      run_campaign(model, inputs, SchemeKind::kNone, BoundStore{}, three);
  EXPECT_EQ(r1.trials, r3.trials);
  // With a random-weight model the exact rates are noisy; assert the
  // mechanical property: all trials still classified.
  EXPECT_EQ(r3.masked_identical + r3.masked_semantic + r3.sdc +
                r3.not_injected,
            r3.trials);
}

}  // namespace
}  // namespace ft2
