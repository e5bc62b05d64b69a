// Take-away #3/#4 across the whole zoo: the NaN-vulnerable fraction per
// layer kind for all seven models (the paper shows OPT-6.7B in Fig. 8 and
// states the observation holds for every model studied).
#include <iomanip>
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header(
      "NaN-vulnerable value share per layer, all models",
      "Fig. 8 generalization (take-aways #3/#4: 'observations hold for all "
      "the models')");

  const LayerKind columns[] = {
      LayerKind::kQProj, LayerKind::kKProj,    LayerKind::kVProj,
      LayerKind::kOutProj, LayerKind::kFc1,    LayerKind::kFc2,
      LayerKind::kGateProj, LayerKind::kUpProj, LayerKind::kDownProj};

  Table table({"model", "Q", "K", "V*", "OUT*", "FC1", "FC2*", "GATE",
               "UP*", "DOWN*"});
  for (const auto& entry : model_zoo()) {
    const auto model = ensure_model(entry.name);
    const auto gen = make_generator(DatasetKind::kSynthQA);
    ActivationStatsHook stats(8.0f, 32);
    InferenceSession session(*model);
    const auto stats_reg = session.hooks().add(stats);
    GenerateOptions opts;
    opts.max_new_tokens = generation_tokens(DatasetKind::kSynthQA);
    opts.eos_token = -1;
    for (const auto& sample : gen->generate_many(s.inputs, 8080)) {
      session.generate(prompt_with_bos(sample), opts);
    }

    table.begin_row().cell(entry.name);
    for (LayerKind kind : columns) {
      if (!entry.config.has_layer(kind)) {
        table.cell("-");
        continue;
      }
      const auto agg = stats.aggregate(kind);
      table.pct(agg.nan_vulnerable_fraction(), 1);
    }
  }
  table.print(std::cout);
  std::cout << "\n(* = critical layer in its architecture; the paper's "
               "claim: critical layers V/OUT have a much smaller "
               "NaN-vulnerable share than non-critical Q/K/FC1/GATE)\n";
  return 0;
}
