// Figure 12 + take-away #8: large neuron values exist in generative LLMs.
// Value distributions of GATE/UP/DOWN projections of the Vicuna model; the
// decisive observation is a long tail (|max| >> stddev) in DOWN_PROJ, which
// is why FT2 clips to the BOUND instead of to zero.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Large neuron values in generative LLMs", "Figure 12");

  const auto model = ensure_model("vicuna-sm");
  const auto gen = make_generator(DatasetKind::kSynthQA);

  ActivationStatsHook stats(10.0f, 40);
  InferenceSession session(*model);
  const auto stats_reg = session.hooks().add(stats);
  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(DatasetKind::kSynthQA);
  opts.eos_token = -1;
  for (const auto& sample : gen->generate_many(s.inputs, 686)) {
    session.generate(prompt_with_bos(sample), opts);
  }

  Table table({"layer", "mean", "stddev", "min", "max", "|max| / stddev"});
  for (LayerKind kind : {LayerKind::kGateProj, LayerKind::kUpProj,
                         LayerKind::kDownProj}) {
    const auto agg = stats.aggregate(kind);
    const double spread =
        std::max(std::abs(agg.stats.min()), std::abs(agg.stats.max()));
    table.begin_row()
        .cell(std::string(layer_kind_name(kind)))
        .num(agg.stats.mean(), 3)
        .num(agg.stats.stddev(), 3)
        .num(agg.stats.min(), 2)
        .num(agg.stats.max(), 2)
        .num(agg.stats.stddev() > 0 ? spread / agg.stats.stddev() : 0.0, 1);
  }
  table.print(std::cout);

  std::cout << "\nDOWN_PROJ histogram (block 0):\n";
  if (const auto* site = stats.find(LayerSite{0, LayerKind::kDownProj})) {
    std::cout << site->histogram.render(40);
  }
  std::cout << "paper: most values near 0, but a few LARGE values exist "
               "(esp. DOWN_PROJ) — clipping them to 0 would corrupt correct "
               "outputs, hence clip-to-bound\n";
  return 0;
}
