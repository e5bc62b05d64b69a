// Figure 8: neuron-value distribution per linear layer of the OPT model and
// the fraction of NaN-vulnerable values (|v| in (1,2), FP16 exponent 01111).
// Paper claim: critical layers (V/OUT/FC2) concentrate near 0 with few
// NaN-vulnerable values; non-critical layers (Q/K/FC1) spread wider.
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Neuron value distributions and NaN-vulnerable share",
                      "Figure 8");

  const auto model = ensure_model("opt-sm");
  const auto gen = make_generator(DatasetKind::kSynthQA);

  ActivationStatsHook stats(8.0f, 32);
  InferenceSession session(*model);
  const auto stats_reg = session.hooks().add(stats);
  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(DatasetKind::kSynthQA);
  opts.eos_token = -1;
  for (const auto& sample : gen->generate_many(s.inputs, 31337)) {
    session.generate(prompt_with_bos(sample), opts);
  }

  const LayerGraph graph = LayerGraph::build(model->config());
  Table table({"layer", "critical?", "mean", "stddev", "min", "max",
               "NaN-vulnerable %"});
  for (LayerKind kind : model->config().block_layers()) {
    if (!is_linear_layer(kind)) continue;
    const auto agg = stats.aggregate(kind);
    table.begin_row()
        .cell(std::string(layer_kind_name(kind)))
        .cell(layer_is_critical(graph, kind) ? "Y" : "N")
        .num(agg.stats.mean(), 3)
        .num(agg.stats.stddev(), 3)
        .num(agg.stats.min(), 2)
        .num(agg.stats.max(), 2)
        .pct(agg.nan_vulnerable_fraction());
  }
  table.print(std::cout);

  std::cout << "\nhistogram of one non-critical (Q_PROJ) vs one critical "
               "(V_PROJ) layer, block 0:\n";
  for (LayerKind kind : {LayerKind::kQProj, LayerKind::kVProj}) {
    const auto* site = stats.find(LayerSite{0, kind});
    if (site == nullptr) continue;
    std::cout << "-- " << layer_kind_name(kind) << " --\n"
              << site->histogram.render(40);
  }
  std::cout << "paper: non-critical Q/K/FC1 have a visibly larger "
               "NaN-vulnerable share than critical V/OUT/FC2\n";
  return 0;
}
