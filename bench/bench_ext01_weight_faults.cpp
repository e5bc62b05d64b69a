// Extension: persistent weight faults (outside the paper's transient
// activation-fault model, which assumes ECC-protected memory). A bit flip
// lives in one weight-matrix element for a whole inference. Measured
// finding: FT2's activation-level clamp bounds each token's excursion but
// the wrong weight re-corrupts every step, so the SDC reduction is small —
// empirical support for the paper's scoping of memory faults to ECC.
#include <iostream>

#include "bench_util.hpp"
#include "fi/weight_fault.hpp"

using namespace ft2;

int main() {
  const auto s = bench::sizes();
  bench::print_header("Extension: persistent weight faults vs FT2",
                      "beyond-paper extension (paper assumes ECC memory)");

  const auto p = bench::prepare("opt-sm", DatasetKind::kSynthQA, s.inputs);
  // Weight campaigns mutate the model; work on a private copy.
  TransformerLM model = *p.model;

  Table table({"fault model", "scheme", "SDC rate (95% CI)"});
  for (FaultModel fm :
       {FaultModel::kSingleBit, FaultModel::kExponentBit}) {
    for (SchemeKind sk : {SchemeKind::kNone, SchemeKind::kFt2}) {
      CampaignConfig config;
      config.fault_model = fm;
      config.trials_per_input = s.trials;
      config.gen_tokens = p.gen_tokens;
      const auto result = run_weight_fault_campaign(
          model, p.inputs, scheme_spec(sk, model.config()), BoundStore{},
          config);
      table.begin_row()
          .cell(fault_model_name(fm))
          .cell(scheme_name(sk))
          .cell(bench::sdc_cell(result));
    }
  }
  table.print(std::cout);
  std::cout << "\nexpected: weight faults cause more SDCs than single "
               "transient faults (they corrupt every token). FT2 helps only "
               "marginally here: clamping bounds each token's excursion, but "
               "a persistent wrong weight re-corrupts every step — range "
               "restriction is designed for transient outliers, which is "
               "why the paper scopes weight faults to ECC\n";
  return 0;
}
