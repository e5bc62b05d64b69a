// Domain scenario: an arithmetic word-problem assistant (the paper's GSM8K
// use case). Math answers are single decisive number tokens, so a transient
// fault that lands mid-generation silently corrupts the result — exactly
// the SDC class FT2 targets. This example solves a batch of problems under
// WORST-CASE faults (top-exponent-bit flips in critical-layer outputs while
// the answer is being generated) and reports how many answers each
// configuration gets right. Uniform random faults are far more benign —
// see the statistical campaigns (qa_reliability_study, bench_fig13).
#include <iostream>
#include <optional>

#include "core/ft2.hpp"

using namespace ft2;

namespace {

struct RunResult {
  std::size_t correct = 0;
  std::size_t total = 0;
};

RunResult solve_batch(const TransformerLM& model,
                      const std::vector<Sample>& problems, bool protect,
                      bool inject, std::uint64_t seed) {
  const std::size_t gen_tokens = generation_tokens(DatasetKind::kSynthMath);
  RunResult result;
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const Sample& problem = problems[i];
    const std::vector<int> prompt = prompt_with_bos(problem);

    InferenceSession session(model);
    std::optional<InjectorHook> injector;
    HookRegistration injector_reg;
    if (inject) {
      // Worst-case fault: flip the top exponent bit of a critical-layer
      // output neuron right when the answer tokens are being produced.
      PhiloxStream rng(seed, i);
      const auto critical = critical_layers(model.config());
      FaultPlan plan;
      plan.site.kind = critical[rng.uniform(critical.size())];
      plan.site.block =
          static_cast<int>(rng.uniform(model.config().n_blocks));
      plan.neuron =
          rng.uniform(model.config().layer_output_dim(plan.site.kind));
      plan.position = prompt.size() + 1 + rng.uniform(4);
      plan.flips.count = 1;
      plan.flips.bits[0] = f16::kExponentHigh;
      injector.emplace(plan);
      injector_reg = session.hooks().add(*injector);
    }
    Ft2Protector protector(model);
    if (protect) protector.attach(session);

    GenerateOptions opts;
    opts.max_new_tokens = gen_tokens;
    opts.eos_token = -1;
    const auto out = session.generate(prompt, opts);
    const std::string text =
        Vocab::shared().decode(truncate_at_eos(out.tokens));
    if (contains_reference(text, problem.reference)) ++result.correct;
    ++result.total;
  }
  return result;
}

}  // namespace

int main() {
  const auto model = ensure_model("qwen2-sm");
  const auto gen = make_generator(DatasetKind::kSynthMath);
  const std::size_t n = env_size("FT2_INPUTS", 30);
  const auto problems = gen->generate_many(n, 8);

  std::cout << "math assistant on " << problems.size()
            << " word problems (qwen2-sm)\n\nexample problem:\n  "
            << problems[0].prompt_text << "\n  expected: "
            << problems[0].reference << "\n\n";

  Table table({"configuration", "correct answers"});
  const RunResult clean = solve_batch(*model, problems, false, false, 0);
  const RunResult faulty = solve_batch(*model, problems, false, true, 42);
  const RunResult protected_run = solve_batch(*model, problems, true, true,
                                              42);
  auto row = [&](const char* name, const RunResult& r) {
    table.begin_row().cell(name).cell(
        std::to_string(r.correct) + "/" + std::to_string(r.total) + " (" +
        Table::format_pct(static_cast<double>(r.correct) /
                              static_cast<double>(r.total),
                          1) +
        ")");
  };
  row("fault-free, unprotected", clean);
  row("worst-case EXP fault per problem, unprotected", faulty);
  row("worst-case EXP fault per problem, FT2", protected_run);
  table.print(std::cout);
  std::cout << "\nFT2 recovers " << (protected_run.correct - faulty.correct)
            << " answers lost to faults, online, with no profiling data.\n";
  return 0;
}
