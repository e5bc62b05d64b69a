// Quickstart: protect generative inference with FT2 in three lines.
//
//   1. Get a model (here: the cached/auto-trained zoo model).
//   2. Create an InferenceSession and attach an Ft2Protector.
//   3. Generate — bounds are captured during the first token and all
//      critical-layer outputs are range-restricted afterwards.
//
// The demo then injects an exponent-bit fault into a critical layer during
// answer generation and shows the same fault with and without FT2.
#include <iostream>

#include "core/ft2.hpp"

using namespace ft2;

int main() {
  // 1. A generative model. ensure_model trains and caches it on first use.
  const auto model = ensure_model("llama-sm");
  std::cout << "model: " << model->config().name << " ("
            << parameter_count(model->config()) << " parameters)\n";

  // FT2's critical-layer heuristic, straight from the architecture graph.
  Ft2Protector protector(*model);
  std::cout << "critical layers protected by FT2:";
  for (LayerKind kind : protector.critical()) {
    std::cout << " " << layer_kind_name(kind);
  }
  std::cout << "\nbound memory: " << protector.bound_memory_bytes()
            << " bytes\n\n";

  // 2./3. Protected generation.
  const auto gen = make_generator(DatasetKind::kSynthQA);
  Xoshiro256 rng(7);
  const Sample sample = gen->generate(rng);
  const std::vector<int> prompt = prompt_with_bos(sample);

  GenerateOptions opts;
  opts.max_new_tokens = 10;
  opts.eos_token = Vocab::kEos;

  InferenceSession session(*model);
  protector.attach(session);
  const auto clean = session.generate(prompt, opts);
  std::cout << "prompt : " << sample.prompt_text << "\n"
            << "answer : " << Vocab::shared().decode(clean.tokens) << "\n"
            << "expect : " << sample.target_text << "\n\n";

  // Now inject an exponent-bit flip into a V_PROJ output neuron while the
  // answer is being generated, with and without FT2.
  FaultPlan plan;
  plan.position = prompt.size() + 1;  // second generated token
  plan.site = {0, LayerKind::kVProj};
  plan.neuron = 5;
  plan.flips.count = 1;
  plan.flips.bits[0] = f16::kExponentHigh;

  opts.eos_token = -1;  // fixed length, as in the fault-injection campaigns
  {
    InjectorHook injector(plan);
    InferenceSession faulty(*model);
    const auto reg = faulty.hooks().add(injector);
    const auto out = faulty.generate(prompt, opts);
    std::cout << "with fault, NO protection : "
              << Vocab::shared().decode(truncate_at_eos(out.tokens))
              << "   (value " << injector.original_value() << " -> "
              << injector.injected_value() << ")\n";
  }
  {
    InjectorHook injector(plan);
    Ft2Protector ft2(*model);
    InferenceSession protected_session(*model);
    const auto reg = protected_session.hooks().add(injector);
    ft2.attach(protected_session);
    const auto out = protected_session.generate(prompt, opts);
    std::cout << "with fault, FT2 protection: "
              << Vocab::shared().decode(truncate_at_eos(out.tokens)) << "\n"
              << "corrections applied: " << ft2.stats().oob_corrected
              << " out-of-bound, " << ft2.stats().nan_corrected << " NaN\n";
  }
  return 0;
}
