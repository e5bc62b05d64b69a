// Figure 10: share of inference time spent generating the first token.
// Modeled on A100/H100 for the paper-scale models (prefill compute-bound,
// decode bandwidth-bound), plus the measured share on our CPU engine.
#include <chrono>
#include <iostream>

#include "bench_util.hpp"

using namespace ft2;
namespace pm = ft2::perfmodel;

namespace {

double measured_first_token_fraction(const TransformerLM& model,
                                     DatasetKind dataset) {
  const auto gen = make_generator(dataset);
  Xoshiro256 rng(404);
  const Sample sample = gen->generate(rng);
  const std::vector<int> prompt = prompt_with_bos(sample);

  InferenceSession session(model);
  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(dataset);
  opts.eos_token = -1;

  // Time the full generation and the prefill-only portion separately.
  const int reps = 20;
  using clock = std::chrono::steady_clock;

  KvCache cache = model.make_cache();
  Workspace ws(model.config());
  HookChain hooks;
  std::vector<float> logits(model.config().vocab_size);

  const auto t0 = clock::now();
  for (int r = 0; r < reps; ++r) {
    cache.reset();
    for (std::size_t pos = 0; pos < prompt.size(); ++pos) {
      model.forward_position(prompt[pos], pos, cache, hooks, ExecConfig{true},
                             true, ws, logits);
    }
  }
  const double prefill =
      std::chrono::duration<double>(clock::now() - t0).count();

  const auto t1 = clock::now();
  for (int r = 0; r < reps; ++r) session.generate(prompt, opts);
  const double total =
      std::chrono::duration<double>(clock::now() - t1).count();
  return prefill / total;
}

}  // namespace

int main() {
  bench::print_header("First-token share of inference time", "Figure 10");

  Table modeled({"model", "task", "A100", "H100"});
  for (const auto& m : pm::paper_models()) {
    const bool math = m.name == "Llama2-7B" || m.name == "Qwen2-7B";
    modeled.begin_row()
        .cell(m.name)
        .cell("QA (60 tok)")
        .pct(pm::first_token_fraction(m, pm::a100(), 256, 60))
        .pct(pm::first_token_fraction(m, pm::h100(), 256, 60));
    if (math) {
      modeled.begin_row()
          .cell(m.name)
          .cell("Math (180 tok)")
          .pct(pm::first_token_fraction(m, pm::a100(), 256, 180))
          .pct(pm::first_token_fraction(m, pm::h100(), 256, 180));
    }
  }
  modeled.print(std::cout);
  std::cout << "paper: 1.89-8.33% (QA) and 0.6-2.66% (math) on A100; "
               "1.75-2% / 0.59-0.61% on H100 — always < 10%\n\n";

  std::cout << "measured on this engine (tiny models, CPU):\n";
  Table measured({"model", "task", "first-token share"});
  for (const char* name : {"opt-sm", "llama-sm"}) {
    const auto model = ensure_model(name);
    measured.begin_row()
        .cell(name)
        .cell("QA")
        .pct(measured_first_token_fraction(*model, DatasetKind::kSynthQA));
  }
  {
    const auto model = ensure_model("llama-sm");
    measured.begin_row()
        .cell("llama-sm")
        .cell("Math")
        .pct(measured_first_token_fraction(*model, DatasetKind::kSynthMath));
  }
  measured.print(std::cout);
  std::cout << "(our prompts are a larger fraction of the total sequence "
               "than the paper's, so the CPU share is higher; the modeled "
               "GPU numbers are the Fig. 10 reproduction)\n";
  return 0;
}
