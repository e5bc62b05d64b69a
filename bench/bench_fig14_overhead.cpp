// Figure 14 + §5.2.2: runtime overhead of FT2 protection.
// google-benchmark measures protected vs unprotected generation wall-clock
// on every zoo model (our engine); a modeled table reproduces the paper's
// A100 percentages for the paper-scale models.
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"

using namespace ft2;
namespace pm = ft2::perfmodel;

namespace {

std::vector<int> bench_prompt(DatasetKind dataset) {
  const auto gen = make_generator(dataset);
  Xoshiro256 rng(777);
  const Sample sample = gen->generate(rng);
  return prompt_with_bos(sample);
}

void BM_Generate(benchmark::State& state, const std::string& model_name,
                 bool protect) {
  const auto model = ensure_model(model_name, /*quiet=*/true);
  const auto prompt = bench_prompt(DatasetKind::kSynthQA);
  GenerateOptions opts;
  opts.max_new_tokens = generation_tokens(DatasetKind::kSynthQA);
  opts.eos_token = -1;

  InferenceSession session(*model);
  Ft2Protector protector(*model);
  if (protect) protector.attach(session);

  for (auto _ : state) {
    auto result = session.generate(prompt, opts);
    benchmark::DoNotOptimize(result.tokens.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(opts.max_new_tokens));
}

void register_benchmarks() {
  for (const auto& entry : model_zoo()) {
    benchmark::RegisterBenchmark(
        (entry.name + "/unprotected").c_str(),
        [name = entry.name](benchmark::State& st) {
          BM_Generate(st, name, false);
        });
    benchmark::RegisterBenchmark(
        (entry.name + "/ft2").c_str(),
        [name = entry.name](benchmark::State& st) {
          BM_Generate(st, name, true);
        });
  }
}

void print_modeled_overhead() {
  std::cout << "\nmodeled FT2 overhead on A100 (paper-scale models):\n";
  Table table({"model", "protected outputs/block", "overhead"});
  for (const auto& m : pm::paper_models()) {
    // FT2 protects 3 (OPT/GPT-J: V, OUT, FC2) or 4 (Llama: V, OUT, UP,
    // DOWN) outputs per block; average width ~ (2*d + 2*d_ff)/4.
    const bool gated = m.gated_mlp;
    const std::size_t outputs = gated ? 4 : 3;
    const double avg_width =
        gated ? (3.0 * static_cast<double>(m.d_model) +
                 static_cast<double>(m.d_ff)) / 4.0
              : (2.0 * static_cast<double>(m.d_model) +
                 static_cast<double>(m.d_ff)) / 3.0;
    const double f = pm::protection_overhead_fraction(m, pm::a100(), 256, 60,
                                                      outputs, avg_width);
    table.begin_row().cell(m.name).count(outputs).pct(f, 2);
  }
  table.print(std::cout);
  std::cout << "paper: 3.42% average, worst case 8.91% (OPT-2.7B); "
               "protection adds 32.5-127.5 ms to 1.35-6.4 s inferences\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::print_header("FT2 runtime overhead (measured + modeled)",
                      "Figure 14");
  register_benchmarks();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_modeled_overhead();
  return 0;
}
