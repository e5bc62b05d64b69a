// Domain scenario: integrating FT2 with YOUR OWN model, end to end:
//   * define a custom architecture (here: a 3-block Llama-style config),
//   * train it from scratch on a task with the library's trainer,
//   * let the analyzer derive its critical layers from the block graph,
//   * run protected inference and checkpoint the model.
// Nothing in FT2 is specific to the built-in zoo — only to the block graph.
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "core/ft2.hpp"

using namespace ft2;

int main() {
  // 1. A custom architecture.
  ModelConfig config;
  config.name = "my-llama";
  config.arch = ArchFamily::kLlama;
  config.norm = NormKind::kRmsNorm;
  config.position = PositionKind::kRotary;
  config.activation = Activation::kSilu;
  config.linear_bias = false;
  config.vocab_size = Vocab::shared().size();
  config.d_model = 32;
  config.n_heads = 4;
  config.n_blocks = 3;
  config.d_ff = 96;
  config.max_seq = 96;

  Xoshiro256 rng(2024);
  ModelWeights weights = init_weights(config, rng);
  std::cout << "custom model: " << parameter_count(config)
            << " parameters, " << config.n_blocks << " blocks\n";

  // 2. Critical layers come from the architecture alone — before training.
  const auto critical = critical_layers(config);
  std::cout << "critical layers (heuristic):";
  for (LayerKind k : critical) std::cout << " " << layer_kind_name(k);
  std::cout << "\n\n";

  // 3. Train on the QA task: training updates the row-major weights, and
  //    the inference model packs them once training is done.
  const auto gen = make_generator(DatasetKind::kSynthQA);
  TrainerConfig tc;
  tc.steps = env_size("FT2_TRAIN_STEPS", 800);
  tc.eval_every = 100;
  tc.min_steps = 200;
  tc.seed = 5;
  std::cout << "training";
  const auto report =
      train_model(config, weights, {gen.get()}, tc,
                  [](std::size_t step, float) {
                    if ((step + 1) % 100 == 0) std::cout << "." << std::flush;
                  });
  const TransformerLM model(config, std::move(weights));
  std::cout << " done: " << report.steps_run << " steps, accuracy "
            << Table::format(report.final_accuracy, 3) << "\n\n";

  // 4. Protected inference.
  Xoshiro256 sample_rng(9);
  const Sample sample = gen->generate(sample_rng);
  const std::vector<int> prompt = prompt_with_bos(sample);

  InferenceSession session(model);
  Ft2Protector protector(model);
  protector.attach(session);
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  opts.eos_token = Vocab::kEos;
  const auto out = session.generate(prompt, opts);
  std::cout << "prompt : " << sample.prompt_text << "\n"
            << "answer : " << Vocab::shared().decode(out.tokens) << "\n"
            << "expect : " << sample.target_text << "\n";

  // Bounds captured online during the first token:
  std::cout << "\nonline bounds captured for block 0:\n";
  for (LayerKind k : protector.critical()) {
    const Bounds& b = protector.online_bounds().at({0, k});
    std::cout << "  " << layer_kind_name(k) << ": [" << b.lo << ", " << b.hi
              << "]\n";
  }

  // 5. Checkpoint round trip.
  const std::string path =
      (std::filesystem::temp_directory_path() / "my-llama.ft2m").string();
  save_checkpoint(path, model.config(), model.export_weights());
  std::cout << "\ncheckpoint saved to " << path << " ("
            << std::filesystem::file_size(path) << " bytes)\n";
  std::remove(path.c_str());
  return 0;
}
