#include "zoo/zoo.hpp"

#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>

#include "common/env.hpp"
#include "nn/checkpoint.hpp"

namespace ft2 {
namespace {

ModelConfig base_config(ArchFamily arch) {
  ModelConfig c;
  c.arch = arch;
  c.vocab_size = Vocab::shared().size();
  c.max_seq = 96;
  switch (arch) {
    case ArchFamily::kOpt:
      c.activation = Activation::kRelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kLearned;
      c.linear_bias = true;
      break;
    case ArchFamily::kGptj:
      c.activation = Activation::kGelu;
      c.norm = NormKind::kLayerNorm;
      c.position = PositionKind::kRotary;
      c.parallel_block = true;
      c.linear_bias = true;
      break;
    case ArchFamily::kLlama:
      c.activation = Activation::kSilu;
      c.norm = NormKind::kRmsNorm;
      c.position = PositionKind::kRotary;
      c.linear_bias = false;
      break;
  }
  return c;
}

TrainerConfig qa_trainer(std::uint64_t seed) {
  TrainerConfig t;
  t.steps = env_size("FT2_TRAIN_STEPS", 3000);
  t.batch_size = 8;
  t.peak_lr = 2e-3f;
  t.seed = seed;
  t.eval_every = 100;
  t.min_steps = 300;
  t.eval_samples = 48;
  t.target_accuracy = 0.99;
  return t;
}

TrainerConfig math_trainer(std::uint64_t seed) {
  TrainerConfig t = qa_trainer(seed);
  t.steps = env_size("FT2_TRAIN_STEPS_MATH", 12000);
  t.min_steps = 600;
  // Math is the hardest task: give it half the batch mixture
  // (tasks are {qa, xqa, math} for math-capable models).
  t.task_weights = {0.25, 0.25, 0.5};
  return t;
}

std::vector<ZooEntry> build_zoo() {
  std::vector<ZooEntry> zoo;
  const std::vector<DatasetKind> qa_tasks = {DatasetKind::kSynthQA,
                                             DatasetKind::kSynthXQA};
  const std::vector<DatasetKind> all_tasks = {
      DatasetKind::kSynthQA, DatasetKind::kSynthXQA, DatasetKind::kSynthMath};

  {
    ZooEntry e;
    e.name = "opt-sm";
    e.paper_name = "OPT-6.7B";
    e.config = base_config(ArchFamily::kOpt);
    e.config.name = e.name;
    e.config.d_model = 64;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 256;
    e.tasks = qa_tasks;
    e.seed = 101;
    e.trainer = qa_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "opt-xs";
    e.paper_name = "OPT-2.7B";
    e.config = base_config(ArchFamily::kOpt);
    e.config.name = e.name;
    e.config.d_model = 48;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 192;
    e.tasks = qa_tasks;
    e.seed = 102;
    e.trainer = qa_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "gptj-sm";
    e.paper_name = "GPTJ-6B";
    e.config = base_config(ArchFamily::kGptj);
    e.config.name = e.name;
    e.config.d_model = 64;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 256;
    e.tasks = qa_tasks;
    e.seed = 103;
    e.trainer = qa_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "llama-sm";
    e.paper_name = "Llama2-7B";
    e.config = base_config(ArchFamily::kLlama);
    e.config.name = e.name;
    e.config.d_model = 64;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 176;
    e.tasks = all_tasks;
    e.seed = 104;
    e.trainer = math_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "vicuna-sm";
    e.paper_name = "Vicuna-7B";
    e.config = base_config(ArchFamily::kLlama);
    e.config.name = e.name;
    e.config.d_model = 64;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 176;
    e.tasks = qa_tasks;
    e.seed = 105;
    e.trainer = qa_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "qwen2-sm";
    e.paper_name = "Qwen2-7B";
    e.config = base_config(ArchFamily::kLlama);
    e.config.name = e.name;
    e.config.d_model = 64;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 176;
    e.config.qkv_bias = true;
    e.tasks = all_tasks;
    e.seed = 106;
    e.trainer = math_trainer(e.seed);
    zoo.push_back(e);
  }
  {
    ZooEntry e;
    e.name = "qwen2-xs";
    e.paper_name = "Qwen2-1.5B";
    e.config = base_config(ArchFamily::kLlama);
    e.config.name = e.name;
    e.config.d_model = 48;
    e.config.n_heads = 4;
    e.config.n_blocks = 2;
    e.config.d_ff = 128;
    e.config.qkv_bias = true;
    e.tasks = qa_tasks;
    e.seed = 107;
    e.trainer = qa_trainer(e.seed);
    zoo.push_back(e);
  }
  return zoo;
}

}  // namespace

const std::vector<ZooEntry>& model_zoo() {
  static const std::vector<ZooEntry> zoo = build_zoo();
  return zoo;
}

const ZooEntry& zoo_entry(const std::string& name) {
  for (const auto& e : model_zoo()) {
    if (e.name == name) return e;
  }
  throw Error("unknown zoo model: " + name);
}

std::string model_cache_dir() {
  return env_string("FT2_MODEL_DIR", "models");
}

std::size_t generation_tokens(DatasetKind kind) {
  // Analogue of the paper's fixed 60 (QA) / 180 (math) generated tokens,
  // scaled to our answer lengths: ~120% of the last answer-token position.
  return is_math_dataset(kind) ? 16 : 10;
}

std::shared_ptr<TransformerLM> train_zoo_model(const ZooEntry& entry,
                                               bool quiet) {
  Xoshiro256 rng(entry.seed);
  ModelWeights weights = init_weights(entry.config, rng);

  std::vector<std::unique_ptr<DatasetGenerator>> gens;
  std::vector<const DatasetGenerator*> tasks;
  for (DatasetKind kind : entry.tasks) {
    gens.push_back(make_generator(kind));
    tasks.push_back(gens.back().get());
  }

  if (!quiet) {
    std::cerr << "[zoo] training " << entry.name << " ("
              << parameter_count(entry.config) << " params) ..."
              << std::endl;
  }
  const auto report = train_model(
      entry.config, weights, tasks, entry.trainer,
      quiet ? std::function<void(std::size_t, float)>{}
            : [](std::size_t step, float loss) {
                if ((step + 1) % 200 == 0) {
                  std::cerr << "[zoo]   step " << (step + 1) << " loss "
                            << loss << std::endl;
                }
              });
  if (!quiet) {
    std::cerr << "[zoo] " << entry.name << ": " << report.steps_run
              << " steps, accuracy " << report.final_accuracy << std::endl;
  }
  return std::make_shared<TransformerLM>(entry.config, std::move(weights));
}

std::shared_ptr<const TransformerLM> ensure_model(const std::string& name,
                                                  bool quiet) {
  static std::mutex mutex;
  static std::map<std::string, std::shared_ptr<const TransformerLM>> cache;
  std::lock_guard lock(mutex);
  if (auto it = cache.find(name); it != cache.end()) return it->second;

  const ZooEntry& entry = zoo_entry(name);
  const std::string dir = model_cache_dir();
  const std::string path = dir + "/" + name + ".ft2m";

  std::shared_ptr<const TransformerLM> model;
  if (checkpoint_exists(path)) {
    try {
      ModelConfig config;
      ModelWeights weights;
      load_checkpoint(path, config, weights);
      model = std::make_shared<TransformerLM>(std::move(config),
                                              std::move(weights));
      if (!quiet) std::cerr << "[zoo] loaded " << path << std::endl;
    } catch (const Error& e) {
      // Corrupt or format-incompatible cache: retrain below and overwrite.
      std::cerr << "[zoo] discarding unreadable checkpoint " << path << ": "
                << e.what() << std::endl;
    }
  }
  if (!model) {
    auto trained = train_zoo_model(entry, quiet);
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    save_checkpoint(path, trained->config(), trained->export_weights());
    if (!quiet) std::cerr << "[zoo] saved " << path << std::endl;
    model = trained;
  }
  cache.emplace(name, model);
  return model;
}

}  // namespace ft2
