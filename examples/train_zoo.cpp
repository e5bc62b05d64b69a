// Utility: trains (or verifies) every model in the zoo and reports
// per-task greedy-decode accuracy. Checkpoints land in $FT2_MODEL_DIR
// (default ./models); benches and examples then load them instantly.
//
//   ./train_zoo            train/load all models
//   ./train_zoo llama-sm   only one model
//   ./train_zoo --retrain  ignore cached checkpoints
#include <cstring>
#include <filesystem>
#include <iostream>

#include "core/ft2.hpp"

using namespace ft2;

int main(int argc, char** argv) {
  bool retrain = false;
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--retrain") == 0) {
      retrain = true;
    } else {
      only = argv[i];
    }
  }

  Table table({"model", "paper model", "params", "task", "accuracy"});
  for (const auto& entry : model_zoo()) {
    if (!only.empty() && entry.name != only) continue;
    if (retrain) {
      std::error_code ec;
      std::filesystem::remove(model_cache_dir() + "/" + entry.name + ".ft2m",
                              ec);
    }
    const auto model = ensure_model(entry.name);
    for (DatasetKind task : entry.tasks) {
      const auto gen = make_generator(task);
      const double acc = evaluate_accuracy(*model, *gen, 50, 20250704);
      table.begin_row()
          .cell(entry.name)
          .cell(entry.paper_name)
          .count(parameter_count(model->config()))
          .cell(gen->name())
          .pct(acc, 1);
    }
  }
  table.print(std::cout);
  return 0;
}
