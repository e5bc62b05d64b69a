// Synthetic generative tasks with definite reference answers.
//
// Stand-ins for the paper's datasets (§2 "Substitutions" in DESIGN.md):
//  * SynthQA   — fact-retrieval question answering      (SQuAD 2.0 stand-in)
//  * SynthXQA  — the same task with a disjoint, pseudo-multilingual surface
//                vocabulary                              (XTREME stand-in)
//  * SynthMath — small arithmetic word problems          (GSM8K stand-in)
//
// Every sample carries a prompt ending in the answer cue and a reference
// answer, so fault-injection outcomes can be classified automatically
// exactly as in the paper (answer-containment => Masked, else SDC).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "data/vocab.hpp"

namespace ft2 {

enum class DatasetKind { kSynthQA, kSynthXQA, kSynthMath };

constexpr const char* dataset_name(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kSynthQA: return "synthqa";
    case DatasetKind::kSynthXQA: return "synthxqa";
    case DatasetKind::kSynthMath: return "synthmath";
  }
  return "unknown";
}

/// The paper's task-type split: QA datasets vs the math dataset.
constexpr bool is_math_dataset(DatasetKind kind) {
  return kind == DatasetKind::kSynthMath;
}

struct Sample {
  std::string prompt_text;         ///< ends with the answer cue ("answer :")
  std::string target_text;         ///< full answer sentence the model emits
  std::string reference;           ///< key answer span for containment check
  std::vector<int> prompt_tokens;  ///< encoded prompt
  std::vector<int> target_tokens;  ///< encoded target sentence + <eos>
};

/// The token sequence a model is prompted with: <bos>, then the sample's
/// prompt tokens.
std::vector<int> prompt_with_bos(const Sample& sample);

class DatasetGenerator {
 public:
  virtual ~DatasetGenerator() = default;

  virtual DatasetKind kind() const = 0;
  virtual Sample generate(Xoshiro256& rng) const = 0;

  std::string name() const { return dataset_name(kind()); }

  /// Deterministic batch: `n` samples from a fresh stream seeded by `seed`.
  std::vector<Sample> generate_many(std::size_t n, std::uint64_t seed) const;
};

std::unique_ptr<DatasetGenerator> make_generator(DatasetKind kind);

/// All dataset kinds, in paper order.
inline const std::vector<DatasetKind>& all_datasets() {
  static const std::vector<DatasetKind> kinds = {
      DatasetKind::kSynthQA, DatasetKind::kSynthXQA, DatasetKind::kSynthMath};
  return kinds;
}

}  // namespace ft2
