#include "data/dataset.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ft2 {
namespace {

const std::vector<std::string>& name_pool() {
  static const std::vector<std::string> v = {
      "alice", "bob",   "carol", "dave",  "erin",  "frank", "grace", "heidi",
      "ivan",  "judy",  "karl",  "laura", "mike",  "nina",  "oscar", "peggy",
      "quinn", "ruth",  "sam",   "tina",  "ursula", "victor", "wendy", "tom"};
  return v;
}

const std::vector<std::string>& city_pool() {
  static const std::vector<std::string> v = {
      "paris",  "london", "tokyo",  "cairo",  "lima",   "oslo",
      "madrid", "berlin", "sydney", "moscow", "rome",   "dublin",
      "athens", "vienna", "quito",  "accra"};
  return v;
}

const std::vector<std::string>& object_pool() {
  static const std::vector<std::string> v = {
      "apples",  "books",  "coins",  "pens",    "marbles", "stamps",
      "cards",   "shells", "stones", "tickets", "keys",    "rings",
      "plums",   "mangos", "melons", "grapes"};
  return v;
}

const std::vector<std::string>& hobby_pool() {
  static const std::vector<std::string> v = {
      "music", "chess", "tennis", "painting", "cooking", "hiking",
      "soccer", "reading"};
  return v;
}

template <typename T>
const T& pick(const std::vector<T>& pool, Xoshiro256& rng) {
  return pool[rng.uniform(pool.size())];
}

/// Picks `n` distinct indices from [0, pool_size).
std::vector<std::size_t> pick_distinct(std::size_t pool_size, std::size_t n,
                                       Xoshiro256& rng) {
  FT2_ASSERT(n <= pool_size);
  std::vector<std::size_t> idx(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) idx[i] = i;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = i + rng.uniform(pool_size - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(n);
  return idx;
}

Sample finish_sample(std::string prompt, std::string target,
                     std::string reference) {
  const Vocab& vocab = Vocab::shared();
  Sample s;
  s.prompt_text = std::move(prompt);
  s.target_text = std::move(target);
  s.reference = std::move(reference);
  s.prompt_tokens = vocab.encode(s.prompt_text);
  s.target_tokens = vocab.encode(s.target_text);
  s.target_tokens.push_back(Vocab::kEos);
  for (int t : s.prompt_tokens) {
    FT2_CHECK_MSG(t != Vocab::kUnk, "generator emitted OOV word in: "
                                        << s.prompt_text);
  }
  for (int t : s.target_tokens) {
    FT2_CHECK_MSG(t != Vocab::kUnk, "generator emitted OOV word in: "
                                        << s.target_text);
  }
  return s;
}

/// Shared fact structure for both QA surface languages.
struct Facts {
  std::string who_lives, city;
  std::string who_has, object;
  int count = 0;
  std::string who_likes, hobby;
  int question = 0;  // 0 = where, 1 = how many, 2 = what likes
};

Facts make_facts(Xoshiro256& rng) {
  Facts f;
  const auto names = pick_distinct(name_pool().size(), 3, rng);
  f.who_lives = name_pool()[names[0]];
  f.who_has = name_pool()[names[1]];
  f.who_likes = name_pool()[names[2]];
  f.city = pick(city_pool(), rng);
  f.object = pick(object_pool(), rng);
  f.count = static_cast<int>(2 + rng.uniform(28));  // 2..29
  f.hobby = pick(hobby_pool(), rng);
  f.question = static_cast<int>(rng.uniform(3));
  return f;
}

class SynthQaGenerator : public DatasetGenerator {
 public:
  DatasetKind kind() const override { return DatasetKind::kSynthQA; }

  Sample generate(Xoshiro256& rng) const override {
    const Facts f = make_facts(rng);
    std::vector<std::string> facts = {
        f.who_lives + " lives in " + f.city + " .",
        f.who_has + " has " + std::to_string(f.count) + " " + f.object + " .",
        f.who_likes + " likes " + f.hobby + " ."};
    // Shuffle fact order so position carries no signal.
    for (std::size_t i = facts.size(); i > 1; --i) {
      std::swap(facts[i - 1], facts[rng.uniform(i)]);
    }
    std::string prompt = "context :";
    for (const auto& fact : facts) prompt += " " + fact;
    // Multi-token answer sentences put the decisive answer token several
    // generation steps after the first token, so faults during the
    // "following tokens" phase can actually cause SDCs.
    std::string target;
    std::string reference;
    switch (f.question) {
      case 0:
        prompt += " question : where does " + f.who_lives + " live ?";
        target = f.who_lives + " lives in " + f.city;
        reference = f.city;
        break;
      case 1:
        prompt += " question : how many " + f.object + " does " + f.who_has +
                  " have ?";
        target = f.who_has + " has " + std::to_string(f.count) + " " + f.object;
        reference = std::to_string(f.count);
        break;
      default:
        prompt += " question : what does " + f.who_likes + " like ?";
        target = f.who_likes + " likes " + f.hobby;
        reference = f.hobby;
        break;
    }
    prompt += " answer :";
    return finish_sample(std::move(prompt), std::move(target),
                         std::move(reference));
  }
};

class SynthXqaGenerator : public DatasetGenerator {
 public:
  DatasetKind kind() const override { return DatasetKind::kSynthXQA; }

  Sample generate(Xoshiro256& rng) const override {
    const Facts f = make_facts(rng);
    std::vector<std::string> facts = {
        f.who_lives + " habite a " + f.city + " .",
        f.who_has + " possede " + std::to_string(f.count) + " " + f.object +
            " .",
        f.who_likes + " aime " + f.hobby + " ."};
    for (std::size_t i = facts.size(); i > 1; --i) {
      std::swap(facts[i - 1], facts[rng.uniform(i)]);
    }
    std::string prompt = "contexte :";
    for (const auto& fact : facts) prompt += " " + fact;
    std::string target;
    std::string reference;
    switch (f.question) {
      case 0:
        prompt += " demande : ou habite " + f.who_lives + " ?";
        target = f.who_lives + " habite a " + f.city;
        reference = f.city;
        break;
      case 1:
        prompt += " demande : combien de " + f.object + " possede " +
                  f.who_has + " ?";
        target = f.who_has + " possede " + std::to_string(f.count) + " " +
                 f.object;
        reference = std::to_string(f.count);
        break;
      default:
        prompt += " demande : quoi aime " + f.who_likes + " ?";
        target = f.who_likes + " aime " + f.hobby;
        reference = f.hobby;
        break;
    }
    prompt += " reponse :";
    return finish_sample(std::move(prompt), std::move(target),
                         std::move(reference));
  }
};

class SynthMathGenerator : public DatasetGenerator {
 public:
  DatasetKind kind() const override { return DatasetKind::kSynthMath; }

  Sample generate(Xoshiro256& rng) const override {
    const std::string& who = pick(name_pool(), rng);
    const std::string& object = pick(object_pool(), rng);
    int value = static_cast<int>(2 + rng.uniform(19));  // 2..20
    std::string prompt =
        "question : " + who + " has " + std::to_string(value) + " " + object +
        " .";
    const std::size_t steps = 1 + rng.uniform(2);  // 1 or 2 operations
    for (std::size_t s = 0; s < steps; ++s) {
      const int delta = static_cast<int>(1 + rng.uniform(9));  // 1..9
      // Choose an op that keeps the running value in [0, 29].
      bool plus = rng.uniform(2) == 0;
      if (value + delta > 29) plus = false;
      if (value - delta < 0) plus = true;
      if (plus) {
        prompt += (rng.uniform(2) == 0)
                      ? " he buys " + std::to_string(delta) + " more ."
                      : " he finds " + std::to_string(delta) + " more .";
        value += delta;
      } else {
        prompt += (rng.uniform(2) == 0)
                      ? " he loses " + std::to_string(delta) + " ."
                      : " he gives away " + std::to_string(delta) + " .";
        value -= delta;
      }
    }
    prompt += " how many " + object + " does " + who + " have now ? answer :";
    std::string target =
        who + " has " + std::to_string(value) + " " + object + " . the total is " +
        std::to_string(value);
    return finish_sample(std::move(prompt), std::move(target),
                         std::to_string(value));
  }
};

}  // namespace

std::vector<int> prompt_with_bos(const Sample& sample) {
  std::vector<int> prompt;
  prompt.reserve(sample.prompt_tokens.size() + 1);
  prompt.push_back(Vocab::kBos);
  prompt.insert(prompt.end(), sample.prompt_tokens.begin(),
                sample.prompt_tokens.end());
  return prompt;
}

std::vector<Sample> DatasetGenerator::generate_many(std::size_t n,
                                                    std::uint64_t seed) const {
  Xoshiro256 rng(seed);
  std::vector<Sample> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(generate(rng));
  return out;
}

std::unique_ptr<DatasetGenerator> make_generator(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kSynthQA:
      return std::make_unique<SynthQaGenerator>();
    case DatasetKind::kSynthXQA:
      return std::make_unique<SynthXqaGenerator>();
    case DatasetKind::kSynthMath:
      return std::make_unique<SynthMathGenerator>();
  }
  throw Error("unknown dataset kind");
}

}  // namespace ft2
