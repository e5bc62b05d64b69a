#include "nn/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "nn/model.hpp"

namespace ft2 {
namespace {

ModelConfig small_config() {
  ModelConfig c;
  c.name = "ckpt-test";
  c.arch = ArchFamily::kLlama;
  c.vocab_size = 19;
  c.d_model = 8;
  c.n_heads = 2;
  c.n_blocks = 2;
  c.d_ff = 12;
  c.max_seq = 16;
  c.norm = NormKind::kRmsNorm;
  c.position = PositionKind::kRotary;
  c.activation = Activation::kSilu;
  c.linear_bias = false;
  c.qkv_bias = true;
  return c;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Byte offset of the first occurrence of `needle` in the file at `path`.
std::size_t find_bytes(const std::string& path, const std::string& needle) {
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  const std::size_t at = bytes.find(needle);
  EXPECT_NE(at, std::string::npos) << needle;
  return at;
}

/// Overwrites bytes of the file at `path` in place.
void patch_bytes(const std::string& path, std::size_t offset,
                 const void* data, std::size_t size) {
  std::fstream fs(path, std::ios::binary | std::ios::in | std::ios::out);
  fs.seekp(static_cast<std::streamoff>(offset));
  fs.write(static_cast<const char*>(data), static_cast<std::streamsize>(size));
  ASSERT_TRUE(fs.good());
}

void expect_load_throws(const std::string& path) {
  ModelConfig c;
  ModelWeights w;
  EXPECT_THROW(load_checkpoint(path, c, w), Error);
}

TEST(Checkpoint, RoundTripPreservesEverything) {
  const ModelConfig config = small_config();
  Xoshiro256 rng(3);
  ModelWeights weights = init_weights(config, rng);
  const std::string path = temp_path("ft2_ckpt_roundtrip.bin");

  save_checkpoint(path, config, weights);
  ASSERT_TRUE(checkpoint_exists(path));

  ModelConfig loaded_config;
  ModelWeights loaded;
  load_checkpoint(path, loaded_config, loaded);

  EXPECT_EQ(loaded_config.name, config.name);
  EXPECT_EQ(loaded_config.vocab_size, config.vocab_size);
  EXPECT_EQ(loaded_config.d_model, config.d_model);
  EXPECT_EQ(loaded_config.qkv_bias, config.qkv_bias);
  EXPECT_EQ(static_cast<int>(loaded_config.arch),
            static_cast<int>(config.arch));

  const auto orig = weights.named_parameters();
  const auto got = loaded.named_parameters();
  ASSERT_EQ(orig.size(), got.size());
  for (std::size_t i = 0; i < orig.size(); ++i) {
    EXPECT_EQ(orig[i].first, got[i].first);
    ASSERT_EQ(orig[i].second->numel(), got[i].second->numel());
    for (std::size_t j = 0; j < orig[i].second->numel(); ++j) {
      EXPECT_EQ((*orig[i].second)[j], (*got[i].second)[j]);
    }
  }
  std::remove(path.c_str());
}

TEST(Checkpoint, LoadedModelGeneratesIdentically) {
  const ModelConfig config = small_config();
  Xoshiro256 rng(11);
  TransformerLM model(config, init_weights(config, rng));
  const std::string path = temp_path("ft2_ckpt_gen.bin");
  save_checkpoint(path, model.config(), model.export_weights());

  ModelConfig c2;
  ModelWeights w2;
  load_checkpoint(path, c2, w2);
  TransformerLM model2(c2, std::move(w2));

  InferenceSession s1(model), s2(model2);
  GenerateOptions opts;
  opts.max_new_tokens = 10;
  const std::vector<int> prompt = {1, 4, 2};
  EXPECT_EQ(s1.generate(prompt, opts).tokens, s2.generate(prompt, opts).tokens);
  std::remove(path.c_str());
}

TEST(Checkpoint, MissingFileThrows) {
  ModelConfig c;
  ModelWeights w;
  EXPECT_THROW(load_checkpoint("/nonexistent/nowhere.bin", c, w), Error);
  EXPECT_FALSE(checkpoint_exists("/nonexistent/nowhere.bin"));
}

TEST(Checkpoint, BadMagicRejected) {
  const std::string path = temp_path("ft2_ckpt_bad.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOPE-not-a-checkpoint";
  }
  EXPECT_FALSE(checkpoint_exists(path));
  ModelConfig c;
  ModelWeights w;
  EXPECT_THROW(load_checkpoint(path, c, w), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, TruncatedFileThrows) {
  const ModelConfig config = small_config();
  Xoshiro256 rng(3);
  ModelWeights weights = init_weights(config, rng);
  const std::string path = temp_path("ft2_ckpt_trunc.bin");
  save_checkpoint(path, config, weights);

  // Truncate to half size.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  ModelConfig c;
  ModelWeights w;
  EXPECT_THROW(load_checkpoint(path, c, w), Error);
  std::remove(path.c_str());
}

TEST(Checkpoint, DuplicateParameterNameRejected) {
  // "block0.k.w" renamed to "block0.q.w" (same length, same shape): the
  // count still matches, but q appears twice and k not at all.
  const ModelConfig config = small_config();
  Xoshiro256 rng(3);
  const std::string path = temp_path("ft2_ckpt_dup.bin");
  save_checkpoint(path, config, init_weights(config, rng));
  const std::string q = "block0.q.w";
  patch_bytes(path, find_bytes(path, "block0.k.w"), q.data(), q.size());
  expect_load_throws(path);
  std::remove(path.c_str());
}

TEST(Checkpoint, HugeDeclaredShapeRejectedWithoutAllocating) {
  // tok_emb declared as 2^20 x 2^20 (4 TiB): a shape mismatch that must be
  // reported from the dims alone.
  const ModelConfig config = small_config();
  Xoshiro256 rng(3);
  const std::string path = temp_path("ft2_ckpt_huge_shape.bin");
  save_checkpoint(path, config, init_weights(config, rng));
  const std::uint64_t dims[2] = {1u << 20, 1u << 20};
  // name, then its u32 rank, then the dims.
  patch_bytes(path, find_bytes(path, "tok_emb") + 7 + 4, dims, sizeof(dims));
  expect_load_throws(path);
  std::remove(path.c_str());
}

TEST(Checkpoint, ConfigLargerThanTheFileRejectedBeforeAllocating) {
  // vocab_size and d_model of 2^20 each pass the per-dimension cap, but
  // declare ~2^41 parameters in a file of a few KiB.
  const ModelConfig config = small_config();
  Xoshiro256 rng(3);
  const std::string path = temp_path("ft2_ckpt_huge_config.bin");
  save_checkpoint(path, config, init_weights(config, rng));
  // magic, version, the name string (u32 length + bytes), the u32 arch,
  // then the u64 vocab_size and d_model.
  const std::size_t vocab_at = 4 + 4 + 4 + config.name.size() + 4;
  const std::uint64_t dims[2] = {1u << 20, 1u << 20};
  patch_bytes(path, vocab_at, dims, sizeof(dims));
  expect_load_throws(path);
  std::remove(path.c_str());
}

TEST(Checkpoint, ExportRoundTripKeepsDigestAndTokens) {
  // The model's tiles unpack to the weights it was built from, so shard
  // manifests keep their digest, and save -> load -> rebuild generates the
  // same tokens.
  for (const ArchFamily arch :
       {ArchFamily::kOpt, ArchFamily::kGptj, ArchFamily::kLlama}) {
    SCOPED_TRACE(static_cast<int>(arch));
    ModelConfig config = small_config();
    config.arch = arch;
    if (arch != ArchFamily::kLlama) {
      config.norm = NormKind::kLayerNorm;
      config.activation = Activation::kGelu;
      config.linear_bias = true;
      config.qkv_bias = false;
      config.position = arch == ArchFamily::kOpt ? PositionKind::kLearned
                                                 : PositionKind::kRotary;
      config.parallel_block = arch == ArchFamily::kGptj;
    }
    Xoshiro256 rng(29);
    const ModelWeights weights = init_weights(config, rng);
    const std::string digest = weights_digest_hex(weights);
    const TransformerLM model(config, weights);
    EXPECT_EQ(weights_digest_hex(model.export_weights()), digest);

    const std::string path = temp_path("ft2_ckpt_export.bin");
    save_checkpoint(path, model.config(), model.export_weights());
    ModelConfig loaded_config;
    ModelWeights loaded;
    load_checkpoint(path, loaded_config, loaded);
    std::remove(path.c_str());
    EXPECT_EQ(weights_digest_hex(loaded), digest);
    const TransformerLM rebuilt(loaded_config, std::move(loaded));
    EXPECT_EQ(weights_digest_hex(rebuilt.export_weights()), digest);

    GenerateOptions opts;
    opts.max_new_tokens = 10;
    opts.eos_token = -1;
    const std::vector<int> prompt = {1, 4, 2, 7};
    InferenceSession a(model), b(rebuilt);
    EXPECT_EQ(a.generate(prompt, opts).tokens, b.generate(prompt, opts).tokens);
  }
}

TEST(Checkpoint, ParameterCountMatchesInitWeights) {
  for (const ArchFamily arch :
       {ArchFamily::kOpt, ArchFamily::kGptj, ArchFamily::kLlama}) {
    for (const bool bias : {false, true}) {
      for (const bool parallel : {false, true}) {
        ModelConfig config = small_config();
        config.arch = arch;
        config.linear_bias = bias;
        config.qkv_bias = !bias;
        config.parallel_block = parallel;
        config.norm = bias ? NormKind::kLayerNorm : NormKind::kRmsNorm;
        config.position = parallel ? PositionKind::kLearned
                                   : PositionKind::kRotary;
        Xoshiro256 rng(1);
        EXPECT_EQ(parameter_count(config),
                  init_weights(config, rng).parameter_count())
            << static_cast<int>(arch) << " bias=" << bias
            << " parallel=" << parallel;
      }
    }
  }
}

}  // namespace
}  // namespace ft2
