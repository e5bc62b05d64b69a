#include "nn/checkpoint.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace ft2 {
namespace {

constexpr char kMagic[4] = {'F', 'T', '2', 'M'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T value{};
  is.read(reinterpret_cast<char*>(&value), sizeof(T));
  FT2_CHECK_MSG(is.good(), "checkpoint truncated");
  return value;
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto len = read_pod<std::uint32_t>(is);
  FT2_CHECK_MSG(len < (1u << 20), "checkpoint string too large");
  std::string s(len, '\0');
  is.read(s.data(), static_cast<std::streamsize>(len));
  FT2_CHECK_MSG(is.good(), "checkpoint truncated");
  return s;
}

void write_config(std::ostream& os, const ModelConfig& c) {
  write_string(os, c.name);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(c.arch));
  write_pod<std::uint64_t>(os, c.vocab_size);
  write_pod<std::uint64_t>(os, c.d_model);
  write_pod<std::uint64_t>(os, c.n_heads);
  write_pod<std::uint64_t>(os, c.n_blocks);
  write_pod<std::uint64_t>(os, c.d_ff);
  write_pod<std::uint64_t>(os, c.max_seq);
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(c.activation));
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(c.norm));
  write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(c.position));
  write_pod<std::uint8_t>(os, c.parallel_block ? 1 : 0);
  write_pod<std::uint8_t>(os, c.linear_bias ? 1 : 0);
  write_pod<std::uint8_t>(os, c.qkv_bias ? 1 : 0);
  write_pod<float>(os, c.norm_eps);
  write_pod<float>(os, c.rope_theta);
}

ModelConfig read_config(std::istream& is) {
  ModelConfig c;
  c.name = read_string(is);
  c.arch = static_cast<ArchFamily>(read_pod<std::uint32_t>(is));
  c.vocab_size = read_pod<std::uint64_t>(is);
  c.d_model = read_pod<std::uint64_t>(is);
  c.n_heads = read_pod<std::uint64_t>(is);
  c.n_blocks = read_pod<std::uint64_t>(is);
  c.d_ff = read_pod<std::uint64_t>(is);
  c.max_seq = read_pod<std::uint64_t>(is);
  c.activation = static_cast<Activation>(read_pod<std::uint32_t>(is));
  c.norm = static_cast<NormKind>(read_pod<std::uint32_t>(is));
  c.position = static_cast<PositionKind>(read_pod<std::uint32_t>(is));
  c.parallel_block = read_pod<std::uint8_t>(is) != 0;
  c.linear_bias = read_pod<std::uint8_t>(is) != 0;
  c.qkv_bias = read_pod<std::uint8_t>(is) != 0;
  c.norm_eps = read_pod<float>(is);
  c.rope_theta = read_pod<float>(is);
  return c;
}

// Generous ceilings for this project's micro models. Their purpose is to
// turn a corrupt or layout-incompatible file into a clean ft2::Error
// instead of a multi-gigabyte allocation (std::bad_alloc) inside
// init_weights when a stale checkpoint deserialises into garbage dims.
constexpr std::uint64_t kMaxDim = 1u << 20;

void validate_config(const ModelConfig& c, const std::string& path) {
  auto in_range = [](std::uint64_t v) { return v > 0 && v <= kMaxDim; };
  FT2_CHECK_MSG(in_range(c.vocab_size) && in_range(c.d_model) &&
                    in_range(c.n_heads) && in_range(c.n_blocks) &&
                    in_range(c.d_ff) && in_range(c.max_seq),
                "implausible dimensions in checkpoint " << path
                    << " (corrupt or incompatible file): vocab="
                    << c.vocab_size << " d_model=" << c.d_model
                    << " heads=" << c.n_heads << " blocks=" << c.n_blocks
                    << " d_ff=" << c.d_ff << " max_seq=" << c.max_seq);
  FT2_CHECK_MSG(c.n_heads <= c.d_model && c.d_model % c.n_heads == 0,
                "checkpoint " << path << ": d_model " << c.d_model
                              << " not divisible by n_heads " << c.n_heads);
  FT2_CHECK_MSG(static_cast<std::uint32_t>(c.arch) <=
                        static_cast<std::uint32_t>(ArchFamily::kLlama) &&
                    static_cast<std::uint32_t>(c.activation) <=
                        static_cast<std::uint32_t>(Activation::kSilu) &&
                    static_cast<std::uint32_t>(c.norm) <=
                        static_cast<std::uint32_t>(NormKind::kRmsNorm) &&
                    static_cast<std::uint32_t>(c.position) <=
                        static_cast<std::uint32_t>(PositionKind::kRotary),
                "checkpoint " << path << ": enum field out of range");
}

std::string dims_string(const std::vector<std::size_t>& dims) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < dims.size(); ++i) {
    os << (i ? ", " : "") << dims[i];
  }
  os << "]";
  return os.str();
}

}  // namespace

void save_checkpoint(const std::string& path, const ModelConfig& config,
                     const ModelWeights& weights) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  FT2_CHECK_MSG(os.good(), "cannot open checkpoint for write: " << path);
  os.write(kMagic, 4);
  write_pod<std::uint32_t>(os, kVersion);
  write_config(os, config);

  const auto params = weights.named_parameters();
  write_pod<std::uint64_t>(os, params.size());
  for (const auto& [name, tensor] : params) {
    write_string(os, name);
    write_pod<std::uint32_t>(os, static_cast<std::uint32_t>(tensor->rank()));
    for (std::size_t d : tensor->shape()) write_pod<std::uint64_t>(os, d);
    os.write(reinterpret_cast<const char*>(tensor->data()),
             static_cast<std::streamsize>(tensor->numel() * sizeof(float)));
  }
  FT2_CHECK_MSG(os.good(), "checkpoint write failed: " << path);
}

void load_checkpoint(const std::string& path, ModelConfig& config,
                     ModelWeights& weights) {
  std::ifstream is(path, std::ios::binary);
  FT2_CHECK_MSG(is.good(), "cannot open checkpoint: " << path);
  char magic[4];
  is.read(magic, 4);
  FT2_CHECK_MSG(is.good() && std::equal(magic, magic + 4, kMagic),
                "bad checkpoint magic in " << path);
  const auto version = read_pod<std::uint32_t>(is);
  FT2_CHECK_MSG(version == kVersion, "unsupported checkpoint version "
                                         << version);
  config = read_config(is);
  validate_config(config, path);
  const auto n = read_pod<std::uint64_t>(is);

  // The data alone takes 4 bytes per parameter: a config that declares
  // more than the file holds is corrupt, and is refused before anything
  // is allocated for it.
  const std::streamoff here = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  is.seekg(here);
  const auto left =
      static_cast<std::size_t>(here >= 0 && end > here ? end - here : 0);
  FT2_CHECK_MSG(parameter_count(config) <= left / sizeof(float),
                "checkpoint " << path << " declares "
                              << parameter_count(config)
                              << " parameters but holds " << left
                              << " bytes of data");

  // Allocate weight storage of the right shapes, then overwrite by name.
  Xoshiro256 rng(0);
  weights = init_weights(config, rng);
  auto params = weights.named_parameters();
  FT2_CHECK_MSG(n == params.size(), "checkpoint has " << n
                                                      << " params, model has "
                                                      << params.size());
  std::vector<bool> seen(params.size(), false);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string name = read_string(is);
    const auto rank = read_pod<std::uint32_t>(is);
    FT2_CHECK_MSG(rank >= 1 && rank <= 4,
                  "implausible rank " << rank << " for " << name << " in "
                                      << path);
    std::vector<std::size_t> shape(rank);
    for (auto& d : shape) {
      d = read_pod<std::uint64_t>(is);
      FT2_CHECK_MSG(d > 0 && d <= kMaxDim, "implausible dim " << d << " for "
                                               << name << " in " << path);
    }

    std::size_t p = 0;
    while (p < params.size() && params[p].first != name) ++p;
    FT2_CHECK_MSG(p < params.size(), "unknown parameter in checkpoint: "
                                         << name);
    // n == params.size() and no repeats: every parameter appears once.
    FT2_CHECK_MSG(!seen[p], "parameter " << name << " appears twice in "
                                         << path);
    seen[p] = true;
    Tensor* target = params[p].second;
    FT2_CHECK_MSG(target->shape() == shape,
                  "shape mismatch for " << name << ": checkpoint "
                                        << dims_string(shape) << " vs model "
                                        << target->shape_string());
    is.read(reinterpret_cast<char*>(target->data()),
            static_cast<std::streamsize>(target->numel() * sizeof(float)));
    FT2_CHECK_MSG(is.good(), "checkpoint truncated while reading " << name);
  }
}

bool checkpoint_exists(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return false;
  char magic[4];
  is.read(magic, 4);
  return is.good() && std::equal(magic, magic + 4, kMagic);
}

}  // namespace ft2
