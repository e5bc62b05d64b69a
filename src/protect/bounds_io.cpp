#include "protect/bounds_io.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/check.hpp"

namespace ft2 {

LayerKind layer_kind_from_name(const std::string& name) {
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    if (name == layer_kind_name(kind)) return kind;
  }
  throw Error("unknown layer kind name: " + name);
}

void save_bounds(const std::string& path, const BoundStore& bounds) {
  std::ofstream os(path, std::ios::trunc);
  FT2_CHECK_MSG(os.good(), "cannot open bounds file for write: " << path);
  os << "ft2-bounds v1 " << bounds.n_blocks() << "\n";
  char lo_buf[64], hi_buf[64], ty_buf[64];
  for (std::size_t b = 0; b < bounds.n_blocks(); ++b) {
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      const LayerSite site{static_cast<int>(b), static_cast<LayerKind>(k)};
      const Bounds& bd = bounds.at(site);
      if (!bd.valid()) continue;
      std::snprintf(lo_buf, sizeof(lo_buf), "%a", static_cast<double>(bd.lo));
      std::snprintf(hi_buf, sizeof(hi_buf), "%a", static_cast<double>(bd.hi));
      std::snprintf(ty_buf, sizeof(ty_buf), "%a",
                    static_cast<double>(bd.typical));
      os << b << ' ' << layer_kind_name(site.kind) << ' ' << lo_buf << ' '
         << hi_buf << ' ' << ty_buf << '\n';
    }
  }
  FT2_CHECK_MSG(os.good(), "bounds write failed: " << path);
}

namespace {

/// A whole-token float: strtof must consume all of `token`, and NaN is
/// not a bound.
float parse_bound_float(const std::string& token, const std::string& where) {
  char* end = nullptr;
  const float value = std::strtof(token.c_str(), &end);
  FT2_CHECK_MSG(!token.empty() && end == token.c_str() + token.size() &&
                    !std::isnan(value),
                where << ": '" << token << "' is not a float");
  return value;
}

}  // namespace

BoundStore load_bounds(const std::string& path, const ModelConfig& config) {
  std::ifstream is(path);
  FT2_CHECK_MSG(is.good(), "cannot open bounds file: " << path);
  std::string line;
  std::getline(is, line);
  {
    std::istringstream header(line);
    std::string magic, version, n_str, extra;
    header >> magic >> version >> n_str;
    FT2_CHECK_MSG(magic == "ft2-bounds" && version == "v1" &&
                      !(header >> extra),
                  "bad bounds header in " << path);
    FT2_CHECK_MSG(n_str == std::to_string(config.n_blocks),
                  "bounds file has " << n_str << " blocks, model has "
                                     << config.n_blocks);
  }
  BoundStore bounds(config);
  for (std::size_t line_no = 2; std::getline(is, line); ++line_no) {
    const std::string where = path + " line " + std::to_string(line_no);
    std::istringstream fields(line);
    std::string block_str, kind_name, lo_str, hi_str, ty_str, extra;
    FT2_CHECK_MSG((fields >> block_str >> kind_name >> lo_str >> hi_str >>
                   ty_str) &&
                      !(fields >> extra),
                  where << ": want '<block> <kind> <lo> <hi> <typical>'");
    // strtoul alone would accept a sign; an overflow reads as ULONG_MAX.
    char* end = nullptr;
    const unsigned long block = std::strtoul(block_str.c_str(), &end, 10);
    FT2_CHECK_MSG(std::isdigit(static_cast<unsigned char>(block_str[0])) &&
                      *end == '\0' && block < config.n_blocks,
                  where << ": block '" << block_str << "' not in [0, "
                        << config.n_blocks << ")");
    LayerKind kind;
    try {
      kind = layer_kind_from_name(kind_name);
    } catch (const Error& e) {
      throw Error(where + ": " + e.what());
    }
    // Every entry loaded so far is valid, and a fresh store's are not.
    Bounds& bd = bounds.at({static_cast<int>(block), kind});
    FT2_CHECK_MSG(!bd.valid(), where << ": second entry for block " << block
                                     << " " << kind_name);
    bd.lo = parse_bound_float(lo_str, where);
    bd.hi = parse_bound_float(hi_str, where);
    bd.typical = parse_bound_float(ty_str, where);
    FT2_CHECK_MSG(bd.valid(), where << ": invalid bounds entry");
  }
  return bounds;
}

}  // namespace ft2
