#include "protect/bounds_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

namespace ft2 {
namespace {

ModelConfig config2() {
  ModelConfig c;
  c.arch = ArchFamily::kLlama;
  c.vocab_size = 8;
  c.n_blocks = 2;
  return c;
}

std::string tmp(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(BoundsIo, RoundTripIsExact) {
  const ModelConfig c = config2();
  BoundStore bounds(c);
  bounds.at({0, LayerKind::kVProj}) = Bounds{-1.25f, 3.7182817f, 0.125f};
  bounds.at({1, LayerKind::kDownProj}) = Bounds{0.1f, 0.30000001f};
  bounds.at({1, LayerKind::kUpProj}) = Bounds{-65504.0f, 65504.0f};

  const std::string path = tmp("ft2_bounds_roundtrip.txt");
  save_bounds(path, bounds);
  const BoundStore loaded = load_bounds(path, c);

  for (std::size_t b = 0; b < c.n_blocks; ++b) {
    for (std::size_t k = 0; k < kLayerKindCount; ++k) {
      const LayerSite site{static_cast<int>(b), static_cast<LayerKind>(k)};
      EXPECT_EQ(loaded.at(site).valid(), bounds.at(site).valid());
      if (bounds.at(site).valid()) {
        EXPECT_EQ(loaded.at(site).lo, bounds.at(site).lo);
        EXPECT_EQ(loaded.at(site).hi, bounds.at(site).hi);
        EXPECT_EQ(loaded.at(site).typical, bounds.at(site).typical);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(BoundsIo, BlockCountMismatchThrows) {
  const ModelConfig c = config2();
  BoundStore bounds(c);
  bounds.at({0, LayerKind::kVProj}) = Bounds{0.0f, 1.0f};
  const std::string path = tmp("ft2_bounds_mismatch.txt");
  save_bounds(path, bounds);

  ModelConfig bigger = c;
  bigger.n_blocks = 4;
  EXPECT_THROW(load_bounds(path, bigger), Error);
  std::remove(path.c_str());
}

TEST(BoundsIo, RejectsGarbage) {
  const std::string path = tmp("ft2_bounds_garbage.txt");
  {
    std::ofstream os(path);
    os << "not a bounds file\n";
  }
  EXPECT_THROW(load_bounds(path, config2()), Error);
  std::remove(path.c_str());
  EXPECT_THROW(load_bounds("/nonexistent/bounds", config2()), Error);
}

TEST(BoundsIo, RejectsMalformedEntriesNamingTheLine) {
  // Each body follows a valid header and one valid entry, so a loader that
  // stops early or skips a bad line would return a partial store.
  const std::string good = "1 UP_PROJ -0x1p+0 0x1p+1 0x0p+0\n";
  const char* const bad_lines[] = {
      "0 V_PROJ abc def ghi",                    // not floats (read as 0)
      "x V_PROJ -0x1p+0 0x1p+0 0x0p+0",          // block not a number
      "0 V_PROJ -0x1p+0 0x1p+0",                 // line cut short
      "1 UP_PROJ -0x1p+0 0x1p+0 0x0p+0",         // site given twice
      "0 V_PROJ -0x1p+0 0x1p+0 nan",             // NaN typical
      "0 V_PROJ -0x1p+0 1.5x 0x0p+0",            // float with a tail
      "0 V_PROJ -0x1p+0 0x1p+0 0x0p+0 extra",    // trailing token
      "2 V_PROJ -0x1p+0 0x1p+0 0x0p+0",          // block out of range
      "0 NOT_A_LAYER -0x1p+0 0x1p+0 0x0p+0",     // unknown kind
      "",                                        // blank line
  };
  const std::string path = tmp("ft2_bounds_malformed.txt");
  for (const char* bad : bad_lines) {
    {
      std::ofstream os(path, std::ios::trunc);
      os << "ft2-bounds v1 2\n" << good << bad << "\n";
    }
    try {
      load_bounds(path, config2());
      ADD_FAILURE() << "accepted: '" << bad << "'";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  // Header problems: extra header tokens, a block count that is not the
  // model's.
  for (const char* header : {"ft2-bounds v1 2 x", "ft2-bounds v1 02"}) {
    {
      std::ofstream os(path, std::ios::trunc);
      os << header << "\n" << good;
    }
    EXPECT_THROW(load_bounds(path, config2()), Error) << header;
  }
  {
    std::ofstream os(path, std::ios::trunc);
    os << "ft2-bounds v1 2\n" << good;
  }
  EXPECT_TRUE(load_bounds(path, config2()).at({1, LayerKind::kUpProj}).valid());
  std::remove(path.c_str());
}

TEST(BoundsIo, LayerKindNamesRoundTrip) {
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    EXPECT_EQ(layer_kind_from_name(std::string(layer_kind_name(kind))), kind);
  }
  EXPECT_THROW(layer_kind_from_name("NOT_A_LAYER"), Error);
}

}  // namespace
}  // namespace ft2
