// BoundStore (de)serialization.
//
// Text format, one line per valid site:
//   ft2-bounds v1 <n_blocks>
//   <block> <layer-kind-name> <lo-hex> <hi-hex> <typical-hex>
// Floats are stored as hexfloat so round trips are exact. Lets the CLI
// split offline profiling from campaign runs, and lets users ship bounds
// with deployed models.
#pragma once

#include <string>

#include "protect/bounds.hpp"

namespace ft2 {

void save_bounds(const std::string& path, const BoundStore& bounds);

/// Loads bounds saved by save_bounds. Every line after the header must be
/// one entry: a block below `config.n_blocks`, a layer-kind name and three
/// whole-token floats (no NaN) with lo <= hi, each site at most once, and
/// nothing after the last entry. Throws ft2::Error naming the line
/// otherwise, or on a bad header or a block-count mismatch with `config`.
BoundStore load_bounds(const std::string& path, const ModelConfig& config);

/// Parses a layer-kind name ("V_PROJ", ...). Throws on unknown names.
LayerKind layer_kind_from_name(const std::string& name);

}  // namespace ft2
