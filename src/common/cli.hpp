// Tiny command-line argument parser for the ft2 CLI and tools.
//
// Supports `--key value`, `--key=value`, boolean `--flag`, and positional
// arguments. Unknown options throw, so typos fail loudly.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ft2 {

class ArgParser {
 public:
  /// `spec` declares known options: name -> takes_value. Example:
  ///   ArgParser args(argc, argv, {{"dataset", true}, {"protect", false}});
  ArgParser(int argc, const char* const* argv,
            std::map<std::string, bool> spec);

  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const { return values_.contains(name); }

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Numeric getters. A present value must parse in full, with nothing
  /// before or after the number, and be in range (get_size: a
  /// non-negative decimal integer; get_double: anything strtod accepts);
  /// otherwise they throw ft2::Error naming the option.
  std::size_t get_size(const std::string& name, std::size_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

 private:
  std::map<std::string, bool> spec_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace ft2
