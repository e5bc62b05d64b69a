#include "common/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/check.hpp"

namespace ft2 {

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::map<std::string, bool> spec)
    : spec_(std::move(spec)) {
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto it = spec_.find(arg);
    FT2_CHECK_MSG(it != spec_.end(), "unknown option --" << arg);
    if (it->second) {  // takes a value
      if (!has_inline_value) {
        FT2_CHECK_MSG(i + 1 < argc, "option --" << arg << " needs a value");
        value = argv[++i];
      }
      values_[arg] = value;
    } else {
      FT2_CHECK_MSG(!has_inline_value, "option --" << arg
                                                   << " takes no value");
      values_[arg] = std::string("1");
    }
  }
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

namespace {

/// Rejects a value strtoull/strtod did not consume in full, or one they
/// flagged ERANGE.
void check_parsed(const std::string& name, const std::string& value,
                  const char* end, const char* what) {
  FT2_CHECK_MSG(end != value.c_str() && *end == '\0',
                "option --" << name << " wants " << what << ", got '" << value
                            << "'");
  FT2_CHECK_MSG(errno != ERANGE, "option --" << name << " value '" << value
                                             << "' is out of range");
}

/// Rejects an empty value and leading whitespace, which strtoull/strtod
/// would skip.
void check_not_blank(const std::string& name, const std::string& value,
                    const char* what) {
  FT2_CHECK_MSG(!value.empty() &&
                    !std::isspace(static_cast<unsigned char>(value[0])),
                "option --" << name << " wants " << what << ", got '" << value
                            << "'");
}

}  // namespace

std::size_t ArgParser::get_size(const std::string& name,
                                std::size_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  constexpr const char* kWhat = "a non-negative integer";
  check_not_blank(name, value, kWhat);
  // strtoull negates a leading '-' (so "-1" would read as 2^64 - 1).
  FT2_CHECK_MSG(value[0] != '-', "option --" << name << " wants " << kWhat
                                             << ", got '" << value << "'");
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
  check_parsed(name, value, end, kWhat);
  if constexpr (sizeof(std::size_t) < sizeof(parsed)) {
    FT2_CHECK_MSG(parsed <= std::numeric_limits<std::size_t>::max(),
                  "option --" << name << " value '" << value
                              << "' is out of range");
  }
  return static_cast<std::size_t>(parsed);
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  constexpr const char* kWhat = "a number";
  check_not_blank(name, value, kWhat);
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value.c_str(), &end);
  check_parsed(name, value, end, kWhat);
  return parsed;
}

}  // namespace ft2
