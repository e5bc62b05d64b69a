#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/check.hpp"

namespace ft2 {
namespace {

ArgParser parse(std::vector<const char*> argv,
                std::map<std::string, bool> spec) {
  return ArgParser(static_cast<int>(argv.size()), argv.data(),
                   std::move(spec));
}

TEST(Cli, PositionalAndOptions) {
  const auto args = parse({"opt-sm", "--dataset", "synthqa", "--protect"},
                          {{"dataset", true}, {"protect", false}});
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "opt-sm");
  EXPECT_EQ(args.get("dataset", "x"), "synthqa");
  EXPECT_TRUE(args.has("protect"));
  EXPECT_FALSE(args.has("missing"));
}

TEST(Cli, EqualsSyntax) {
  const auto args = parse({"--trials=250", "--rate=0.5"},
                          {{"trials", true}, {"rate", true}});
  EXPECT_EQ(args.get_size("trials", 0), 250u);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), 0.5);
}

TEST(Cli, DefaultsWhenAbsent) {
  const auto args = parse({}, {{"trials", true}});
  EXPECT_EQ(args.get_size("trials", 7), 7u);
  EXPECT_EQ(args.get("trials", "d"), "d");
  EXPECT_DOUBLE_EQ(args.get_double("trials", 1.5), 1.5);
}

TEST(Cli, UnknownOptionThrows) {
  EXPECT_THROW(parse({"--bogus"}, {{"known", false}}), Error);
}

TEST(Cli, MissingValueThrows) {
  EXPECT_THROW(parse({"--dataset"}, {{"dataset", true}}), Error);
}

TEST(Cli, FlagWithValueThrows) {
  EXPECT_THROW(parse({"--protect=1"}, {{"protect", false}}), Error);
}

/// Runs `get` and requires an ft2::Error whose message names `option`.
template <class Get>
void expect_rejected(const Get& get, const std::string& option) {
  try {
    get();
    ADD_FAILURE() << "expected ft2::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--" + option), std::string::npos)
        << e.what();
  }
}

TEST(Cli, GarbageNumbersThrowNamingTheOption) {
  const std::map<std::string, bool> spec{{"trials", true}, {"rate", true}};
  // strtoull negates "-1" to 2^64 - 1; "abc" used to read as 0.
  for (const char* bad : {"-1", "-0", "abc", "", " 5", "5x", "1.5", "0x10",
                          "99999999999999999999999"}) {
    SCOPED_TRACE(bad);
    const std::string arg = std::string("--trials=") + bad;
    const auto args = parse({arg.c_str()}, spec);
    expect_rejected([&] { args.get_size("trials", 0); }, "trials");
  }
  for (const char* bad : {"abc", "", " 0.5", "0.5x", "1e999", "--1"}) {
    SCOPED_TRACE(bad);
    const std::string arg = std::string("--rate=") + bad;
    const auto args = parse({arg.c_str()}, spec);
    expect_rejected([&] { args.get_double("rate", 0.0); }, "rate");
  }
}

TEST(Cli, NumbersAtTheEdgesParse) {
  const auto args = parse({"--trials=0", "--big=18446744073709551615",
                           "--rate=-2.5e-3"},
                          {{"trials", true}, {"big", true}, {"rate", true}});
  EXPECT_EQ(args.get_size("trials", 7), 0u);
  EXPECT_EQ(args.get_size("big", 0), std::numeric_limits<std::size_t>::max());
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0), -2.5e-3);
}

TEST(Cli, MultiplePositionals) {
  const auto args = parse({"a", "--k", "v", "b"}, {{"k", true}});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a");
  EXPECT_EQ(args.positional()[1], "b");
}

}  // namespace
}  // namespace ft2
