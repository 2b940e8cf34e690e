#include "common/args.hpp"

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/textio.hpp"

namespace anadex {
namespace {

ArgParser parse(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(Args, EmptyCommandLine) {
  const auto args = parse({});
  EXPECT_TRUE(args.positionals().empty());
  EXPECT_FALSE(args.has("anything"));
}

TEST(Args, PositionalsInOrder) {
  const auto args = parse({"explore", "extra"});
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "explore");
  EXPECT_EQ(args.positionals()[1], "extra");
}

TEST(Args, OptionWithValue) {
  const auto args = parse({"--algo", "sacga"});
  EXPECT_TRUE(args.has("algo"));
  EXPECT_EQ(args.get("algo", "x"), "sacga");
}

TEST(Args, MissingOptionFallsBack) {
  const auto args = parse({});
  EXPECT_EQ(args.get("algo", "default"), "default");
  EXPECT_EQ(args.get_count("n", 42), 42u);
  EXPECT_EQ(args.get_double("x", 2.5), 2.5);
}

TEST(Args, IntegerParsing) {
  // get_count reads counts and seeds: the full unsigned 64-bit range, so a
  // coordinator's std::to_string(seed) reaches its shard workers unchanged.
  const auto args = parse({"--n", "123", "--zero", "0", "--max", "18446744073709551615"});
  EXPECT_EQ(args.get_count("n", 0), 123u);
  EXPECT_EQ(args.get_count("zero", 7), 0u);
  EXPECT_EQ(args.get_count("max", 0), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(args.get_count("missing", 42), 42u);
}

TEST(Args, IntegerRejectsGarbage) {
  // `--generations -1` used to wrap to 2^64 - 1 and run until killed, and
  // `--population -4` to a 2^64 - 4 allocation.
  for (const char* bad :
       {"12x", "-1", "-4", "3abc", "+5", " 5", "1e3", "18446744073709551616"}) {
    const auto args = parse({"--n", bad});
    EXPECT_THROW(args.get_count("n", 0), PreconditionError) << bad;
  }
  EXPECT_THROW(parse({"--n"}).get_count("n", 0), PreconditionError);  // no value
}

TEST(Args, RejectionNamesTheOption) {
  const auto args = parse({"--generations", "-1"});
  try {
    args.get_count("generations", 0);
    FAIL() << "a negative count was accepted";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("option '--generations'"), std::string::npos)
        << error.what();
  }
}

TEST(Args, DoubleParsing) {
  const auto args = parse({"--x", "2.5e-3"});
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 2.5e-3);
}

TEST(Args, DoubleRejectsGarbage) {
  for (const char* bad : {"abc", "2.5x"}) {
    const auto args = parse({"--x", bad});
    EXPECT_THROW(args.get_double("x", 0.0), PreconditionError) << bad;
  }
}

TEST(Args, DoubleReadsTheExactFormBackBitForBit) {
  // A process shard's coordinator passes --eval-deadline to its workers as
  // textio::exact, a hex float ("0x1.4p+2" for 5 s).
  for (const double x : {5.0, 0.1, 2.75, 1e-3}) {
    const std::string text = textio::exact(x);
    const auto args = parse({"--eval-deadline", text.c_str()});
    EXPECT_EQ(args.get_double("eval-deadline", 0.0), x) << text;
  }
}

TEST(Args, BareFlagDetected) {
  const auto args = parse({"--verbose", "--n", "3"});
  EXPECT_TRUE(args.get_flag("verbose"));
  EXPECT_FALSE(args.get_flag("quiet"));
}

TEST(Args, FlagWithValueRejectedByGetFlag) {
  const auto args = parse({"--verbose", "yes"});
  EXPECT_THROW(args.get_flag("verbose"), PreconditionError);
}

TEST(Args, ValueGetterRejectsBareFlag) {
  const auto args = parse({"--csv"});
  EXPECT_THROW(args.get("csv", ""), PreconditionError);
}

TEST(Args, FlagFollowedByOptionParsesAsFlag) {
  const auto args = parse({"--history", "--seed", "9"});
  EXPECT_TRUE(args.get_flag("history"));
  EXPECT_EQ(args.get_count("seed", 0), 9u);
}

TEST(Args, DuplicateOptionRejected) {
  std::vector<const char*> argv{"prog", "--n", "1", "--n", "2"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()), PreconditionError);
}

TEST(Args, EmptyOptionNameRejected) {
  std::vector<const char*> argv{"prog", "--"};
  EXPECT_THROW(ArgParser(static_cast<int>(argv.size()), argv.data()), PreconditionError);
}

TEST(Args, UnusedOptionsReported) {
  const auto args = parse({"--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_count("used", 0), 1u);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, NegativeNumberIsValueNotOption) {
  const auto args = parse({"--delta", "-3.5"});
  EXPECT_DOUBLE_EQ(args.get_double("delta", 0.0), -3.5);
}

}  // namespace
}  // namespace anadex
