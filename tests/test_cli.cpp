#include <gtest/gtest.h>

#include "common/cli.hpp"

namespace autohet {
namespace {

using common::ArgParser;

ArgParser make_parser() {
  ArgParser args("tool", "a test tool");
  args.add_positional("command", "what to do");
  args.add_option("episodes", "300", "episode count");
  args.add_option("rate", "0.5", "a rate");
  args.add_option("name", "", "a name");
  args.add_flag("verbose", "extra output");
  return args;
}

TEST(ArgParser, DefaultsApplyWhenUnset) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run"};
  std::string error;
  ASSERT_TRUE(args.parse(2, argv, &error)) << error;
  EXPECT_EQ(args.positional("command"), "run");
  EXPECT_EQ(args.option_int("episodes"), 300);
  EXPECT_DOUBLE_EQ(args.option_double("rate"), 0.5);
  EXPECT_FALSE(args.flag("verbose"));
}

TEST(ArgParser, SpaceSeparatedValues) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--episodes", "42", "--verbose"};
  std::string error;
  ASSERT_TRUE(args.parse(5, argv, &error)) << error;
  EXPECT_EQ(args.option_int("episodes"), 42);
  EXPECT_TRUE(args.flag("verbose"));
}

TEST(ArgParser, EqualsSeparatedValues) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--episodes=7", "--name=abc"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error)) << error;
  EXPECT_EQ(args.option_int("episodes"), 7);
  EXPECT_EQ(args.option("name"), "abc");
}

TEST(ArgParser, RejectsUnknownOption) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--bogus", "1"};
  std::string error;
  EXPECT_FALSE(args.parse(4, argv, &error));
  EXPECT_NE(error.find("unknown option"), std::string::npos);
}

TEST(ArgParser, RejectsMissingValue) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--episodes"};
  std::string error;
  EXPECT_FALSE(args.parse(3, argv, &error));
  EXPECT_NE(error.find("needs a value"), std::string::npos);
}

TEST(ArgParser, RejectsFlagWithValue) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--verbose=yes"};
  std::string error;
  EXPECT_FALSE(args.parse(3, argv, &error));
  EXPECT_NE(error.find("takes no value"), std::string::npos);
}

TEST(ArgParser, RejectsMissingPositional) {
  auto args = make_parser();
  const char* argv[] = {"tool"};
  std::string error;
  EXPECT_FALSE(args.parse(1, argv, &error));
  EXPECT_NE(error.find("missing argument"), std::string::npos);
}

TEST(ArgParser, RejectsExtraPositional) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "again"};
  std::string error;
  EXPECT_FALSE(args.parse(3, argv, &error));
  EXPECT_NE(error.find("unexpected argument"), std::string::npos);
}

TEST(ArgParser, HelpRequested) {
  auto args = make_parser();
  const char* argv[] = {"tool", "--help"};
  std::string error;
  EXPECT_FALSE(args.parse(2, argv, &error));
  EXPECT_NE(error.find("usage: tool"), std::string::npos);
  EXPECT_NE(error.find("--episodes"), std::string::npos);
  EXPECT_NE(error.find("episode count"), std::string::npos);
}

TEST(ArgParser, NonNumericValueThrowsOnTypedAccess) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run", "--episodes", "abc"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error));
  EXPECT_THROW(args.option_int("episodes"), std::invalid_argument);
  const char* argv2[] = {"tool", "run", "--rate", "1.5x"};
  auto args2 = make_parser();
  ASSERT_TRUE(args2.parse(4, argv2, &error));
  EXPECT_THROW(args2.option_double("rate"), std::invalid_argument);
}

TEST(ArgParser, TypedAccessValidatesKind) {
  auto args = make_parser();
  const char* argv[] = {"tool", "run"};
  std::string error;
  ASSERT_TRUE(args.parse(2, argv, &error));
  EXPECT_THROW(args.flag("episodes"), std::invalid_argument);
  EXPECT_THROW(args.option("verbose"), std::invalid_argument);
  EXPECT_THROW(args.positional("nope"), std::invalid_argument);
}

TEST(ArgParser, DuplicateRegistrationRejected) {
  ArgParser args("t", "d");
  args.add_flag("x", "h");
  EXPECT_THROW(args.add_option("x", "1", "h"), std::invalid_argument);
}

TEST(ArgParser, OptionalPositionalsUseDefaultsWhenOmitted) {
  ArgParser args("t", "d");
  args.add_optional_positional("episodes", "300", "h");
  args.add_optional_positional("seed", "1", "h");
  const char* argv[] = {"t"};
  std::string error;
  ASSERT_TRUE(args.parse(1, argv, &error)) << error;
  EXPECT_EQ(args.positional("episodes"), "300");
  EXPECT_EQ(args.positional("seed"), "1");
}

TEST(ArgParser, OptionalPositionalsFillLeftToRight) {
  ArgParser args("t", "d");
  args.add_optional_positional("episodes", "300", "h");
  args.add_optional_positional("seed", "1", "h");
  const char* argv[] = {"t", "50"};
  std::string error;
  ASSERT_TRUE(args.parse(2, argv, &error)) << error;
  EXPECT_EQ(args.positional("episodes"), "50");
  EXPECT_EQ(args.positional("seed"), "1");
  const char* argv2[] = {"t", "50", "7"};
  ArgParser args2("t", "d");
  args2.add_optional_positional("episodes", "300", "h");
  args2.add_optional_positional("seed", "1", "h");
  ASSERT_TRUE(args2.parse(3, argv2, &error)) << error;
  EXPECT_EQ(args2.positional("seed"), "7");
}

TEST(ArgParser, OptionalPositionalsMixWithOptions) {
  ArgParser args("t", "d");
  args.add_optional_positional("episodes", "300", "h");
  args.add_option("trace-out", "", "h");
  const char* argv[] = {"t", "25", "--trace-out", "trace.json"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error)) << error;
  EXPECT_EQ(args.positional("episodes"), "25");
  EXPECT_EQ(args.option("trace-out"), "trace.json");
}

TEST(ArgParser, RequiredPositionalAfterOptionalRejected) {
  ArgParser args("t", "d");
  args.add_optional_positional("episodes", "300", "h");
  EXPECT_THROW(args.add_positional("command", "h"), std::invalid_argument);
}

TEST(ArgParser, ProvidedTracksUserSuppliedOptions) {
  ArgParser args("t", "d");
  args.add_option("episodes", "300", "h");
  args.add_option("plan-in", "", "h");
  args.add_flag("no-tile-shared", "h");
  const char* argv[] = {"t", "--plan-in", "plan.json"};
  std::string error;
  ASSERT_TRUE(args.parse(3, argv, &error)) << error;
  EXPECT_TRUE(args.provided("plan-in"));
  EXPECT_FALSE(args.provided("episodes"));  // defaulted, not supplied
  EXPECT_FALSE(args.provided("no-tile-shared"));
  EXPECT_THROW(args.provided("unknown"), std::invalid_argument);
}

TEST(ArgParser, ProvidedTracksUserSuppliedPositionals) {
  ArgParser args("t", "d");
  args.add_optional_positional("section", "all", "h");
  args.add_optional_positional("episodes", "200", "h");
  const char* argv[] = {"t", "fig09"};
  std::string error;
  ASSERT_TRUE(args.parse(2, argv, &error)) << error;
  EXPECT_TRUE(args.provided("section"));
  EXPECT_FALSE(args.provided("episodes"));  // defaulted, not supplied
}

TEST(ArgParser, RejectOptionConflicts) {
  const auto parse = [](std::vector<const char*> argv, std::string* error) {
    ArgParser args("t", "d");
    args.add_option("plan-in", "", "h");
    args.add_option("episodes", "300", "h");
    args.add_option("seed", "1", "h");
    args.add_flag("no-tile-shared", "h");
    argv.insert(argv.begin(), "t");
    EXPECT_TRUE(args.parse(static_cast<int>(argv.size()), argv.data(), error))
        << *error;
    return args;
  };
  std::string error;

  // Replay mode combined with a search-configuration option is rejected
  // with an error naming both options.
  auto conflicted = parse({"--plan-in", "p.json", "--episodes", "5"}, &error);
  EXPECT_FALSE(conflicted.reject_option_conflicts(
      "plan-in", {"episodes", "seed", "no-tile-shared"}, &error));
  EXPECT_EQ(error, "--plan-in cannot be combined with --episodes");

  // Flags conflict too.
  auto flagged = parse({"--plan-in", "p.json", "--no-tile-shared"}, &error);
  EXPECT_FALSE(flagged.reject_option_conflicts(
      "plan-in", {"episodes", "seed", "no-tile-shared"}, &error));
  EXPECT_EQ(error, "--plan-in cannot be combined with --no-tile-shared");

  // Gate alone, or conflicts without the gate, pass.
  auto gate_only = parse({"--plan-in", "p.json"}, &error);
  EXPECT_TRUE(gate_only.reject_option_conflicts(
      "plan-in", {"episodes", "seed", "no-tile-shared"}, &error));
  auto search_only = parse({"--episodes", "5", "--seed", "2"}, &error);
  EXPECT_TRUE(search_only.reject_option_conflicts(
      "plan-in", {"episodes", "seed", "no-tile-shared"}, &error));
}

// args.count(name, min) throws std::invalid_argument naming `text`.
void expect_count_error(const ArgParser& args, const std::string& name,
                        int min, const std::string& text) {
  try {
    args.count(name, min);
    ADD_FAILURE() << "--" << name << " passed count(" << min << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
        << e.what();
  }
}

TEST(ArgParser, CountNamesANegativeOption) {
  ArgParser args("t", "d");
  args.add_option("threads", "0", "h");
  args.add_option("episodes", "300", "h");
  args.add_option("top", "10", "h");
  const char* argv[] = {"t", "--threads", "2", "--episodes=-5", "--top", "-1"};
  std::string error;
  ASSERT_TRUE(args.parse(6, argv, &error)) << error;

  // Positive values pass; each negative count is named with its minimum.
  EXPECT_EQ(args.count("threads"), 2);
  expect_count_error(args, "episodes", 1,
                     "option --episodes must be an integer >= 1: -5");
  expect_count_error(args, "top", 0,
                     "option --top must be an integer >= 0: -1");
  EXPECT_THROW(args.count("unknown"), std::invalid_argument);
}

TEST(ArgParser, CountAcceptsZeroOnlyAtMinimumZero) {
  ArgParser args("t", "d");
  args.add_option("threads", "4", "h");
  args.add_option("requests", "0", "h");
  args.add_option("offset", "0", "h");
  const char* argv[] = {"t", "--threads=0", "--offset", "-3"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error)) << error;

  // Zero, in either spelling or as a default, is a valid count at minimum
  // 0 and not at minimum 1; an option that is not a count keeps its
  // negative value for option_int.
  EXPECT_EQ(args.count("threads"), 0);
  EXPECT_EQ(args.count("requests"), 0);
  expect_count_error(args, "requests", 1,
                     "option --requests must be an integer >= 1: 0");
  EXPECT_EQ(args.option_int("offset"), -3);
}

TEST(ArgParser, CountReadsPositionalsAndOptions) {
  ArgParser args("t", "d");
  args.add_optional_positional("episodes", "300", "h");
  args.add_optional_positional("threads", "0", "h");
  args.add_option("requests", "2000", "h");
  const char* argv[] = {"t", "25", "--requests", "0"};
  std::string error;
  ASSERT_TRUE(args.parse(4, argv, &error)) << error;
  EXPECT_EQ(args.count("episodes", 1), 25);
  EXPECT_EQ(args.count("threads"), 0);
  EXPECT_EQ(args.count("requests"), 0);
}

TEST(ArgParser, CountRejectsAnythingButAnIntegerAtLeastMin) {
  const auto count_error = [](const char* value, int min) -> std::string {
    ArgParser args("t", "d");
    args.add_optional_positional("episodes", "300", "h");
    args.add_option("threads", "1", "h");
    const char* argv[] = {"t", value, "--threads", value};
    std::string error;
    EXPECT_TRUE(args.parse(4, argv, &error)) << error;
    std::string messages;
    for (const char* name : {"episodes", "threads"}) {
      try {
        args.count(name, min);
      } catch (const std::invalid_argument& e) {
        messages += std::string(e.what()) + '\n';
      }
    }
    return messages;
  };
  EXPECT_EQ(count_error("7", 0), "");
  const std::string negative = count_error("-3", 0);
  EXPECT_NE(negative.find("argument <episodes> must be an integer >= 0: -3"),
            std::string::npos)
      << negative;
  EXPECT_NE(negative.find("option --threads must be an integer >= 0: -3"),
            std::string::npos)
      << negative;
  for (const char* garbage : {"abc", "12x", "", "+5", "99999999999"}) {
    EXPECT_NE(count_error(garbage, 0).find("argument <episodes>"),
              std::string::npos)
        << garbage;
  }
  EXPECT_NE(count_error("0", 1).find("argument <episodes> must be an "
                                     "integer >= 1: 0"),
            std::string::npos);
}

TEST(ArgParser, HelpMarksOptionalPositionalsWithBrackets) {
  ArgParser args("t", "d");
  args.add_positional("command", "h");
  args.add_optional_positional("episodes", "300", "h");
  const std::string help = args.help_text();
  EXPECT_NE(help.find("<command>"), std::string::npos);
  EXPECT_NE(help.find("[episodes]"), std::string::npos);
}

}  // namespace
}  // namespace autohet
