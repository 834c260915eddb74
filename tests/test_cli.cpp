// Tests for the wlsms command-line option parser and the typed
// per-subcommand option structs built on top of it.
#include "cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "options.hpp"

namespace wlsms::cli {
namespace {

Options parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "wlsms");
  return Options::parse(static_cast<int>(argv.size()),
                        const_cast<char**>(argv.data()));
}

TEST(Cli, ParsesCommandAndOptions) {
  const Options options =
      parse({"curie", "--cells", "5", "--gamma-final", "1e-6"});
  EXPECT_EQ(options.command(), "curie");
  EXPECT_EQ(options.get_long("cells", 0), 5);
  EXPECT_DOUBLE_EQ(options.get_double("gamma-final", 0.0), 1e-6);
}

TEST(Cli, EmptyArgvGivesEmptyCommand) {
  const Options options = parse({});
  EXPECT_TRUE(options.empty_command());
}

TEST(Cli, DefaultsApplyWhenAbsent) {
  const Options options = parse({"thermo"});
  EXPECT_EQ(options.get_string("dos", "fallback.csv"), "fallback.csv");
  EXPECT_DOUBLE_EQ(options.get_double("tmin", 200.0), 200.0);
  EXPECT_EQ(options.get_long("points", 15), 15);
  EXPECT_FALSE(options.has("dos"));
}

TEST(Cli, StringValuesPassThrough) {
  const Options options = parse({"thermo", "--dos", "my dos.csv"});
  EXPECT_EQ(options.get_string("dos", ""), "my dos.csv");
  EXPECT_TRUE(options.has("dos"));
}

TEST(Cli, RejectsBareToken) {
  EXPECT_THROW(parse({"curie", "cells", "5"}), std::runtime_error);
}

TEST(Cli, RejectsMissingValue) {
  EXPECT_THROW(parse({"curie", "--cells"}), std::runtime_error);
}

TEST(Cli, RejectsNonNumericNumber) {
  const Options options = parse({"curie", "--cells", "five"});
  EXPECT_THROW(options.get_long("cells", 0), std::runtime_error);
}

TEST(Cli, RejectsTrailingGarbageInNumber) {
  const Options options = parse({"curie", "--tmin", "150K"});
  EXPECT_THROW(options.get_double("tmin", 0.0), std::runtime_error);
}

TEST(Cli, NegativeNumbersParse) {
  const Options options = parse({"x", "--shift", "-3.5"});
  EXPECT_DOUBLE_EQ(options.get_double("shift", 0.0), -3.5);
}

TEST(Cli, U64ParsesFullRange) {
  // Resume tokens are raw 64-bit values; about half of them exceed
  // INT64_MAX, which get_long rejects — get_u64 must take the full range.
  const Options options =
      parse({"client", "--resume-token", "18446744073709551615"});
  EXPECT_EQ(options.get_u64("resume-token", 0), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(options.get_u64("resume-session", 7), 7u);
}

TEST(Cli, U64RejectsNegativeOverflowAndGarbage) {
  EXPECT_THROW(parse({"x", "--t", "-1"}).get_u64("t", 0), std::runtime_error);
  EXPECT_THROW(parse({"x", "--t", "18446744073709551616"}).get_u64("t", 0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--t", "12abc"}).get_u64("t", 0),
               std::runtime_error);
}

TEST(Cli, UnusedKeysReported) {
  const Options options = parse({"curie", "--cells", "2", "--typo", "1"});
  (void)options.get_long("cells", 0);
  const std::vector<std::string> unused = options.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Cli, QueriedKeysNotReported) {
  const Options options = parse({"curie", "--cells", "2"});
  (void)options.get_long("cells", 0);
  EXPECT_TRUE(options.unused_keys().empty());
}

TEST(Cli, LastDuplicateWins) {
  const Options options = parse({"x", "--n", "1", "--n", "2"});
  EXPECT_EQ(options.get_long("n", 0), 2);
}

TEST(Cli, DoubleParsesScientificNotation) {
  EXPECT_DOUBLE_EQ(parse({"x", "--v", "1e-3"}).get_double("v", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(parse({"x", "--v", "-3.5e2"}).get_double("v", 0.0), -350.0);
}

TEST(Cli, DoubleRejectsOverflowWhitespaceHexAndLoneSign) {
  // std::stod would half-accept every one of these: "1e999" returns inf or
  // throws late, " 1.5" skips the space, "0x10" parses as hex, and a lone
  // "-" used to slip through partial parses. get_double fails loudly.
  EXPECT_THROW(parse({"x", "--v", "1e999"}).get_double("v", 0.0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--v", " 1.5"}).get_double("v", 0.0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--v", "0x10"}).get_double("v", 0.0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--v", "-"}).get_double("v", 0.0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--v", ""}).get_double("v", 0.0),
               std::runtime_error);
  EXPECT_THROW(parse({"x", "--v", "1.5.2"}).get_double("v", 0.0),
               std::runtime_error);
}

// --- Typed per-subcommand structs: parse once, validate once --------------

TEST(CliOptions, SpeculateDefaultsAndOverrides) {
  const SpeculateOptions defaults = SpeculateOptions::parse(parse({"x"}));
  EXPECT_FALSE(defaults.enabled);
  EXPECT_DOUBLE_EQ(defaults.band, 2.0);
  EXPECT_DOUBLE_EQ(defaults.audit_fraction, 0.05);

  const SpeculateOptions set = SpeculateOptions::parse(
      parse({"x", "--speculate", "1", "--spec-band", "1.5", "--spec-audit-frac",
             "0.2", "--spec-refit-interval", "128", "--spec-budget", "1e-3"}));
  EXPECT_TRUE(set.enabled);
  EXPECT_DOUBLE_EQ(set.band, 1.5);
  EXPECT_DOUBLE_EQ(set.audit_fraction, 0.2);
  EXPECT_EQ(set.refit_interval, 128u);
  EXPECT_DOUBLE_EQ(set.error_budget, 1e-3);
}

TEST(CliOptions, SpeculateValidatesRanges) {
  EXPECT_THROW(SpeculateOptions::parse(parse({"x", "--spec-band", "-1"})),
               std::runtime_error);
  EXPECT_THROW(
      SpeculateOptions::parse(parse({"x", "--spec-audit-frac", "1.5"})),
      std::runtime_error);
  EXPECT_THROW(SpeculateOptions::parse(parse({"x", "--spec-budget", "-1e-3"})),
               std::runtime_error);
}

TEST(CliOptions, DistributedSpeculationNeedsAWlDriver) {
  // The screen sits in front of a WL driver's accept boundary; a bare
  // evaluation sweep has nothing to screen.
  EXPECT_THROW(
      DistributedOptions::parse(parse({"distributed", "--speculate", "1"})),
      std::runtime_error);
  const DistributedOptions ok = DistributedOptions::parse(parse(
      {"distributed", "--speculate", "1", "--wl-steps", "100"}));
  EXPECT_TRUE(ok.speculate.enabled);
  EXPECT_EQ(ok.wl_steps, 100u);
}

TEST(CliOptions, DistributedTransportIsTypedAndTcpFlagsNeedTcp) {
  EXPECT_EQ(DistributedOptions::parse(parse({"distributed"})).transport,
            comm::Transport::kInProcess);
  const DistributedOptions tcp = DistributedOptions::parse(
      parse({"distributed", "--transport", "tcp", "--listen", "0.0.0.0:7777",
             "--external", "1"}));
  EXPECT_EQ(tcp.transport, comm::Transport::kTcp);
  EXPECT_EQ(tcp.listen, "0.0.0.0:7777");
  EXPECT_TRUE(tcp.external);
  for (const char* name : {"process", "fork", "threads", "net", "bogus"})
    EXPECT_THROW(DistributedOptions::parse(
                     parse({"distributed", "--transport", name})),
                 std::runtime_error)
        << name;
  EXPECT_THROW(DistributedOptions::parse(
                   parse({"distributed", "--listen", "0.0.0.0:7777"})),
               std::runtime_error);
  EXPECT_THROW(DistributedOptions::parse(parse(
                   {"distributed", "--transport", "inprocess", "--external",
                    "0"})),
               std::runtime_error);
}

TEST(CliOptions, ServeBatchThreadsMustFitAnInt) {
  // Parse only: the value becomes an OpenMP team size (an int), so
  // anything larger must be refused, not wrapped.
  EXPECT_EQ(ServeOptions::parse(parse({"serve"})).batch_threads, 0u);
  const ServeOptions largest = ServeOptions::parse(
      parse({"serve", "--batch-threads", "2147483647"}));
  EXPECT_EQ(largest.batch_threads, 2147483647u);
  for (const char* value : {"2147483648", "4294967296", "4294967297"}) {
    try {
      ServeOptions::parse(parse({"serve", "--batch-threads", value}));
      ADD_FAILURE() << "accepted --batch-threads " << value;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("--batch-threads"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(ServeOptions::parse(parse({"serve", "--batch-threads", "-1"})),
               std::runtime_error);
}

TEST(CliOptions, RequiredStringsAreEnforced) {
  EXPECT_THROW(ThermoOptions::parse(parse({"thermo"})), std::runtime_error);
  EXPECT_THROW(WorkerOptions::parse(parse({"worker"})), std::runtime_error);
  EXPECT_THROW(ClientOptions::parse(parse({"client"})), std::runtime_error);
  const ClientOptions client = ClientOptions::parse(
      parse({"client", "--connect", "127.0.0.1:7878", "--tenant", "w1"}));
  EXPECT_EQ(client.connect, "127.0.0.1:7878");
  EXPECT_EQ(client.tenant, "w1");
}

TEST(CliOptions, CountsValidateLowerBounds) {
  EXPECT_THROW(CurieOptions::parse(parse({"curie", "--cells", "0"})),
               std::runtime_error);
  EXPECT_THROW(CurieOptions::parse(parse({"curie", "--flatness", "1.2"})),
               std::runtime_error);
  EXPECT_THROW(ThermoOptions::parse(parse({"thermo", "--dos", "d.csv",
                                           "--tmin", "500", "--tmax", "400"})),
               std::runtime_error);
  EXPECT_THROW(ServeOptions::parse(parse({"serve", "--batch-window", "-5"})),
               std::runtime_error);
}

TEST(CliOptions, ParseMarksKeysQueried) {
  // A fully typed parse must leave no false "unrecognized option" warnings.
  const Options options = parse(
      {"distributed", "--groups", "2", "--wl-steps", "50", "--speculate", "1"});
  (void)DistributedOptions::parse(options);
  EXPECT_TRUE(options.unused_keys().empty());
}

}  // namespace
}  // namespace wlsms::cli
