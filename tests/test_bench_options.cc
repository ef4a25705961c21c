/**
 * @file
 * Tests for bench command-line parsing (bench/bench_common.hh): every
 * numeric flag goes through one checked parser, so a malformed value
 * is a fatal error naming the flag and the value instead of a silent
 * 0 or a wrapped-around unsigned. Scheme names are checked at parse
 * time, --schemes is refused by a bench that would ignore it, and
 * checkpoint and timeout flags reach SystemConfig::validate.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"

namespace rrm::bench
{
namespace
{

BenchOptions
parseArgs(std::vector<std::string> args, bool reads_schemes = false)
{
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return BenchOptions::parse(static_cast<int>(argv.size()), argv.data(),
                               reads_schemes);
}

/** parse() must fatal() with a message naming `flag` and `value`. */
void
expectRejected(const std::string &flag, const std::string &value)
{
    try {
        parseArgs({flag, value});
        ADD_FAILURE() << flag << " '" << value << "' was accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("flag " + flag + " "), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("got '" + value + "'"), std::string::npos)
            << msg;
    }
}

TEST(BenchOptions, ParsesWellFormedNumbers)
{
    const BenchOptions o = parseArgs(
        {"--window-ms", "12.5", "--scale", "250", "--seed",
         "18446744073709551615", "--jobs", "4", "--timeout", "1e3",
         "--checkpoint-every", "3", "--fault-rate", "0.001",
         "--fault-seed", "9", "--fault-wear-threshold", "100",
         "--fault-stall-ms", "2", "--fault-stall-period-ms", "8"});
    EXPECT_DOUBLE_EQ(o.windowSeconds, 0.0125);
    EXPECT_DOUBLE_EQ(o.timeScale, 250.0);
    EXPECT_EQ(o.seed, 18446744073709551615ull);
    EXPECT_EQ(o.jobs, 4u);
    EXPECT_DOUBLE_EQ(o.timeoutSeconds, 1000.0);
    EXPECT_EQ(o.checkpointEveryEpochs, 3u);
    EXPECT_DOUBLE_EQ(o.fault.transientWriteFailureRate, 0.001);
    EXPECT_EQ(o.fault.seed, 9u);
    EXPECT_EQ(o.fault.stuckAtWearThreshold, 100u);
    EXPECT_DOUBLE_EQ(o.fault.refreshStallSeconds, 0.002);
    EXPECT_DOUBLE_EQ(o.fault.refreshStallPeriodSeconds, 0.008);
}

TEST(BenchOptions, RejectsMalformedNumbers)
{
    const std::pair<const char *, const char *> bad[] = {
        // Empty values.
        {"--window-ms", ""},
        {"--seed", ""},
        // Trailing characters.
        {"--jobs", "x"},
        {"--fault-wear-threshold", "2x"},
        {"--scale", "1.5ms"},
        {"--fault-seed", "7 "},
        // Negative values for unsigned flags.
        {"--seed", "-1"},
        {"--jobs", "-4"},
        {"--checkpoint-every", "-2"},
        // Out of range or not finite.
        {"--seed", "18446744073709551616"},
        {"--jobs", "4294967296"},
        {"--timeout", "inf"},
        {"--fault-rate", "nan"},
    };
    for (const auto &[flag, value] : bad)
        expectRejected(flag, value);
}

TEST(BenchOptions, EveryNumericFlagIsChecked)
{
    for (const char *flag :
         {"--window-ms", "--scale", "--seed", "--jobs", "--timeout",
          "--checkpoint-every", "--fault-rate",
          "--fault-seed", "--fault-wear-threshold", "--fault-stall-ms",
          "--fault-stall-period-ms"}) {
        expectRejected(flag, "x");
    }
}

TEST(BenchOptions, UnknownSchemeNameIsRejectedAtParse)
{
    try {
        parseArgs({"--schemes", "RRM,bogus"}, /*reads_schemes=*/true);
        ADD_FAILURE() << "--schemes bogus was accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("unknown scheme 'bogus'"), std::string::npos)
            << msg;
        EXPECT_NE(msg.find("valid: "), std::string::npos) << msg;
    }
    EXPECT_EQ(parseArgs({"--schemes", "rrm,Static-7-SETs"}, true)
                  .schemes.size(),
              2u);
}

TEST(BenchOptions, SchemesIsRejectedByABenchThatDoesNotReadIt)
{
    try {
        parseArgs({"--schemes", "RRM"});
        ADD_FAILURE() << "--schemes was accepted and would be ignored";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("does not take --schemes"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Checkpoint and timeout flags reach SystemConfig, which judges their
 * values and combinations.
 */
TEST(BenchOptions, CheckpointFlagsReachConfigValidation)
{
    const auto errorsOf = [](std::vector<std::string> args) {
        return makeConfig(trace::workloadFromName("hmmer"),
                          sys::Scheme::rrmScheme(), parseArgs(args))
            .validate();
    };
    const std::vector<std::string> every =
        errorsOf({"--checkpoint-every", "1"});
    ASSERT_EQ(every.size(), 1u);
    EXPECT_NE(every[0].find("requires a checkpointDir"), std::string::npos)
        << every[0];

    const std::vector<std::string> resume = errorsOf({"--resume"});
    ASSERT_EQ(resume.size(), 1u);
    EXPECT_NE(resume[0].find("resumeFromCheckpoint requires"),
              std::string::npos)
        << resume[0];

    const std::vector<std::string> timeout = errorsOf({"--timeout", "-1"});
    ASSERT_EQ(timeout.size(), 1u);
    EXPECT_NE(timeout[0].find("timeout"), std::string::npos)
        << timeout[0];

    EXPECT_TRUE(errorsOf({}).empty());
}

/** runMatrix() reshapes the flat report by this workload-major order. */
TEST(PlanBuilder, MatrixBuildsWorkloadMajorOrder)
{
    const std::vector<trace::Workload> workloads = {
        trace::workloadFromName("lbm"),
        trace::workloadFromName("libquantum")};
    const std::vector<sys::Scheme> schemes = {
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
        sys::Scheme::rrmScheme()};
    const BenchOptions opts = parseArgs({"--quick"});
    PlanBuilder builder(opts);
    const run::RunPlan plan = builder.matrix(workloads, schemes).build();
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan[0].id, "lbm.Static-7-SETs");
    EXPECT_EQ(plan[1].id, "lbm.RRM");
    EXPECT_EQ(plan[2].id, "libquantum.Static-7-SETs");
    EXPECT_EQ(plan[3].id, "libquantum.RRM");
    EXPECT_EQ(plan[3].config.workload.name, "libquantum");
    EXPECT_EQ(plan[3].config.scheme.name(), "RRM");
}

} // namespace
} // namespace rrm::bench
