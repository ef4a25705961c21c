/**
 * @file
 * End-to-end integration tests: whole-system runs across schemes,
 * checking the qualitative relationships the paper reports
 * (performance ordering, lifetime ordering, refresh-wear dominance)
 * plus determinism and config validation. Runs use short windows to
 * stay fast; the full-length reproduction lives in bench/.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "system/system.hh"

namespace rrm::sys
{
namespace
{

SystemConfig
quickConfig(const std::string &workload, Scheme scheme)
{
    SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = scheme;
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    return cfg;
}

SimResults
runQuick(const std::string &workload, Scheme scheme)
{
    System system(quickConfig(workload, scheme));
    return system.run();
}

TEST(SystemIntegration, RunCompletesAndPopulatesResults)
{
    const SimResults r =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    EXPECT_EQ(r.workload, "GemsFDTD");
    EXPECT_EQ(r.scheme, "Static-7-SETs");
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_GT(r.aggregateIpc, 0.0);
    EXPECT_GT(r.mpki, 0.0);
    EXPECT_GT(r.memReads, 0u);
    EXPECT_GT(r.demandWrites, 0u);
    EXPECT_GT(r.lifetimeYears, 0.0);
    EXPECT_NEAR(r.windowSeconds, 0.009, 1e-9);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_GT(r.instructions[c], 0u) << "core " << c;
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    const SimResults a =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    const SimResults b =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    EXPECT_EQ(a.totalInstructions, b.totalInstructions);
    EXPECT_EQ(a.demandWrites, b.demandWrites);
    EXPECT_EQ(a.memReads, b.memReads);
    EXPECT_DOUBLE_EQ(a.aggregateIpc, b.aggregateIpc);
}

TEST(SystemIntegration, SeedChangesTheRun)
{
    SystemConfig cfg = quickConfig(
        "zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    cfg.seed = 99;
    System system(std::move(cfg));
    const SimResults b = system.run();
    const SimResults a =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets5));
    EXPECT_NE(a.totalInstructions, b.totalInstructions);
}

TEST(SystemIntegration, ShorterWritesGiveHigherIpc)
{
    const SimResults slow =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults fast =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_GT(fast.aggregateIpc, slow.aggregateIpc * 1.05);
}

TEST(SystemIntegration, RrmSitsBetweenTheStaticExtremes)
{
    const SimResults slow =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults fast =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    const SimResults rrm = runQuick("GemsFDTD", Scheme::rrmScheme());
    // Performance: above the slow baseline, below (or at) the fast one.
    EXPECT_GT(rrm.aggregateIpc, slow.aggregateIpc);
    EXPECT_LT(rrm.aggregateIpc, fast.aggregateIpc * 1.02);
    // Lifetime: far above Static-3, below Static-7.
    EXPECT_GT(rrm.lifetimeYears, 3.0 * fast.lifetimeYears);
    EXPECT_LT(rrm.lifetimeYears, slow.lifetimeYears * 1.02);
}

TEST(SystemIntegration, RrmIssuesFastWritesAndRefreshes)
{
    // Use a stronger time compression so a selective-refresh round
    // (interval = 2 s / timeScale) lands inside the short window.
    SystemConfig cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    cfg.timeScale = 250.0;
    System system(std::move(cfg));
    const SimResults rrm = system.run();
    EXPECT_GT(rrm.fastWrites, 0u);
    EXPECT_GT(rrm.fastWriteFraction(), 0.10);
    EXPECT_GT(rrm.rrmFastRefreshes, 0u);
    EXPECT_GT(rrm.rrmPromotions + rrm.rrmHotEntriesAtEnd, 0u);
}

TEST(SystemIntegration, StaticSchemesNeverIssueRrmRefreshes)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_EQ(r.rrmFastRefreshes, 0u);
    EXPECT_EQ(r.rrmSlowRefreshes, 0u);
    EXPECT_DOUBLE_EQ(r.rrmRefreshRate, 0.0);
    EXPECT_EQ(r.fastWrites, 0u);
}

TEST(SystemIntegration, RefreshWearDominatesStatic3)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    // Whole-array refresh every 2.01 s dwarfs demand writes (Fig 4).
    EXPECT_GT(r.globalRefreshRate, 3.0 * r.demandWriteRate);
}

TEST(SystemIntegration, RefreshWearNegligibleForStatic7AndRrm)
{
    const SimResults s7 =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    EXPECT_LT(s7.globalRefreshRate, 0.1 * s7.demandWriteRate);
    const SimResults rrm = runQuick("GemsFDTD", Scheme::rrmScheme());
    EXPECT_LT(rrm.rrmRefreshRate + rrm.globalRefreshRate,
              0.5 * rrm.demandWriteRate);
}

TEST(SystemIntegration, Static3LifetimeMatchesPaperBallpark)
{
    const SimResults r =
        runQuick("GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets3));
    // The paper reports ~0.3 years; refresh-bound, so workload
    // differences barely move it.
    EXPECT_GT(r.lifetimeYears, 0.15);
    EXPECT_LT(r.lifetimeYears, 0.35);
}

TEST(SystemIntegration, EnergyDominatedByRefreshForStatic3)
{
    const SimResults r =
        runQuick("zeusmp", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_GT(r.globalRefreshPower,
              r.demandWritePower + r.readPower);
}

TEST(SystemIntegration, RrmRefreshPowerIsSmall)
{
    const SimResults r = runQuick("GemsFDTD", Scheme::rrmScheme());
    EXPECT_LT(r.rrmRefreshPower, 0.2 * r.totalPower());
    EXPECT_GT(r.totalPower(), 0.0);
}

TEST(SystemIntegration, MpkiIsSchemeIndependent)
{
    // Cache behaviour is a property of the workload, not the write
    // scheme: MPKI must agree across schemes within noise.
    const SimResults a =
        runQuick("milc", Scheme::staticScheme(pcm::WriteMode::Sets7));
    const SimResults b =
        runQuick("milc", Scheme::staticScheme(pcm::WriteMode::Sets3));
    EXPECT_NEAR(a.mpki, b.mpki, a.mpki * 0.05);
}

TEST(SystemIntegration, HigherThresholdLowersFastWriteShare)
{
    SystemConfig lo = quickConfig("GemsFDTD", Scheme::rrmScheme());
    lo.rrm.hotThreshold = 4;
    SystemConfig hi = quickConfig("GemsFDTD", Scheme::rrmScheme());
    hi.rrm.hotThreshold = 64;
    System sys_lo(std::move(lo)), sys_hi(std::move(hi));
    const SimResults rlo = sys_lo.run();
    const SimResults rhi = sys_hi.run();
    EXPECT_GT(rlo.fastWriteFraction(), rhi.fastWriteFraction());
}

TEST(SystemIntegration, MixWorkloadsRun)
{
    const SimResults r = runQuick("MIX_2", Scheme::rrmScheme());
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_GT(r.demandWrites, 0u);
}

TEST(SystemIntegration, FullReadQueuesBackOffAndRetry)
{
    // A one-entry read queue per channel refuses most reads, so every
    // refused fill goes through tryEnqueueRead's 100 ns retry.
    const auto configFor = [](unsigned read_queue_cap) {
        SystemConfig cfg = quickConfig("MIX_2", Scheme::rrmScheme());
        cfg.windowSeconds = 0.004;
        cfg.memory.readQueueCap = read_queue_cap;
        return cfg;
    };
    const std::uint64_t panics_before = log_detail::panicCount();
    System a(configFor(1));
    const SimResults ra = a.run();
    EXPECT_GT(ra.totalInstructions, 0u);
    EXPECT_GT(ra.memReads, 0u);
    EXPECT_EQ(a.runAudits(), 0u);
    EXPECT_EQ(log_detail::panicCount(), panics_before);

    System b(configFor(1));
    const SimResults rb = b.run();
    EXPECT_EQ(ra.toJsonString(), rb.toJsonString());
    EXPECT_EQ(ra.eventsExecuted, rb.eventsExecuted);

    // The retries are extra events: back-pressure really happened.
    System dflt(configFor(memctrl::MemoryParams{}.readQueueCap));
    EXPECT_NE(ra.eventsExecuted, dflt.run().eventsExecuted);
}

TEST(SystemIntegration, RegionProfilerCapturesHotConcentration)
{
    SystemConfig cfg = quickConfig(
        "GemsFDTD", Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.profileRegionWrites = true;
    System system(std::move(cfg));
    system.run();
    const RegionWriteProfiler *prof = system.regionProfiler();
    ASSERT_NE(prof, nullptr);
    EXPECT_GT(prof->totalWrites(), 0u);
    // Table III shape: a small fraction of regions gets most writes,
    // and the overwhelming majority of memory is never written.
    EXPECT_LT(prof->hotRegionFraction(0.9), 0.05);
    EXPECT_GT(static_cast<double>(prof->neverWrittenRegions()) /
                  static_cast<double>(prof->totalRegions()),
              0.9);
}

TEST(SystemIntegration, ConfigValidationRejectsNonsense)
{
    SystemConfig cfg;
    EXPECT_THROW(System{cfg}, FatalError); // no workload

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.timeScale = 0.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = -1.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.warmupFraction = 1.0;
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    // Windows and time scales whose tick conversion overflows or
    // rounds to zero: each yields exactly one validation error.
    const auto expectOneError = [](SystemConfig c, const char *what) {
        const std::vector<std::string> errors = c.validate();
        ASSERT_EQ(errors.size(), 1u) << what;
        EXPECT_NE(errors[0].find(what), std::string::npos) << errors[0];
        EXPECT_THROW(System{std::move(c)}, FatalError) << what;
    };
    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = 1e8; // 1e20 ticks overflow Tick
    expectOneError(cfg, "window of 1e+08 s");
    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = 1e-15; // rounds to 0 ticks
    expectOneError(cfg, "window of 1e-15 s");
    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.windowSeconds = 2e-12; // 2 ticks, both eaten by the warmup
    cfg.warmupFraction = 0.9;
    expectOneError(cfg, "leaves no measured tick");
    cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.timeScale = 1e13; // 0.125 s / 1e13 rounds to 0 ticks
    expectOneError(cfg, "time scale 1e+13");
    cfg = quickConfig("lbm", Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.timeScale = std::numeric_limits<double>::infinity();
    expectOneError(cfg, "time scale inf");
}

TEST(SystemIntegration, ConfigValidationAggregatesEveryProblem)
{
    SystemConfig cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.timeScale = 0.0;
    cfg.windowSeconds = -1.0;
    cfg.warmupFraction = 1.5;
    const std::vector<std::string> errors = cfg.validate();
    EXPECT_GE(errors.size(), 3u);

    // The ctor reports all of them in one message, not just the first.
    try {
        System system(std::move(cfg));
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("problem(s)"), std::string::npos) << msg;
        EXPECT_NE(msg.find("time scale must be >= 1"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("window must be positive"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("warmup fraction must be in [0, 1)"),
                  std::string::npos)
            << msg;
    }
}

TEST(SystemIntegration, ConfigValidationFlagsIgnoredRrmSettings)
{
    // RRM knobs configured under a Static scheme would be silently
    // dead; validation calls it out.
    SystemConfig cfg =
        quickConfig("lbm", Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.rrm.hotThreshold = 8;
    const std::vector<std::string> errors = cfg.validate();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_NE(errors[0].find("RRM configured but the scheme is"),
              std::string::npos)
        << errors[0];
}

TEST(SystemIntegration, CountOnlyRefreshTimingStillCountsWear)
{
    SystemConfig cfg = quickConfig("GemsFDTD", Scheme::rrmScheme());
    cfg.timeScale = 250.0; // fit a refresh round into the window
    cfg.refreshTiming = RefreshTimingMode::CountOnly;
    System system(std::move(cfg));
    const SimResults r = system.run();
    EXPECT_GT(r.rrmFastRefreshes, 0u);
    EXPECT_GT(r.rrmRefreshRate, 0.0);
}

TEST(SystemIntegration, FailedAssertRaisesChecksTotalViolations)
{
    System system(quickConfig("lbm", Scheme::rrmScheme()));
    const auto *violations = dynamic_cast<const stats::Formula *>(
        system.statRoot().find("checks.totalViolations"));
    ASSERT_NE(violations, nullptr);
    const double before = violations->value();
    EXPECT_THROW(RRM_ASSERT(1 + 1 == 3, "seeded failure"), PanicError);
    EXPECT_EQ(violations->value(), before + 1.0);
}

TEST(SystemIntegration, PinnedClockStillEnforcesTheWallTimeout)
{
    // SOURCE_DATE_EPOCH pins reported wall times to zero; the timeout
    // must still read the host clock.
    ::setenv("SOURCE_DATE_EPOCH", "0", 1);
    SystemConfig cfg = quickConfig("lbm", Scheme::rrmScheme());
    cfg.wallTimeoutSeconds = 1e-9;
    System system(std::move(cfg));
    EXPECT_THROW(system.run(), SimTimeoutError);
    ::unsetenv("SOURCE_DATE_EPOCH");
}

} // namespace
} // namespace rrm::sys
