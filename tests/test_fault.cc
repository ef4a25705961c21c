/**
 * @file
 * The fault layer: retention-deadline arithmetic (including the
 * 2.01 s / 0.01 s guardband boundary), deterministic fault draws,
 * ECP repair and line retirement, refresh holds, the refresh-pressure
 * fallback, runner timeouts, and the end-to-end contract that
 * the RRM keeps retention violations at zero where Static-3-SETs
 * accumulates them — with byte-identical fault stats across worker
 * counts.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "fault/fault_config.hh"
#include "fault/fault_injector.hh"
#include "fault/repair.hh"
#include "fault/retention_tracker.hh"
#include "memctrl/controller.hh"
#include "rrm/region_monitor.hh"
#include "rrm/rrm_config.hh"
#include "run/runner.hh"
#include "test_support.hh"

namespace rrm::fault
{
namespace
{

namespace fs = std::filesystem;

using FaultTest = ::testing::Test;

// ---- RetentionTracker ----

TEST_F(FaultTest, TracksOnlyShortRetentionModes)
{
    const RetentionTracker t(1.0, 3.0, 0.0);
    EXPECT_TRUE(t.tracks(pcm::WriteMode::Sets3));
    EXPECT_FALSE(t.tracks(pcm::WriteMode::Sets4)); // 24.05 s
    EXPECT_FALSE(t.tracks(pcm::WriteMode::Sets7)); // 3054.9 s
}

TEST_F(FaultTest, DeadlineMatchesTable1RetentionAtNativeScale)
{
    const RetentionTracker t(1.0, 3.0, 0.0);
    EXPECT_EQ(t.retentionTicks(pcm::WriteMode::Sets3),
              secondsToTicks(2.01));
}

TEST_F(FaultTest, GuardbandAgainstRrmRefreshCadenceIsTenMillis)
{
    // The RRM refreshes every (2.01 - 0.01) s while the tracker
    // expires 3-SETs blocks after 2.01 s: the margin between the two
    // is exactly the paper's 0.01 s guardband, at any timeScale.
    for (const double scale : {1.0, 50.0, 250.0}) {
        const RetentionTracker t(scale, 3.0, 0.0);
        monitor::RrmConfig rrm;
        rrm.timeScale = scale;
        EXPECT_EQ(t.retentionTicks(pcm::WriteMode::Sets3) -
                      rrm.shortRetentionInterval(),
                  secondsToTicks(rrm.guardSeconds / scale))
            << "timeScale " << scale;
    }
}

TEST_F(FaultTest, SlackIsAddedUnscaled)
{
    const RetentionTracker t(100.0, 3.0, 0.005);
    EXPECT_EQ(t.retentionTicks(pcm::WriteMode::Sets3),
              secondsToTicks(2.01 / 100.0) + secondsToTicks(0.005));
}

TEST_F(FaultTest, SweepExpiresStrictlyPastDeadlinesOnly)
{
    RetentionTracker t(1.0, 3.0, 0.0);
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);
    std::vector<Addr> expired;
    t.setViolationCallback(
        [&](Addr block, Tick, Tick) { expired.push_back(block); });

    t.recordWrite(0x40, pcm::WriteMode::Sets3, 1000);
    EXPECT_EQ(t.trackedCount(), 1u);
    // Deadline met exactly at `now` is satisfied...
    EXPECT_EQ(t.sweep(1000 + r), 0u);
    EXPECT_TRUE(expired.empty());
    // ...one tick later it is violated.
    EXPECT_EQ(t.sweep(1000 + r + 1), 1u);
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0], 0x40u);
    EXPECT_EQ(t.trackedCount(), 0u);
    EXPECT_EQ(t.violations(), 1u);
}

TEST_F(FaultTest, RefreshReStampsTheDeadline)
{
    RetentionTracker t(1.0, 3.0, 0.0);
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    t.recordRefresh(0x40, pcm::WriteMode::Sets3, r - 10);
    EXPECT_EQ(t.sweep(r + 1), 0u);
    EXPECT_EQ(t.nextDeadline(), std::optional<Tick>(r - 10 + r));
}

TEST_F(FaultTest, LongRetentionRewriteClearsTheObligation)
{
    RetentionTracker t(1.0, 3.0, 0.0);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    EXPECT_EQ(t.trackedCount(), 1u);
    t.recordWrite(0x40, pcm::WriteMode::Sets7, 100);
    EXPECT_EQ(t.trackedCount(), 0u);
    EXPECT_EQ(t.sweep(maxTick - 1), 0u);
}

TEST_F(FaultTest, ClearDropsTheObligation)
{
    RetentionTracker t(1.0, 3.0, 0.0);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    t.clear(0x40);
    EXPECT_EQ(t.trackedCount(), 0u);
    EXPECT_EQ(t.sweep(maxTick - 1), 0u);
}

TEST_F(FaultTest, NextDeadlineSurvivesLazyHeapInvalidation)
{
    RetentionTracker t(1.0, 3.0, 0.0);
    const Tick r = t.retentionTicks(pcm::WriteMode::Sets3);
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 0);
    t.recordWrite(0x80, pcm::WriteMode::Sets3, 50);
    // Re-stamp the earliest block: its stale heap top must be
    // discarded, surfacing 0x80's deadline.
    t.recordWrite(0x40, pcm::WriteMode::Sets3, 100);
    EXPECT_EQ(t.nextDeadline(), std::optional<Tick>(50 + r));
    EXPECT_NO_THROW(t.audit());
}

// ---- FaultInjector ----

TEST_F(FaultTest, SameSeedSameDrawSequence)
{
    FaultInjector a(0.25, 0.5, 42);
    FaultInjector b(0.25, 0.5, 42);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(a.writeFails(), b.writeFails());
        EXPECT_EQ(a.developsStuckAt(), b.developsStuckAt());
    }
}

TEST_F(FaultTest, ZeroRateNeverDrawsFromTheStream)
{
    FaultInjector zero(0.0, 0.0, 7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(zero.writeFails());
        EXPECT_FALSE(zero.developsStuckAt());
    }
}

TEST_F(FaultTest, FaultClassesDrawFromIndependentStreams)
{
    // Consuming one class's stream must not shift the other's.
    FaultInjector a(0.25, 0.5, 42);
    FaultInjector b(0.25, 0.5, 42);
    std::vector<bool> a_writes, b_writes;
    for (int i = 0; i < 200; ++i) {
        a_writes.push_back(a.writeFails());
        a.developsStuckAt(); // interleaved stuck-at draws
    }
    for (int i = 0; i < 200; ++i)
        b_writes.push_back(b.writeFails()); // no stuck-at draws
    EXPECT_EQ(a_writes, b_writes);
}

// ---- EcpRepair / LineRetirement ----

TEST_F(FaultTest, EcpBudgetIsPerLineAndExhaustible)
{
    EcpRepair ecp(2);
    EXPECT_TRUE(ecp.repair(0x1000));
    EXPECT_TRUE(ecp.repair(0x1000));
    EXPECT_FALSE(ecp.repair(0x1000)); // budget spent
    EXPECT_TRUE(ecp.repair(0x2000));  // other lines unaffected
    EXPECT_EQ(ecp.used(0x1000), 2u);
    EXPECT_EQ(ecp.used(0x2000), 1u);
    EXPECT_EQ(ecp.used(0x3000), 0u);
    EXPECT_EQ(ecp.repairedLines(), 2u);
    EXPECT_NO_THROW(ecp.audit());
}

TEST_F(FaultTest, RetirementRemapsIntoTheSparePool)
{
    LineRetirement pool(1_MiB, 64, 4);
    const Addr spare_base = 1_MiB - 4 * 64;
    EXPECT_TRUE(pool.retire(0x40));
    EXPECT_TRUE(pool.isRetired(0x40));
    EXPECT_EQ(pool.remap(0x40), spare_base);
    EXPECT_EQ(pool.remap(0x80), 0x80u); // identity for live lines
    EXPECT_TRUE(pool.retire(0x80));
    EXPECT_EQ(pool.remap(0x80), spare_base + 64);
    EXPECT_EQ(pool.retiredCount(), 2u);
    EXPECT_NO_THROW(pool.audit());
}

TEST_F(FaultTest, RetirementFailsWhenSparesExhaust)
{
    LineRetirement pool(1_MiB, 64, 2);
    EXPECT_TRUE(pool.retire(0x40));
    EXPECT_TRUE(pool.retire(0x80));
    EXPECT_FALSE(pool.retire(0xc0));
    EXPECT_EQ(pool.remap(0xc0), 0xc0u);
}

TEST_F(FaultTest, DoubleRetireIsAContractViolation)
{
    LineRetirement pool(1_MiB, 64, 4);
    EXPECT_TRUE(pool.retire(0x40));
    EXPECT_THROW(pool.retire(0x40), PanicError);
}

// ---- FaultConfig validation ----

TEST_F(FaultTest, CollectErrorsCatchesBadKnobs)
{
    FaultConfig cfg;
    cfg.transientWriteFailureRate = 1.5;
    cfg.trackRetentionMaxSeconds = 0.0;
    cfg.retentionSlackSeconds = -1.0;
    cfg.fallbackHighWatermark = 4;
    cfg.fallbackLowWatermark = 8;
    std::vector<std::string> errors;
    cfg.collectErrors(errors, 64);
    EXPECT_GE(errors.size(), 4u);
}

TEST_F(FaultTest, DefaultConfigIsDisabledAndValid)
{
    const FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    std::vector<std::string> errors;
    cfg.collectErrors(errors, 64);
    EXPECT_TRUE(errors.empty());
}

TEST_F(FaultTest, SystemValidateSurfacesFaultErrors)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("lbm");
    cfg.fault.transientWriteFailureRate = 2.0;
    cfg.wallTimeoutSeconds = -1.0;
    const auto errors = cfg.validate();
    bool fault_error = false, timeout_error = false;
    for (const auto &e : errors) {
        fault_error |= e.find("fault") != std::string::npos;
        timeout_error |= e.find("timeout") != std::string::npos;
    }
    EXPECT_TRUE(fault_error);
    EXPECT_TRUE(timeout_error);
}

// ---- Channel refresh holds ----

TEST_F(FaultTest, HeldRefreshesResumeWhenTheHoldExpires)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    std::optional<Tick> refresh_done;
    ctrl.setCompletionHook([&](const memctrl::Request &req, Tick t) {
        if (req.kind == memctrl::ReqKind::RrmRefresh)
            refresh_done = t;
    });

    const Tick hold_until = 500_ns;
    ctrl.channel(0).holdRefreshes(hold_until);
    EXPECT_EQ(ctrl.channel(0).refreshHoldUntil(), hold_until);
    ASSERT_TRUE(ctrl.enqueueRefresh(0, pcm::WriteMode::Sets3));

    queue.run(hold_until - 1);
    EXPECT_FALSE(refresh_done.has_value());
    queue.run();
    ASSERT_TRUE(refresh_done.has_value());
    EXPECT_GE(*refresh_done, hold_until);
}

TEST_F(FaultTest, HoldsExtendButNeverShorten)
{
    EventQueue queue;
    memctrl::MemoryParams params;
    memctrl::Controller ctrl(params, queue);
    ctrl.channel(0).holdRefreshes(500_ns);
    ctrl.channel(0).holdRefreshes(100_ns); // no-op
    EXPECT_EQ(ctrl.channel(0).refreshHoldUntil(), 500_ns);
    ctrl.channel(0).holdRefreshes(900_ns);
    EXPECT_EQ(ctrl.channel(0).refreshHoldUntil(), 900_ns);
}

// ---- RegionMonitor pressure fallback ----

monitor::RrmConfig
smallRrmConfig()
{
    monitor::RrmConfig cfg;
    cfg.numSets = 4;
    cfg.assoc = 2;
    cfg.hotThreshold = 4;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    return cfg;
}

TEST_F(FaultTest, PressureFallbackDemotesAndForcesSlowWrites)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(), queue);
    std::vector<monitor::RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const monitor::RefreshRequest &r) {
        refreshes.push_back(r);
    });

    for (int i = 0; i < 4; ++i)
        rrm.registerLlcWrite(0x1000, true);
    ASSERT_TRUE(rrm.isHot(0x1000));
    rrm.registerLlcWrite(0x1000, true); // sets the vector bit
    ASSERT_EQ(rrm.writeModeFor(0x1000), pcm::WriteMode::Sets3);

    rrm.setPressureFallback(true);
    EXPECT_TRUE(rrm.pressureFallback());
    // Entering demotes every hot entry: its fast blocks get slow
    // rewrites instead of relying on the congested refresh path.
    EXPECT_EQ(rrm.hotEntryCount(), 0u);
    ASSERT_FALSE(refreshes.empty());
    EXPECT_EQ(refreshes.back().mode, pcm::WriteMode::Sets7);
    // While active, every decision is slow and no bits accrue.
    EXPECT_EQ(rrm.writeModeFor(0x1000), pcm::WriteMode::Sets7);
    for (int i = 0; i < 8; ++i)
        rrm.registerLlcWrite(0x2000, true);
    EXPECT_EQ(rrm.shortRetentionBlockCount(), 0u);

    rrm.setPressureFallback(false);
    EXPECT_FALSE(rrm.pressureFallback());
    EXPECT_NO_THROW(rrm.audit());
}

TEST_F(FaultTest, ReHeatingAfterFallbackIsPossible)
{
    // demoteAllHot halves the dirty-write counter, so a demoted
    // region can still re-promote once the fallback clears.
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(), queue);
    for (int i = 0; i < 4; ++i)
        rrm.registerLlcWrite(0x1000, true);
    rrm.setPressureFallback(true);
    rrm.setPressureFallback(false);
    EXPECT_FALSE(rrm.isHot(0x1000));
    for (int i = 0; i < 4; ++i)
        rrm.registerLlcWrite(0x1000, true);
    EXPECT_TRUE(rrm.isHot(0x1000));
}

TEST_F(FaultTest, DemotionsUnderPressureAreCounted)
{
    EventQueue queue;
    monitor::RegionMonitor rrm(smallRrmConfig(), queue);
    rrm.setQueueSaturationProbe([] { return true; });
    stats::StatGroup root("root");
    rrm.regStats(root);

    for (int i = 0; i < 5; ++i)
        rrm.registerLlcWrite(0x1000, true);
    ASSERT_TRUE(rrm.isHot(0x1000));
    rrm.demoteAllHot();

    const auto *s = dynamic_cast<const stats::Scalar *>(
        root.find("rrm.demotionsUnderPressure"));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->value(), 1.0);
}

// ---- System-level: violations, fault stats, determinism ----

sys::SystemConfig
faultSystemConfig(const sys::Scheme &scheme)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName("lbm");
    cfg.scheme = scheme;
    cfg.timeScale = 250.0;
    cfg.windowSeconds = 0.012;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    cfg.fault.retentionTracking = true;
    return cfg;
}

TEST_F(FaultTest, RrmKeepsZeroViolationsWhereStatic3Accumulates)
{
    // Scaled 3-SETs retention at 250x is 8.04 ms against a 12 ms
    // window: blanket fast writes must expire, RRM-refreshed ones
    // must not.
    sys::System static3(faultSystemConfig(
        sys::Scheme::staticScheme(pcm::WriteMode::Sets3)));
    const sys::SimResults r3 = static3.run();
    ASSERT_TRUE(r3.fault.enabled);
    EXPECT_GT(r3.fault.retentionViolations, 0u);
    EXPECT_GT(r3.fault.retentionStamps, 0u);

    sys::System rrm(faultSystemConfig(sys::Scheme::rrmScheme()));
    const sys::SimResults rr = rrm.run();
    ASSERT_TRUE(rr.fault.enabled);
    EXPECT_EQ(rr.fault.retentionViolations, 0u);
    EXPECT_GT(rr.fault.retentionStamps, 0u);
}

TEST_F(FaultTest, DisabledFaultLayerStaysOutOfResults)
{
    sys::SystemConfig cfg = faultSystemConfig(
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.fault = FaultConfig{};
    cfg.windowSeconds = 0.004;
    sys::System system(cfg);
    const sys::SimResults r = system.run();
    EXPECT_FALSE(r.fault.enabled);
    EXPECT_EQ(system.faultManager(), nullptr);
    const std::string json = r.toJsonString();
    EXPECT_EQ(json.find("\"fault\""), std::string::npos);
}

TEST_F(FaultTest, TransientFaultsAreRetriedDeterministically)
{
    auto make = [] {
        sys::SystemConfig cfg = faultSystemConfig(
            sys::Scheme::staticScheme(pcm::WriteMode::Sets7));
        cfg.windowSeconds = 0.006;
        cfg.fault.retentionTracking = false;
        cfg.fault.transientWriteFailureRate = 1e-3;
        return cfg;
    };
    sys::System a(make());
    const sys::SimResults ra = a.run();
    ASSERT_TRUE(ra.fault.enabled);
    EXPECT_GT(ra.fault.transientWriteFaults, 0u);
    EXPECT_GE(ra.fault.writeRetries, ra.fault.transientWriteFaults -
                                         ra.fault.writesUnrecovered);

    sys::System b(make());
    const sys::SimResults rb = b.run();
    EXPECT_EQ(ra.fault.transientWriteFaults,
              rb.fault.transientWriteFaults);
    EXPECT_EQ(ra.fault.writeRetries, rb.fault.writeRetries);
    EXPECT_EQ(ra.fault.writesUnrecovered, rb.fault.writesUnrecovered);
}

TEST_F(FaultTest, StuckAtFaultsConsumeEcpThenRetire)
{
    sys::SystemConfig cfg = faultSystemConfig(
        sys::Scheme::staticScheme(pcm::WriteMode::Sets7));
    cfg.windowSeconds = 0.006;
    cfg.fault.retentionTracking = false;
    cfg.fault.stuckAtWearThreshold = 2;
    cfg.fault.stuckAtRate = 1.0;
    cfg.fault.repairBudgetPerLine = 1;
    sys::System system(cfg);
    const sys::SimResults r = system.run();
    EXPECT_GT(r.fault.stuckAtFaults, 0u);
    EXPECT_GT(r.fault.stuckAtRepaired, 0u);
    EXPECT_GT(r.fault.linesRetired, 0u);
    EXPECT_EQ(r.fault.stuckAtFaults,
              r.fault.stuckAtRepaired + r.fault.linesRetired +
                  r.fault.spareExhausted);
}

TEST_F(FaultTest, RefreshDropsAreCountedAndReattempted)
{
    // Flood the refresh path: every region hot, every refresh
    // timing-visible, against the default 64-entry refresh queues.
    sys::SystemConfig cfg = faultSystemConfig(sys::Scheme::rrmScheme());
    cfg.windowSeconds = 0.012;
    cfg.refreshTiming = sys::RefreshTimingMode::Detailed;
    cfg.rrm.hotThreshold = 1;
    cfg.rrm.dirtyWriteFilter = false;
    cfg.fault.fallback = false; // keep the pressure on
    sys::System system(cfg);
    const sys::SimResults r = system.run();
    EXPECT_GT(r.fault.refreshDropped, 0u);
}

TEST_F(FaultTest, InjectedStallsTriggerTheFallbackGovernor)
{
    sys::SystemConfig cfg = faultSystemConfig(sys::Scheme::rrmScheme());
    cfg.windowSeconds = 0.012;
    cfg.refreshTiming = sys::RefreshTimingMode::Detailed;
    cfg.rrm.hotThreshold = 1;
    cfg.rrm.dirtyWriteFilter = false;
    cfg.fault.refreshStallSeconds = 0.002;
    cfg.fault.refreshStallPeriodSeconds = 0.004;
    cfg.fault.fallbackHighWatermark = 16;
    cfg.fault.fallbackLowWatermark = 2;
    sys::System system(cfg);
    const sys::SimResults r = system.run();
    EXPECT_GT(r.fault.refreshStalls, 0u);
    EXPECT_GT(r.fault.fallbackEntries, 0u);
}

TEST_F(FaultTest, FaultStatsAreByteIdenticalAcrossWorkerCounts)
{
    ::setenv("SOURCE_DATE_EPOCH", "0", 1);
    const test::ScopedTempDir base("fault_det");

    const auto planFor = [&](const std::string &sub) {
        fs::create_directories(base / sub);
        run::RunPlan plan;
        for (const char *w : {"lbm", "libquantum"}) {
            for (const sys::Scheme &s :
                 {sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
                  sys::Scheme::rrmScheme()}) {
                sys::SystemConfig cfg = faultSystemConfig(s);
                cfg.workload = trace::workloadFromName(w);
                cfg.windowSeconds = 0.006;
                cfg.fault.transientWriteFailureRate = 1e-4;
                const std::string id = std::string(w) + "." + s.name();
                cfg.obs.runRecordFile =
                    (base / sub / (id + ".json")).string();
                plan.add(std::move(cfg), id);
            }
        }
        return plan;
    };
    const auto slurp = [](const fs::path &path) {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream ss;
        ss << is.rdbuf();
        return ss.str();
    };

    run::RunnerOptions serial;
    serial.jobs = 1;
    const run::RunReport a =
        run::Runner(serial).execute(planFor("serial"));
    run::RunnerOptions parallel;
    parallel.jobs = 4;
    const run::RunReport b =
        run::Runner(parallel).execute(planFor("parallel"));

    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].results.fault.retentionViolations,
                  b.runs[i].results.fault.retentionViolations)
            << a.runs[i].id;
        const std::string serial_record =
            slurp(base / "serial" / (a.runs[i].id + ".json"));
        EXPECT_FALSE(serial_record.empty()) << a.runs[i].id;
        EXPECT_EQ(serial_record,
                  slurp(base / "parallel" / (a.runs[i].id + ".json")))
            << a.runs[i].id;
    }
}

// ---- Runner timeouts ----

sys::SystemConfig
tinyConfig(const char *workload)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.004;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    return cfg;
}

TEST_F(FaultTest, TimedOutRunIsRecordedWithoutStallingThePlan)
{
    run::RunPlan plan;
    sys::SystemConfig doomed = tinyConfig("lbm");
    doomed.wallTimeoutSeconds = 1e-9;
    plan.add(std::move(doomed), "doomed");
    plan.add(tinyConfig("libquantum"), "healthy");

    run::RunnerOptions opts;
    opts.jobs = 1;
    const run::RunReport report = run::Runner(opts).execute(plan);

    ASSERT_EQ(report.runs.size(), 2u);
    EXPECT_EQ(report.runs[0].status, run::RunStatus::TimedOut);
    EXPECT_EQ(report.runs[1].status, run::RunStatus::Ok);
    EXPECT_EQ(report.timedOutCount(), 1u);
    EXPECT_NE(report.failureSummary().find("doomed timed-out"),
              std::string::npos)
        << report.failureSummary();
    EXPECT_NE(report.runs[0].error.find("timeout"), std::string::npos);
}

} // namespace
} // namespace rrm::fault
