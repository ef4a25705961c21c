/**
 * @file
 * The run subsystem: RunPlan construction and validation, Runner
 * execution on 1..N workers, and the properties the bench layer
 * depends on — plan-order reports, byte-identical outputs across
 * worker counts (with SOURCE_DATE_EPOCH pinned), captured per-run
 * failures, fail-fast cancellation, and serialized --verbose
 * progress lines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "run/runner.hh"
#include "test_support.hh"

namespace rrm::run
{
namespace
{

namespace fs = std::filesystem;

sys::SystemConfig
quickConfig(const std::string &workload, sys::Scheme scheme)
{
    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = scheme;
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.008;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    return cfg;
}

const sys::Scheme kStatic7 =
    sys::Scheme::staticScheme(pcm::WriteMode::Sets7);

/** A fast 4-run plan over two workloads and two schemes. */
RunPlan
smallPlan()
{
    RunPlan plan;
    for (const char *w : {"lbm", "libquantum"}) {
        plan.add(quickConfig(w, kStatic7));
        plan.add(quickConfig(w, sys::Scheme::rrmScheme()));
    }
    return plan;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(RunPlan, DefaultIdIsWorkloadDotScheme)
{
    RunPlan plan;
    EXPECT_EQ(plan.add(quickConfig("lbm", kStatic7)).id,
              "lbm.Static-7-SETs");
    EXPECT_EQ(plan.add(quickConfig("lbm", kStatic7), "lbm.sweep-1").id,
              "lbm.sweep-1");
    EXPECT_EQ(plan.size(), 2u);
    EXPECT_NO_THROW(plan.validate());
}

TEST(RunPlan, ValidateAggregatesAllProblemsIntoOneError)
{
    RunPlan plan;
    // Problem 1+2: duplicate id, each with a clashing output file.
    sys::SystemConfig a = quickConfig("lbm", kStatic7);
    a.obs.runRecordFile = "clash.json";
    plan.add(std::move(a), "dup");
    sys::SystemConfig b = quickConfig("lbm", sys::Scheme::rrmScheme());
    b.obs.runRecordFile = "clash.json";
    plan.add(std::move(b), "dup");
    // Problem 3: a config that fails its own validation twice over.
    sys::SystemConfig c = quickConfig("libquantum", kStatic7);
    c.windowSeconds = -1.0;
    c.timeScale = 0.0;
    plan.add(std::move(c), "broken");

    try {
        plan.validate();
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("dup"), std::string::npos) << msg;
        EXPECT_NE(msg.find("clash.json"), std::string::npos) << msg;
        EXPECT_NE(msg.find("broken: "), std::string::npos) << msg;
        EXPECT_NE(msg.find("window must be positive"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("time scale must be >= 1"),
                  std::string::npos)
            << msg;
    }
}

TEST(RunPlan, ValidateRejectsEmptyPlan)
{
    EXPECT_THROW(RunPlan{}.validate(), FatalError);
}

TEST(Runner, EffectiveJobsClampsToPlanAndHardware)
{
    RunnerOptions opts;
    opts.jobs = 8;
    EXPECT_EQ(Runner(opts).effectiveJobs(2), 2u);
    EXPECT_EQ(Runner(opts).effectiveJobs(100), 8u);
    opts.jobs = 1;
    EXPECT_EQ(Runner(opts).effectiveJobs(100), 1u);
    opts.jobs = 0; // hardware concurrency, whatever it is: >= 1
    EXPECT_GE(Runner(opts).effectiveJobs(100), 1u);
}

TEST(Runner, ReportIsInPlanOrderWithOkResults)
{
    RunnerOptions opts;
    opts.jobs = 2;
    const RunReport report = Runner(opts).execute(smallPlan());

    ASSERT_EQ(report.runs.size(), 4u);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.completedCount(), 4u);
    EXPECT_EQ(report.failedCount(), 0u);
    EXPECT_EQ(report.cancelledCount(), 0u);
    EXPECT_EQ(report.failureSummary(), "");
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_GT(report.wallSeconds, 0.0);
    EXPECT_LT(report.slowestRunIndex(), 4u);

    EXPECT_EQ(report.runs[0].id, "lbm.Static-7-SETs");
    EXPECT_EQ(report.runs[1].id, "lbm.RRM");
    EXPECT_EQ(report.runs[2].id, "libquantum.Static-7-SETs");
    EXPECT_EQ(report.runs[3].id, "libquantum.RRM");
    for (const RunResult &r : report.runs) {
        EXPECT_EQ(r.status, RunStatus::Ok);
        EXPECT_GT(r.results.totalInstructions, 0u) << r.id;
        EXPECT_GT(r.wallSeconds, 0.0) << r.id;
    }

    const RunResult *rrm = report.find("libquantum.RRM");
    ASSERT_NE(rrm, nullptr);
    EXPECT_EQ(rrm->results.scheme, "RRM");
    EXPECT_EQ(report.find("no-such-run"), nullptr);
    EXPECT_EQ(report.okResults().size(), 4u);
}

TEST(Runner, SerialAndParallelOutputsAreByteIdentical)
{
    // Pin the run-record timestamp (reproducible-builds convention)
    // so the only possible difference is real nondeterminism.
    ::setenv("SOURCE_DATE_EPOCH", "0", 1);
    const test::ScopedTempDir base("runner_det");

    const auto planFor = [&](const std::string &sub) {
        fs::create_directories(base / sub);
        RunPlan plan;
        for (const char *w : {"lbm", "libquantum"}) {
            for (const sys::Scheme &s :
                 {kStatic7, sys::Scheme::rrmScheme()}) {
                sys::SystemConfig cfg = quickConfig(w, s);
                const std::string id =
                    std::string(w) + "." + s.name();
                cfg.obs.runRecordFile =
                    (base / sub / (id + ".json")).string();
                plan.add(std::move(cfg), id);
            }
        }
        return plan;
    };

    RunnerOptions serial;
    serial.jobs = 1;
    const RunReport a = Runner(serial).execute(planFor("serial"));
    RunnerOptions parallel;
    parallel.jobs = 4;
    const RunReport b = Runner(parallel).execute(planFor("parallel"));

    ASSERT_TRUE(a.allOk());
    ASSERT_TRUE(b.allOk());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].id, b.runs[i].id);
        EXPECT_EQ(a.runs[i].results.totalInstructions,
                  b.runs[i].results.totalInstructions)
            << a.runs[i].id;
        EXPECT_EQ(a.runs[i].results.demandWrites,
                  b.runs[i].results.demandWrites)
            << a.runs[i].id;
        EXPECT_DOUBLE_EQ(a.runs[i].results.aggregateIpc,
                         b.runs[i].results.aggregateIpc)
            << a.runs[i].id;

        const std::string serial_record =
            slurp(base / "serial" / (a.runs[i].id + ".json"));
        const std::string parallel_record =
            slurp(base / "parallel" / (a.runs[i].id + ".json"));
        EXPECT_FALSE(serial_record.empty()) << a.runs[i].id;
        EXPECT_EQ(serial_record, parallel_record) << a.runs[i].id;
    }
}

TEST(Runner, PostRunHookSeesTheLiveSystem)
{
    RunPlan plan;
    std::string seen_workload;
    RunSpec &spec = plan.add(quickConfig("lbm", kStatic7));
    spec.postRun = [&](const sys::System &system,
                       const sys::SimResults &results) {
        seen_workload = results.workload;
        EXPECT_EQ(system.config().workload.name, results.workload);
    };
    RunnerOptions opts;
    opts.jobs = 1;
    const RunReport report = Runner(opts).execute(plan);
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(seen_workload, "lbm");
}

TEST(Runner, RunFailureIsCapturedNotThrown)
{
    RunPlan plan;
    plan.add(quickConfig("lbm", kStatic7));
    plan.add(quickConfig("lbm", sys::Scheme::rrmScheme())).postRun =
        [](const sys::System &, const sys::SimResults &) {
            throw std::runtime_error("injected failure");
        };
    plan.add(quickConfig("libquantum", kStatic7));

    RunnerOptions opts;
    opts.jobs = 1;
    const RunReport report = Runner(opts).execute(plan);

    ASSERT_EQ(report.runs.size(), 3u);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.completedCount(), 2u);
    EXPECT_EQ(report.failedCount(), 1u);
    EXPECT_EQ(report.cancelledCount(), 0u);
    EXPECT_EQ(report.runs[1].status, RunStatus::Failed);
    EXPECT_NE(report.runs[1].error.find("injected failure"),
              std::string::npos);
    EXPECT_EQ(report.runs[0].status, RunStatus::Ok);
    EXPECT_EQ(report.runs[2].status, RunStatus::Ok);
    EXPECT_NE(report.failureSummary().find("lbm.RRM"),
              std::string::npos);
    EXPECT_THROW(report.okResults(), FatalError);
}

TEST(Runner, FailFastCancelsQueuedRuns)
{
    RunPlan plan;
    plan.add(quickConfig("lbm", kStatic7), "first");
    plan.add(quickConfig("lbm", sys::Scheme::rrmScheme()), "boom")
            .postRun = [](const sys::System &, const sys::SimResults &) {
        throw std::runtime_error("injected failure");
    };
    plan.add(quickConfig("libquantum", kStatic7), "third");
    plan.add(quickConfig("libquantum", sys::Scheme::rrmScheme()),
             "fourth");

    RunnerOptions opts;
    opts.jobs = 1; // serial: cancellation set is deterministic
    opts.failFast = true;
    const RunReport report = Runner(opts).execute(plan);

    ASSERT_EQ(report.runs.size(), 4u);
    EXPECT_EQ(report.runs[0].status, RunStatus::Ok);
    EXPECT_EQ(report.runs[1].status, RunStatus::Failed);
    EXPECT_EQ(report.runs[2].status, RunStatus::Cancelled);
    EXPECT_EQ(report.runs[3].status, RunStatus::Cancelled);
    EXPECT_EQ(report.completedCount(), 1u);
    EXPECT_EQ(report.failedCount(), 1u);
    EXPECT_EQ(report.cancelledCount(), 2u);

    const std::string summary = report.failureSummary();
    EXPECT_NE(summary.find("boom"), std::string::npos) << summary;
    EXPECT_NE(summary.find("cancelled"), std::string::npos) << summary;
}

TEST(Runner, VerboseLinesReportEveryExecutedRun)
{
    RunnerOptions opts;
    opts.jobs = 2;
    opts.verbose = true;
    ::testing::internal::CaptureStderr();
    const RunReport report = Runner(opts).execute(smallPlan());
    const std::string err = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(report.allOk());

    // One line per run; the counter is serialized, so the four lines
    // carry [1/4]..[4/4] in order whichever worker finished first.
    std::istringstream lines(err);
    std::string line;
    std::size_t k = 0;
    while (std::getline(lines, line)) {
        if (line.find("/4] ") == std::string::npos)
            continue; // not a progress line (e.g. a warning)
        ++k;
        const std::string counter = "[" + std::to_string(k) + "/4] ok";
        EXPECT_NE(line.find(counter), std::string::npos) << line;
    }
    EXPECT_EQ(k, 4u) << err;
    for (const RunResult &r : report.runs)
        EXPECT_NE(err.find(r.id), std::string::npos) << r.id;
}

} // namespace
} // namespace rrm::run
