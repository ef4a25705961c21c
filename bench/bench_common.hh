/**
 * @file
 * Shared infrastructure for the reproduction benches: command-line
 * options (a declarative flag table), RunPlan construction over
 * (workload, scheme) matrices, parallel execution through
 * run::Runner, and table formatting. Every bench binary regenerates
 * one (or one family of) paper table/figure — see DESIGN.md section 5
 * for the index — by building a RunPlan and formatting the RunReport.
 */

#ifndef RRM_BENCH_BENCH_COMMON_HH
#define RRM_BENCH_BENCH_COMMON_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "run/runner.hh"
#include "system/system.hh"

namespace rrm::bench
{

/** Options common to all reproduction benches. */
struct BenchOptions
{
    /** Simulated window in (scaled) seconds. */
    double windowSeconds = 0.060;

    /** Retention compression factor (DESIGN.md section 3). */
    double timeScale = 50.0;

    double warmupFraction = 0.2;
    std::uint64_t seed = 1;

    /** Workload subset; empty = the full Table VII set. */
    std::vector<std::string> workloads;

    /**
     * @{ Ad-hoc N-core mixes (--mix, repeatable), each optionally
     * paired by index with a tenant grouping (--tenants). A mix spec
     * follows the trace::parseWorkloadSpec grammar
     * ("zeusmp,lbm,lbm,milc:2"); a tenant spec is one id per core
     * ("0,0,1,1"). Mixes are appended after the named workloads (or
     * replace the standard set when --workloads is absent).
     */
    std::vector<std::string> mixes;
    std::vector<std::string> tenants;
    /** @} */

    /** Scheme subset by name (--schemes); empty = bench default. */
    std::vector<std::string> schemes;

    /** Print per-run progress to stderr. */
    bool verbose = false;

    /** Worker threads (--jobs); 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 0;

    /** Cancel queued runs after the first failure (--fail-fast). */
    bool failFast = false;

    /**
     * @{ Per-run observability outputs. Each stem produces one file
     * per run, named `<stem>.<run-id><ext>` (matrix run ids are
     * `<workload>.<scheme>`), via SystemConfig::obs.
     */
    std::string statsJsonStem;  ///< run records (--stats-json)
    std::string sampleCsvStem;  ///< sampled time series (--sample-csv)
    std::string traceJsonlStem; ///< JSONL traces (--trace-jsonl)
    std::string perfettoStem;   ///< Perfetto timelines (--perfetto-out)
    std::string telemetryStem;  ///< telemetry JSON (--telemetry)
    /** @} */

    /** Wall-clock self-profiling into the run records (--profile). */
    bool profile = false;

    /** Bench-report path override (--json-out); bench default if empty. */
    std::string jsonOut;

    /**
     * Per-run wall-clock budget in seconds (--timeout), copied into
     * SystemConfig::wallTimeoutSeconds; 0 = none.
     */
    double timeoutSeconds = 0.0;

    /**
     * @{ Crash-safe checkpointing (--checkpoint-every /
     * --checkpoint-dir / --resume). Every run checkpoints into its
     * own subdirectory `<checkpointDir>/<run-id>` (created on
     * demand), so one interrupted plan resumes per run. See
     * SystemConfig::checkpointEveryEpochs for the cadence and the
     * byte-identity contract.
     */
    std::uint64_t checkpointEveryEpochs = 0;
    std::string checkpointDir;
    bool resume = false;
    /** @} */

    /**
     * Fault-injection knobs (--fault-*), copied into every run's
     * SystemConfig. All-defaults means the fault layer is absent and
     * bench outputs are byte-identical to builds without it.
     */
    fault::FaultConfig fault;

    /**
     * Directory of .rtp packs every run replays (--trace-packs);
     * empty = generate inline. See SystemConfig::tracePackDir.
     */
    std::string tracePackDir;

    /**
     * Parse argv against the declarative flag table (see
     * benchFlagTable() in bench_common.cc); --help prints the
     * generated usage text and exits. A malformed flag or value is
     * a fatal() naming it. Only a bench that calls selectedSchemes()
     * passes `reads_schemes`; every other bench rejects --schemes
     * instead of ignoring it.
     */
    static BenchOptions parse(int argc, char **argv,
                              bool reads_schemes = false);

    /** Workloads selected by the options (named + --mix specs). */
    std::vector<trace::Workload> selectedWorkloads() const;

    /**
     * Schemes selected by --schemes (parsed via parseScheme), or
     * `defaults` when the flag was not given.
     */
    std::vector<sys::Scheme>
    selectedSchemes(const std::vector<sys::Scheme> &defaults) const;
};

/** Hook to adjust the SystemConfig before a run (sweep knobs). */
using ConfigHook = std::function<void(sys::SystemConfig &)>;

/**
 * Fluent RunPlan construction. A builder replaces the
 * loop-plus-makeConfig boilerplate of the sweep benches:
 *
 *     bench::PlanBuilder plan(opts);
 *     for (const auto &w : workloads) {
 *         plan.run(w, rrm).tag(w.name + ".rrm-t8")
 *             .with([](sys::SystemConfig &c) { c.rrm.hotThreshold = 8; });
 *     }
 *     const run::RunReport report = plan.execute();
 *
 * run() starts a pending run; tag()/with()/postRun() modify it; the
 * next run() (or build()/execute()) finalizes it via makeConfig, so
 * the id set by tag() also names the run's observability outputs.
 * with() hooks compose in call order.
 *
 * Because hooks execute at finalization (not at the with() call),
 * capture sweep variables BY VALUE — a by-reference capture of a loop
 * counter would read the next iteration's value.
 */
class PlanBuilder
{
  public:
    explicit PlanBuilder(const BenchOptions &opts) : opts_(opts) {}

    /** Start one (workload, scheme) run. */
    PlanBuilder &run(const trace::Workload &workload,
                     const sys::Scheme &scheme);

    /** Set the pending run's id (default "<workload>.<scheme>"). */
    PlanBuilder &tag(std::string id);

    /** Append a config tweak to the pending run. */
    PlanBuilder &with(ConfigHook hook);

    /** Attach a post-run inspection hook to the pending run. */
    PlanBuilder &postRun(run::PostRunHook hook);

    /** Append the whole workload x scheme matrix with default ids. */
    PlanBuilder &matrix(const std::vector<trace::Workload> &workloads,
                        const std::vector<sys::Scheme> &schemes,
                        const ConfigHook &hook = {});

    /** Finalize the pending run and return the plan. */
    run::RunPlan build();

    /** build() and execute with the options' runner policy. */
    run::RunReport execute();

  private:
    void flush();

    const BenchOptions &opts_;
    run::RunPlan plan_;

    bool pendingActive_ = false;
    trace::Workload pendingWorkload_;
    std::optional<sys::Scheme> pendingScheme_;
    std::string pendingId_;
    std::vector<ConfigHook> pendingHooks_;
    run::PostRunHook pendingPostRun_;
};

/**
 * Build the SystemConfig for one run. `tag` names this run's per-run
 * observability outputs (`<stem>.<tag>.json` etc.); empty selects the
 * matrix default "<workload>.<scheme>". Give every variant run of a
 * sweep a distinct tag — RunPlan::validate rejects clashing outputs.
 */
sys::SystemConfig makeConfig(const trace::Workload &workload,
                             const sys::Scheme &scheme,
                             const BenchOptions &opts,
                             const ConfigHook &hook = {},
                             const std::string &tag = "");

/**
 * Execute a plan with the options' runner policy (--jobs,
 * --fail-fast, --verbose) and print the plan-level summary (runs,
 * jobs, wall seconds, slowest run) to stderr. fatal() with every
 * failed run id if any run did not finish.
 */
run::RunReport runPlan(const run::RunPlan &plan,
                       const BenchOptions &opts);

/**
 * Run every selected workload under every scheme.
 * Results are indexed [workload][scheme].
 */
std::vector<std::vector<sys::SimResults>> runMatrix(
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes, const BenchOptions &opts,
    const ConfigHook &hook = {});

/** Geometric mean of a per-workload metric. */
double geomeanOver(const std::vector<sys::SimResults> &results,
                   const std::function<double(const sys::SimResults &)>
                       &metric);

/** @{ Table formatting helpers. */
void printTitle(const std::string &title);
void printRule(int width = 98);
/** @} */

/** Schema version of the machine-readable bench reports. */
constexpr int benchReportSchemaVersion = 1;

/** Writes the bench-specific fields of a report's top-level object. */
using ReportBody = std::function<void(obs::JsonWriter &)>;

/**
 * Atomically write one machine-readable bench report to `path`: the
 * head every report shares (schema version, bench name, build
 * metadata, and the windowSeconds/timeScale/warmupFraction/seed
 * options) followed by whatever `body` adds to the same top-level
 * object. Execution details (jobs, wall time) are deliberately
 * excluded so reports are byte-identical across --jobs values.
 * fatal() if the file cannot be opened.
 */
void writeBenchReportFile(const std::string &path,
                          const std::string &bench_name,
                          const BenchOptions &opts,
                          const ReportBody &body);

/**
 * Write the report of a bench's run matrix: the shared head, the
 * workload and scheme names, one full SimResults record per
 * (workload, scheme) pair, then whatever `extra` adds.
 */
void writeBenchReport(
    const std::string &path, const std::string &bench_name,
    const BenchOptions &opts,
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes,
    const std::vector<std::vector<sys::SimResults>> &results,
    const ReportBody &extra = {});

/**
 * The bench binaries' main(): return `body`'s exit status, or print
 * a FatalError (bad flag, invalid plan, failed run) as one
 * "fatal: ..." line on stderr and return 1.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

} // namespace rrm::bench

#endif // RRM_BENCH_BENCH_COMMON_HH
