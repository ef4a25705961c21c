/**
 * @file
 * Bench infrastructure implementation.
 */

#include "bench_common.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/atomic_file.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "obs/run_record.hh"

namespace rrm::bench
{

namespace
{

/** One entry of the declarative flag table. */
struct BenchFlag
{
    const char *name;      ///< including the leading dashes
    const char *valueName; ///< metavar of the argument; null = none
    const char *doc;       ///< one-line help text
    /** Apply the flag; `value` is empty for argument-less flags. */
    std::function<void(BenchOptions &, const std::string &value)> apply;
};

/**
 * Parse `value` as the number flag `flag` takes: the whole string
 * must be one finite T (no sign for unsigned T). fatal() naming the
 * flag and the value otherwise, so "--jobs x" cannot silently become
 * 0 and "--seed -1" cannot wrap around.
 */
template <typename T>
T
parseNumber(const char *flag, const std::string &value)
{
    T out{};
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, out);
    bool ok = !value.empty() && ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(out);
    if (!ok) {
        fatal("flag ", flag, " needs ",
              std::is_floating_point_v<T> ? "a finite number"
                                          : "a non-negative integer",
              ", got '", value, "'");
    }
    return out;
}

/** A flag taking one number of type T, parsed by parseNumber. */
template <typename T>
BenchFlag
numberFlag(const char *name, const char *doc,
           void (*set)(BenchOptions &, T))
{
    return {name, std::is_floating_point_v<T> ? "F" : "N", doc,
            [name, set](BenchOptions &o, const std::string &v) {
                set(o, parseNumber<T>(name, v));
            }};
}

/**
 * The flag table: name, argument kind, doc string, and effect, in
 * --help order. Adding a runner/bench flag is one entry here.
 */
const std::vector<BenchFlag> &
benchFlagTable()
{
    static const std::vector<BenchFlag> table = {
        {"--quick", nullptr, "8 ms window (smoke-test the bench)",
         [](BenchOptions &o, const std::string &) {
             o.windowSeconds = 0.008;
         }},
        numberFlag<double>("--window-ms", "window length in milliseconds",
                           [](BenchOptions &o, double v) {
                               o.windowSeconds = v / 1e3;
                           }),
        numberFlag<double>("--scale", "retention time-scale factor",
                           [](BenchOptions &o, double v) {
                               o.timeScale = v;
                           }),
        numberFlag<std::uint64_t>("--seed", "base RNG seed of every run",
                                  [](BenchOptions &o, std::uint64_t v) {
                                      o.seed = v;
                                  }),
        {"--workloads", "a,b,c", "subset of Table VII names",
         [](BenchOptions &o, const std::string &v) {
             std::stringstream ss(v);
             std::string name;
             while (std::getline(ss, name, ','))
                 o.workloads.push_back(name);
         }},
        {"--mix", "SPEC",
         "N-core mix spec, e.g. zeusmp,lbm,lbm,milc:2 (repeatable)",
         [](BenchOptions &o, const std::string &v) {
             o.mixes.push_back(v);
         }},
        {"--tenants", "IDS",
         "tenant id per core of the matching --mix, e.g. 0,0,1,1",
         [](BenchOptions &o, const std::string &v) {
             o.tenants.push_back(v);
         }},
        {"--schemes", "a,b,c", "subset of scheme names",
         [](BenchOptions &o, const std::string &v) {
             std::stringstream ss(v);
             std::string name;
             while (std::getline(ss, name, ',')) {
                 sys::parseScheme(name); // fatal() on an unknown name
                 o.schemes.push_back(name);
             }
         }},
        numberFlag<unsigned>(
            "--jobs", "worker threads (0 = hardware concurrency, 1 = serial)",
            [](BenchOptions &o, unsigned v) { o.jobs = v; }),
        {"--fail-fast", nullptr,
         "cancel queued runs after the first failure",
         [](BenchOptions &o, const std::string &) {
             o.failFast = true;
         }},
        {"--verbose", nullptr, "per-run progress lines on stderr",
         [](BenchOptions &o, const std::string &) {
             o.verbose = true;
         }},
        {"--stats-json", "STEM",
         "per-run run-record JSON files STEM.<run>.json",
         [](BenchOptions &o, const std::string &v) {
             o.statsJsonStem = v;
         }},
        {"--sample-csv", "STEM",
         "per-run sampled time series STEM.<run>.csv",
         [](BenchOptions &o, const std::string &v) {
             o.sampleCsvStem = v;
         }},
        {"--trace-jsonl", "STEM",
         "per-run JSONL trace files STEM.<run>.jsonl",
         [](BenchOptions &o, const std::string &v) {
             o.traceJsonlStem = v;
         }},
        {"--perfetto-out", "STEM",
         "per-run Perfetto timelines STEM.<run>.perfetto.json",
         [](BenchOptions &o, const std::string &v) {
             o.perfettoStem = v;
         }},
        {"--telemetry", "STEM",
         "per-run telemetry stats STEM.<run>.telemetry.json",
         [](BenchOptions &o, const std::string &v) {
             o.telemetryStem = v;
         }},
        {"--profile", nullptr,
         "wall-clock self-profiling in run records",
         [](BenchOptions &o, const std::string &) {
             o.profile = true;
         }},
        {"--progress", nullptr,
         "throughput/ETA heartbeat lines on stderr",
         [](BenchOptions &o, const std::string &) {
             o.progress = true;
         }},
        {"--json-out", "F", "bench-report path (benches that emit one)",
         [](BenchOptions &o, const std::string &v) { o.jsonOut = v; }},
        numberFlag<double>("--timeout",
                           "per-run wall-clock budget in seconds",
                           [](BenchOptions &o, double v) {
                               o.timeoutSeconds = v;
                           }),
        numberFlag<unsigned>("--retries",
                             "re-attempts after a failed/timed-out run",
                             [](BenchOptions &o, unsigned v) {
                                 o.retries = v;
                             }),
        numberFlag<std::uint64_t>(
            "--checkpoint-every",
            "publish a checkpoint every N decay epochs (0 = off)",
            [](BenchOptions &o, std::uint64_t v) {
                o.checkpointEveryEpochs = v;
            }),
        {"--checkpoint-dir", "DIR",
         "root directory for per-run checkpoint subdirectories",
         [](BenchOptions &o, const std::string &v) {
             o.checkpointDir = v;
         }},
        {"--resume", nullptr,
         "resume each run from its newest valid checkpoint",
         [](BenchOptions &o, const std::string &) {
             o.resume = true;
         }},
        {"--fault-retention", nullptr,
         "track retention deadlines of short-retention writes",
         [](BenchOptions &o, const std::string &) {
             o.fault.retentionTracking = true;
         }},
        {"--fault-strict", nullptr,
         "treat a retention violation as a check failure",
         [](BenchOptions &o, const std::string &) {
             o.fault.strict = true;
         }},
        numberFlag<double>("--fault-rate",
                           "transient write-failure probability",
                           [](BenchOptions &o, double v) {
                               o.fault.transientWriteFailureRate = v;
                           }),
        numberFlag<std::uint64_t>("--fault-seed",
                                  "fault-injector RNG seed",
                                  [](BenchOptions &o, std::uint64_t v) {
                                      o.fault.seed = v;
                                  }),
        numberFlag<std::uint64_t>(
            "--fault-wear-threshold",
            "region write count per stuck-at fault chance (0 = off)",
            [](BenchOptions &o, std::uint64_t v) {
                o.fault.stuckAtWearThreshold = v;
            }),
        numberFlag<double>(
            "--fault-stall-ms",
            "periodic refresh-queue stall length in milliseconds",
            [](BenchOptions &o, double v) {
                o.fault.refreshStallSeconds = v / 1e3;
            }),
        numberFlag<double>(
            "--fault-stall-period-ms",
            "refresh-stall period in milliseconds (0 = 4x length)",
            [](BenchOptions &o, double v) {
                o.fault.refreshStallPeriodSeconds = v / 1e3;
            }),
        {"--trace-packs", "DIR",
         "replay .rtp packs from DIR (see tools/trace-pack)",
         [](BenchOptions &o, const std::string &v) {
             o.tracePackDir = v;
         }},
    };
    return table;
}

/** Print the --help text generated from the flag table. */
void
printFlagHelp()
{
    std::printf("flags:\n");
    for (const BenchFlag &flag : benchFlagTable()) {
        std::string usage = flag.name;
        if (flag.valueName)
            usage += std::string(" ") + flag.valueName;
        std::printf("  %-22s %s\n", usage.c_str(), flag.doc);
    }
    std::printf("  %-22s %s\n", "--help, -h", "this text");
}

} // namespace

BenchOptions
BenchOptions::parse(int argc, char **argv)
{
    BenchOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printFlagHelp();
            std::exit(0);
        }
        const BenchFlag *match = nullptr;
        for (const BenchFlag &flag : benchFlagTable()) {
            if (arg == flag.name) {
                match = &flag;
                break;
            }
        }
        if (!match)
            fatal("unknown flag '", arg, "' (see --help)");
        std::string value;
        if (match->valueName) {
            if (i + 1 >= argc)
                fatal("flag ", arg, " needs a value");
            value = argv[++i];
        }
        match->apply(opts, value);
    }
    return opts;
}

std::vector<trace::Workload>
BenchOptions::selectedWorkloads() const
{
    if (tenants.size() > mixes.size()) {
        fatal("--tenants given ", tenants.size(),
              " time(s) but --mix only ", mixes.size(),
              " time(s); each --tenants pairs with one --mix");
    }
    std::vector<trace::Workload> out;
    for (const auto &name : workloads)
        out.push_back(trace::workloadFromName(name));
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        out.push_back(trace::workloadFromSpec(
            mixes[i], i < tenants.size() ? tenants[i] : ""));
    }
    if (out.empty())
        return trace::standardWorkloads();
    return out;
}

std::vector<sys::Scheme>
BenchOptions::selectedSchemes(
    const std::vector<sys::Scheme> &defaults) const
{
    if (schemes.empty())
        return defaults;
    std::vector<sys::Scheme> out;
    for (const auto &name : schemes)
        out.push_back(sys::parseScheme(name));
    return out;
}

run::RunnerOptions
BenchOptions::runnerOptions() const
{
    run::RunnerOptions ro;
    ro.jobs = jobs;
    ro.failFast = failFast;
    ro.verbose = verbose;
    ro.timeoutSeconds = timeoutSeconds;
    ro.retries = retries;
    if (progress) {
        ro.onProgress = [](const run::RunProgress &p) {
            std::fprintf(stderr,
                         "progress: %zu/%zu runs done, last %.2f Mev/s"
                         " (%.2f s), eta %.1f s\n",
                         p.finished, p.total, p.eventsPerSecond / 1e6,
                         p.runSeconds, p.etaSeconds);
        };
    }
    return ro;
}

PlanBuilder &
PlanBuilder::run(const trace::Workload &workload,
                 const sys::Scheme &scheme)
{
    flush();
    pendingActive_ = true;
    pendingWorkload_ = workload;
    pendingScheme_ = scheme;
    pendingId_.clear();
    pendingHooks_.clear();
    pendingPostRun_ = nullptr;
    return *this;
}

PlanBuilder &
PlanBuilder::tag(std::string id)
{
    RRM_ASSERT(pendingActive_, "PlanBuilder::tag() without run()");
    pendingId_ = std::move(id);
    return *this;
}

PlanBuilder &
PlanBuilder::with(ConfigHook hook)
{
    RRM_ASSERT(pendingActive_, "PlanBuilder::with() without run()");
    pendingHooks_.push_back(std::move(hook));
    return *this;
}

PlanBuilder &
PlanBuilder::postRun(run::PostRunHook hook)
{
    RRM_ASSERT(pendingActive_, "PlanBuilder::postRun() without run()");
    pendingPostRun_ = std::move(hook);
    return *this;
}

PlanBuilder &
PlanBuilder::matrix(const std::vector<trace::Workload> &workloads,
                    const std::vector<sys::Scheme> &schemes,
                    const ConfigHook &hook)
{
    for (const auto &w : workloads)
        for (const auto &s : schemes) {
            run(w, s);
            if (hook)
                with(hook);
        }
    return *this;
}

void
PlanBuilder::flush()
{
    if (!pendingActive_)
        return;
    pendingActive_ = false;
    auto hooks = std::move(pendingHooks_);
    const ConfigHook combined = hooks.empty()
        ? ConfigHook{}
        : [hooks](sys::SystemConfig &cfg) {
              for (const auto &h : hooks)
                  h(cfg);
          };
    run::RunSpec &spec =
        plan_.add(makeConfig(pendingWorkload_, *pendingScheme_, opts_,
                             combined, pendingId_),
                  pendingId_);
    spec.postRun = std::move(pendingPostRun_);
}

run::RunPlan
PlanBuilder::build()
{
    flush();
    return std::move(plan_);
}

run::RunReport
PlanBuilder::execute()
{
    return runPlan(build(), opts_);
}

sys::SystemConfig
makeConfig(const trace::Workload &workload, const sys::Scheme &scheme,
           const BenchOptions &opts, const ConfigHook &hook,
           const std::string &tag)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    // Size the private-cache tier to the mix: 1-core solo companions
    // and 8-core mixes get exactly as many cores as the workload
    // names (canned 4-core workloads keep the default hierarchy).
    cfg.hierarchy.numCores = static_cast<unsigned>(workload.numCores());
    cfg.scheme = scheme;
    cfg.windowSeconds = opts.windowSeconds;
    cfg.timeScale = opts.timeScale;
    cfg.warmupFraction = opts.warmupFraction;
    cfg.seed = opts.seed;
    cfg.fault = opts.fault;
    cfg.tracePackDir = opts.tracePackDir;

    const std::string run_tag =
        tag.empty() ? workload.name + "." + scheme.name() : tag;
    // Passed through unconditionally: SystemConfig::validate judges
    // the combination (a cadence without a directory, a resume
    // without a cadence).
    cfg.checkpointEveryEpochs = opts.checkpointEveryEpochs;
    cfg.resumeFromCheckpoint = opts.resume;
    if (opts.checkpointEveryEpochs > 0 && !opts.checkpointDir.empty()) {
        // Each run owns a subdirectory: sibling runs of one plan
        // must not see each other's .rckpt files.
        cfg.checkpointDir = opts.checkpointDir + "/" + run_tag;
        std::error_code ec;
        std::filesystem::create_directories(cfg.checkpointDir, ec);
        if (ec) {
            fatal("cannot create checkpoint directory ",
                  cfg.checkpointDir, ": ", ec.message());
        }
    }
    if (!opts.statsJsonStem.empty())
        cfg.obs.runRecordFile = opts.statsJsonStem + "." + run_tag + ".json";
    if (!opts.sampleCsvStem.empty())
        cfg.obs.sampleCsvFile = opts.sampleCsvStem + "." + run_tag + ".csv";
    if (!opts.traceJsonlStem.empty())
        cfg.obs.traceFile = opts.traceJsonlStem + "." + run_tag + ".jsonl";
    if (!opts.perfettoStem.empty()) {
        cfg.obs.perfettoFile =
            opts.perfettoStem + "." + run_tag + ".perfetto.json";
    }
    if (!opts.telemetryStem.empty()) {
        cfg.obs.telemetryJsonFile =
            opts.telemetryStem + "." + run_tag + ".telemetry.json";
    }
    cfg.obs.profiling = opts.profile;

    if (hook)
        hook(cfg);
    return cfg;
}

run::RunPlan
buildMatrixPlan(const std::vector<trace::Workload> &workloads,
                const std::vector<sys::Scheme> &schemes,
                const BenchOptions &opts, const ConfigHook &hook)
{
    PlanBuilder builder(opts);
    return builder.matrix(workloads, schemes, hook).build();
}

run::RunReport
runPlan(const run::RunPlan &plan, const BenchOptions &opts)
{
    // ^C / SIGTERM becomes a graceful pool drain: in-flight runs
    // write their final checkpoints (when configured), the report is
    // completed, and the plan fails with a full summary below.
    installInterruptHandlers();
    const run::Runner runner(opts.runnerOptions());
    const run::RunReport report = runner.execute(plan);

    const std::size_t slowest = report.slowestRunIndex();
    std::fprintf(stderr,
                 "plan: %zu/%zu runs ok on %u worker(s) in %.2f s"
                 " (slowest %s: %.2f s)\n",
                 report.completedCount(), report.runs.size(),
                 report.jobs, report.wallSeconds,
                 slowest == std::string::npos
                     ? "n/a"
                     : report.runs[slowest].id.c_str(),
                 slowest == std::string::npos
                     ? 0.0
                     : report.runs[slowest].wallSeconds);

    if (!report.allOk()) {
        fatal(report.interruptedCount() > 0 ? "run plan interrupted: "
                                            : "run plan failed: ",
              report.failureSummary());
    }
    return report;
}

std::vector<std::vector<sys::SimResults>>
runMatrix(const std::vector<trace::Workload> &workloads,
          const std::vector<sys::Scheme> &schemes,
          const BenchOptions &opts, const ConfigHook &hook)
{
    const run::RunReport report =
        runPlan(buildMatrixPlan(workloads, schemes, opts, hook), opts);
    const std::vector<sys::SimResults> flat = report.okResults();

    std::vector<std::vector<sys::SimResults>> results;
    results.reserve(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        results.emplace_back(flat.begin() + w * schemes.size(),
                             flat.begin() + (w + 1) * schemes.size());
    }
    return results;
}

double
geomeanOver(const std::vector<sys::SimResults> &results,
            const std::function<double(const sys::SimResults &)> &metric)
{
    std::vector<double> values;
    values.reserve(results.size());
    for (const auto &r : results)
        values.push_back(metric(r));
    return geomean(values);
}

void
printTitle(const std::string &title)
{
    printRule();
    std::printf("%s\n", title.c_str());
    printRule();
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

void
writeBenchReport(const std::string &path,
                 const std::string &bench_name, const BenchOptions &opts,
                 const std::vector<trace::Workload> &workloads,
                 const std::vector<sys::Scheme> &schemes,
                 const std::vector<std::vector<sys::SimResults>> &results)
{
    AtomicFile file(path);
    std::ostream &os = file.stream();

    obs::JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("schemaVersion", benchReportSchemaVersion);
    json.field("bench", bench_name);
    json.key("metadata");
    obs::writeRunMetadata(json, obs::currentRunMetadata());

    json.key("options");
    json.beginObject();
    json.field("windowSeconds", opts.windowSeconds);
    json.field("timeScale", opts.timeScale);
    json.field("warmupFraction", opts.warmupFraction);
    json.field("seed", opts.seed);
    json.endObject();

    json.key("workloads");
    json.beginArray();
    for (const auto &w : workloads)
        json.value(w.name);
    json.endArray();
    json.key("schemes");
    json.beginArray();
    for (const auto &s : schemes)
        json.value(s.name());
    json.endArray();

    json.key("runs");
    json.beginArray();
    for (const auto &row : results)
        for (const auto &r : row)
            r.toJson(json);
    json.endArray();

    json.endObject();
    os << '\n';
    file.commit();
}

} // namespace rrm::bench
