/**
 * @file
 * The repository benchmark: times the simulator's public API from the
 * outside on three workloads and prints every metric by name and
 * unit, ending with one JSON result line.
 *
 *   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *   perfbench --list-metrics | --self-test
 *   perfbench --setup-probe --workload <name> [--seed N]
 *
 * --trace 0 prints the end-to-end metrics of repeated untraced runs;
 * --trace 1 prints the per-layer metrics (counts of one untraced run
 * plus host times of the span-recording replay in replay.cc). See
 * README.md beside this file for why each workload and metric exists.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hh"
#include "replay.hh"
#include "run/runner.hh"
#include "system/system.hh"

namespace
{

using namespace rrm;
using perfbench::LayerCounts;
using perfbench::ReplayResult;
using perfbench::RunOutcome;
using perfbench::Tally;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------- metrics

struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd;
};

/** Every metric the benchmark prints; BENCHMARK.json lists the same. */
constexpr MetricDef metricDefs[] = {
    {"wall_s", "s", true},
    {"minst_per_s", "Minst/s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MB", true},
    {"pass_ratio", "ratio", true},

    {"trace.records", "count", false},
    {"trace.ns_per_record", "ns", false},
    {"cache.l2.hits", "count", false},
    {"cache.l2.misses", "count", false},
    {"cache.llc.hits", "count", false},
    {"cache.llc.misses", "count", false},
    {"cache.llc.hit_ratio", "ratio", false},
    {"cache.llc.dirty_evictions", "count", false},
    {"cache.ns_per_access", "ns", false},
    {"cpu.instructions", "count", false},
    {"cpu.rob_stalls", "count", false},
    {"cpu.mshr_stalls", "count", false},
    {"cpu.ipc", "inst/cycle", false},
    {"cpu.residual_s", "s", false},
    {"rrm.registrations", "count", false},
    {"rrm.clean_filtered", "count", false},
    {"rrm.registration_hit_ratio", "ratio", false},
    {"rrm.promotions", "count", false},
    {"rrm.fast_writes", "count", false},
    {"rrm.slow_writes", "count", false},
    {"rrm.fast_refreshes", "count", false},
    {"rrm.ns_per_registration", "ns", false},
    {"policy.rrm_ipc_gain", "ratio", false},
    {"memctrl.reads", "count", false},
    {"memctrl.writes", "count", false},
    {"memctrl.refreshes", "count", false},
    {"memctrl.row_hit_ratio", "ratio", false},
    {"memctrl.write_pauses", "count", false},
    {"memctrl.drain_entries", "count", false},
    {"memctrl.read_latency_ns", "ns", false},
    {"memctrl.ns_per_request", "ns", false},
    {"sim.events", "count", false},
    {"sim.events_per_minst", "events/Minst", false},
    {"system.fill_refusals", "count", false},
    {"system.writeback_blocked", "count", false},
    {"system.refresh_overflows", "count", false},
    {"run.busy_s", "s", false},
    {"run.idle_s", "s", false},
    {"run.slowest_s", "s", false},
    {"run.imbalance", "ratio", false},
    {"replay.records", "count", false},
    {"replay.llc_misses", "count", false},
    {"replay.llc_dirty_evictions", "count", false},
    {"replay.registrations", "count", false},
    {"replay.wall_s", "s", false},
    {"replay.span_overhead", "ratio", false},
};

/** Metric values of one kind, printed in metricDefs order. */
class Metrics
{
  public:
    explicit Metrics(bool end_to_end) : endToEnd_(end_to_end) {}

    void
    set(const std::string &name, double value)
    {
        for (const MetricDef &d : metricDefs) {
            if (name == d.name && d.endToEnd == endToEnd_) {
                values_[name] = value;
                return;
            }
        }
        throw std::logic_error("metric '" + name + "' is not defined");
    }

    void
    printTable() const
    {
        for (const MetricDef &d : selected())
            std::printf("  %-28s %-16s %s\n", d.name,
                        format(value(d)).c_str(), d.unit);
    }

    /** The "metrics" object of the result line. */
    std::string
    json() const
    {
        std::string out = "{";
        for (const MetricDef &d : selected()) {
            if (out.size() > 1)
                out += ", ";
            out += std::string("\"") + d.name + "\": {\"value\": " +
                   format(value(d)) + ", \"unit\": \"" + d.unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::vector<MetricDef>
    selected() const
    {
        std::vector<MetricDef> out;
        for (const MetricDef &d : metricDefs)
            if (d.endToEnd == endToEnd_)
                out.push_back(d);
        return out;
    }

    double
    value(const MetricDef &d) const
    {
        const auto it = values_.find(d.name);
        if (it == values_.end())
            throw std::logic_error(std::string("metric '") + d.name +
                                   "' was not measured");
        return it->second;
    }

    static std::string
    format(double v)
    {
        if (!std::isfinite(v))
            throw std::logic_error("non-finite metric value");
        char buf[40];
        if (v == std::floor(v) && std::fabs(v) < 9.0e15)
            std::snprintf(buf, sizeof buf, "%.0f", v);
        else
            std::snprintf(buf, sizeof buf, "%.17g", v);
        return buf;
    }

    bool endToEnd_;
    std::map<std::string, double> values_;
};

// -------------------------------------------------------------- workloads

/**
 * The first selective-refresh round fires one short-retention
 * interval after start: (2 s - 10 ms guard) / timeScale 50 = 39.8 ms.
 * RRM windows end past it so it lands inside the measured part
 * [0.2 W, W] of every RRM run.
 */
constexpr double rrmWindowSeconds = 0.042;

/** hmmer has no RRM; a short window keeps a repeat near 2 s. */
constexpr double hmmerWindowSeconds = 0.010;

/** Fresh processes whose set-up time setup_s takes the median of. */
constexpr int setupSamples = 9;

/** Timed repeats per process even when --seconds is already spent. */
constexpr int minRepeats = 2;

struct RunConfig
{
    std::string id;
    sys::SystemConfig config;
};

sys::SystemConfig
makeConfig(const trace::Workload &workload, const sys::Scheme &scheme,
           double window, std::uint64_t seed)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    cfg.hierarchy.numCores = static_cast<unsigned>(workload.numCores());
    cfg.scheme = scheme;
    cfg.windowSeconds = window;
    cfg.seed = seed;
    return cfg;
}

RunConfig
runConfig(const trace::Workload &workload, const sys::Scheme &scheme,
          double window, std::uint64_t seed)
{
    return {workload.name + "." + scheme.name(),
            makeConfig(workload, scheme, window, seed)};
}

const sys::Scheme static7 = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);
const sys::Scheme static3 = sys::Scheme::staticScheme(pcm::WriteMode::Sets3);
const sys::Scheme rrmScheme = sys::Scheme::rrmScheme();

struct WorkloadDef
{
    const char *name;
    /** Runner workers; 0 = one System timed directly. */
    unsigned jobs;
    std::vector<RunConfig> (*configs)(std::uint64_t seed);
};

const WorkloadDef workloadDefs[] = {
    {"hmmer-static7", 0,
     [](std::uint64_t seed) {
         return std::vector<RunConfig>{
             runConfig(trace::workloadFromName("hmmer"), static7,
                       hmmerWindowSeconds, seed)};
     }},
    {"mix2-rrm", 0,
     [](std::uint64_t seed) {
         return std::vector<RunConfig>{runConfig(
             trace::mix2Workload(), rrmScheme, rrmWindowSeconds, seed)};
     }},
    {"fig-mini", 2,
     [](std::uint64_t seed) {
         std::vector<RunConfig> runs;
         for (const char *bench : {"mcf", "lbm", "zeusmp"}) {
             for (const sys::Scheme &s : {static7, static3, rrmScheme}) {
                 runs.push_back(runConfig(trace::workloadFromName(bench), s,
                                          rrmWindowSeconds, seed));
             }
         }
         return runs;
     }},
};

// ------------------------------------------------------------- execution

/** What the benchmark keeps of one finished run. */
struct RunSlot
{
    RunOutcome outcome;
    LayerCounts counts;
    double ipc = 0.0;
    std::uint64_t instructions = 0;
    bool done = false;

    /** Judge the run (audits included) and, if asked, read its counts. */
    void
    fill(sys::System &system, const sys::SimResults &r,
         const std::string &id, bool keep_counts)
    {
        outcome = perfbench::outcomeOf(system, r, id);
        if (keep_counts)
            counts = perfbench::layerCountsOf(system, r);
        ipc = r.aggregateIpc;
        instructions = r.totalInstructions;
        done = true;
    }
};

/**
 * Construct and run one System, timing run() alone, then judge it
 * into `slot` and the tally. Returns run()'s wall seconds, or nothing
 * when the System threw (tallied as failed).
 */
std::optional<double>
runSystem(const RunConfig &rc, RunSlot &slot, bool keep_counts,
          Tally &tally)
{
    try {
        sys::System system(rc.config);
        const Clock::time_point t0 = Clock::now();
        const sys::SimResults r = system.run();
        const double wall = secondsSince(t0);
        slot.fill(system, r, rc.id, keep_counts);
        tally.record(slot.outcome);
        return wall;
    } catch (const std::exception &e) {
        tally.recordError(rc.id, e.what());
        return std::nullopt;
    }
}

struct PlanRun
{
    run::RunReport report;
    double makespan = 0.0; ///< wall seconds of Runner::execute()
};

/**
 * Execute the plan of `runs` on def.jobs workers. Each run's post-run
 * hook judges it into slots[i] (on its worker thread, touching only
 * that slot); every run is then tallied.
 */
PlanRun
runPlan(const WorkloadDef &def, const std::vector<RunConfig> &runs,
        std::vector<RunSlot> &slots, bool keep_counts, Tally &tally)
{
    slots.assign(runs.size(), RunSlot{});
    run::RunPlan plan;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        run::RunSpec &spec = plan.add(runs[i].config, runs[i].id);
        RunSlot *slot = &slots[i];
        const std::string id = runs[i].id;
        spec.postRun = [slot, id, keep_counts](const sys::System &system,
                                               const sys::SimResults &r) {
            // runAudits() is non-const; the Runner owns a non-const
            // System and lends it to this hook after run() returned.
            slot->fill(const_cast<sys::System &>(system), r, id,
                       keep_counts);
        };
    }
    plan.validate();
    run::RunnerOptions opts;
    opts.jobs = def.jobs;
    PlanRun out;
    const Clock::time_point t0 = Clock::now();
    out.report = run::Runner(opts).execute(plan);
    out.makespan = secondsSince(t0);
    for (std::size_t i = 0; i < out.report.runs.size(); ++i) {
        const run::RunResult &rr = out.report.runs[i];
        if (rr.status == run::RunStatus::Ok && slots[i].done) {
            tally.record(slots[i].outcome);
        } else {
            tally.recordError(rr.id, std::string("run ") +
                                         run::runStatusName(rr.status) +
                                         ": " + rr.error);
        }
    }
    return out;
}

/**
 * One set-up as a user's process pays it: configs, plan + validate()
 * for plans, and every System, timed from `start` (process start).
 */
double
timeSetup(const WorkloadDef &def, std::uint64_t seed,
          Clock::time_point start)
{
    const std::vector<RunConfig> runs = def.configs(seed);
    if (def.jobs) {
        run::RunPlan plan;
        for (const RunConfig &rc : runs)
            plan.add(rc.config, rc.id);
        plan.validate();
    }
    for (const RunConfig &rc : runs)
        sys::System system(rc.config);
    return secondsSince(start);
}

/**
 * Run `perfbench --setup-probe` in a fresh process and return the
 * set-up seconds it prints. Repeating the set-up in this process
 * instead would time whatever the allocator kept from the previous
 * one: depending on allocation order, a repeat either reuses touched
 * memory or faults fresh pages in, a two-fold swing.
 */
double
spawnSetupProbe(const WorkloadDef &def, std::uint64_t seed)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("setup probe: pipe() failed");
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    std::string seed_arg = std::to_string(seed);
    std::string name_arg = def.name;
    char arg0[] = "perfbench";
    char arg1[] = "--setup-probe";
    char arg2[] = "--workload";
    char arg4[] = "--seed";
    char *argv[] = {arg0, arg1, arg2, name_arg.data(),
                    arg4, seed_arg.data(), nullptr};
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(got));
    close(fds[0]);
    if (rc != 0)
        throw std::runtime_error("setup probe: posix_spawn() failed");
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
        throw std::runtime_error("setup probe process failed");
    }
    // The set-up time is the last line; log lines may precede it.
    while (!out.empty() && out.back() == '\n')
        out.pop_back();
    const std::string last = out.substr(out.find_last_of('\n') + 1);
    char *end = nullptr;
    const double seconds = std::strtod(last.c_str(), &end);
    if (end == last.c_str() || *end != '\0' || !(seconds > 0.0))
        throw std::runtime_error("setup probe printed '" + out + "'");
    return seconds;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/** --trace 0: repeated untraced runs for the end-to-end metrics. */
Metrics
measureEndToEnd(const WorkloadDef &def, std::uint64_t seed,
                double seconds, Tally &tally)
{
    std::vector<double> setups;
    for (int i = 0; i < setupSamples; ++i)
        setups.push_back(spawnSetupProbe(def, seed));

    const std::vector<RunConfig> runs = def.configs(seed);
    std::vector<double> walls;
    std::uint64_t instructions = 0;
    const Clock::time_point start = Clock::now();
    while (static_cast<int>(walls.size()) < minRepeats ||
           secondsSince(start) < seconds) {
        std::vector<RunSlot> slots(1);
        if (def.jobs) {
            walls.push_back(runPlan(def, runs, slots, false, tally).makespan);
        } else if (const auto wall =
                       runSystem(runs.front(), slots[0], false, tally)) {
            walls.push_back(*wall);
        } else {
            break;
        }
        instructions = 0;
        for (const RunSlot &slot : slots)
            instructions += slot.instructions;
    }

    const double wall = median(walls);
    Metrics m(true);
    m.set("wall_s", wall);
    m.set("minst_per_s", ratio(static_cast<double>(instructions) / 1e6, wall));
    m.set("setup_s", median(setups));
    m.set("peak_rss_mb", peakRssMb());
    m.set("pass_ratio",
          ratio(static_cast<double>(tally.attempted() - tally.failed()),
                static_cast<double>(tally.attempted())));
    std::printf("samples: wall_s %zu repeat(s), setup_s %d process(es); "
                "fail_ratio = 1 - pass_ratio = %llu/%llu\n",
                walls.size(), setupSamples,
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted()));
    std::printf("wall_s samples:");
    for (double w : walls)
        std::printf(" %.4f", w);
    std::printf("\nsetup_s samples:");
    for (double s : setups)
        std::printf(" %.6f", s);
    std::printf("\n");
    return m;
}

/** --trace 1: layer counts of one untraced pass plus replay times. */
Metrics
measureLayers(const WorkloadDef &def, std::uint64_t seed, Tally &tally)
{
    const std::vector<RunConfig> runs = def.configs(seed);
    std::vector<RunSlot> slots;
    std::vector<double> run_walls;
    double makespan = 0.0;
    double slowest = 0.0;

    if (def.jobs) {
        const PlanRun plan = runPlan(def, runs, slots, true, tally);
        makespan = plan.makespan;
        for (const run::RunResult &rr : plan.report.runs) {
            run_walls.push_back(rr.wallSeconds);
            slowest = std::max(slowest, rr.wallSeconds);
        }
    } else {
        slots.resize(1);
        if (const auto wall = runSystem(runs.front(), slots[0], true, tally))
            run_walls.push_back(*wall);
    }

    LayerCounts sum;
    ReplayResult traced;
    // Span overhead: the first finished run replayed with spans off,
    // then on. One pair keeps the plan's traced pass well inside the
    // benchmark's time limit.
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    double ipc_sum = 0.0;
    std::map<std::string, std::map<std::string, double>> ipc_by;
    std::size_t done = 0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (!slots[i].done)
            continue;
        ++done;
        sum += slots[i].counts;
        ipc_sum += slots[i].ipc;
        const sys::SystemConfig &cfg = runs[i].config;
        ipc_by[cfg.workload.name][cfg.scheme.name()] = slots[i].ipc;

        const std::vector<std::uint64_t> &per_core =
            slots[i].counts.windowRecordsPerCore;
        const bool first = done == 1;
        if (first) {
            untraced_wall =
                perfbench::replay(cfg, per_core, false).wallSeconds;
        }
        const ReplayResult on = perfbench::replay(cfg, per_core, true);
        if (first)
            traced_wall = on.wallSeconds;
        traced += on;
    }

    const auto layer_s = [&](perfbench::Layer l) {
        return traced.layerSeconds[static_cast<std::size_t>(l)];
    };
    double span_sum = 0.0;
    for (double s : traced.layerSeconds)
        span_sum += s;
    double busy = 0.0;
    for (double w : run_walls)
        busy += w;

    Metrics m(false);
    m.set("trace.records", static_cast<double>(sum.records));
    m.set("trace.ns_per_record",
          ratio(layer_s(perfbench::Layer::Trace) * 1e9,
                static_cast<double>(traced.records)));
    m.set("cache.l2.hits", static_cast<double>(sum.l2Hits));
    m.set("cache.l2.misses", static_cast<double>(sum.l2Misses));
    m.set("cache.llc.hits", static_cast<double>(sum.llcHits));
    m.set("cache.llc.misses", static_cast<double>(sum.llcMisses));
    m.set("cache.llc.hit_ratio",
          ratio(static_cast<double>(sum.llcHits),
                static_cast<double>(sum.llcHits + sum.llcMisses)));
    m.set("cache.llc.dirty_evictions",
          static_cast<double>(sum.llcDirtyEvictions));
    m.set("cache.ns_per_access",
          ratio(layer_s(perfbench::Layer::Cache) * 1e9,
                static_cast<double>(traced.cacheCalls)));
    m.set("cpu.instructions", static_cast<double>(sum.instructions));
    m.set("cpu.rob_stalls", static_cast<double>(sum.robStalls));
    m.set("cpu.mshr_stalls", static_cast<double>(sum.mshrStalls));
    m.set("cpu.ipc", ratio(ipc_sum, static_cast<double>(done)));
    m.set("cpu.residual_s", busy - span_sum);
    m.set("rrm.registrations", static_cast<double>(sum.registrations));
    m.set("rrm.clean_filtered", static_cast<double>(sum.cleanFiltered));
    m.set("rrm.registration_hit_ratio",
          ratio(static_cast<double>(sum.registrationHits),
                static_cast<double>(sum.registrations - sum.cleanFiltered)));
    m.set("rrm.promotions", static_cast<double>(sum.promotions));
    m.set("rrm.fast_writes", static_cast<double>(sum.fastWrites));
    m.set("rrm.slow_writes", static_cast<double>(sum.slowWrites));
    m.set("rrm.fast_refreshes", static_cast<double>(sum.fastRefreshes));
    m.set("rrm.ns_per_registration",
          ratio(layer_s(perfbench::Layer::Policy) * 1e9,
                static_cast<double>(traced.registrationCalls)));

    // Geometric mean over workloads of RRM IPC / Static-7 IPC.
    double log_gain = 0.0;
    int gains = 0;
    for (const auto &[workload, by_scheme] : ipc_by) {
        const auto r = by_scheme.find(rrmScheme.name());
        const auto s = by_scheme.find(static7.name());
        if (r != by_scheme.end() && s != by_scheme.end() && s->second > 0 &&
            r->second > 0) {
            log_gain += std::log(r->second / s->second);
            ++gains;
        }
    }
    m.set("policy.rrm_ipc_gain", gains ? std::exp(log_gain / gains) : 0.0);

    m.set("memctrl.reads", static_cast<double>(sum.memReads));
    m.set("memctrl.writes", static_cast<double>(sum.memWrites));
    m.set("memctrl.refreshes", static_cast<double>(sum.memRefreshes));
    m.set("memctrl.row_hit_ratio",
          ratio(static_cast<double>(sum.rowHits),
                static_cast<double>(sum.memReads)));
    m.set("memctrl.write_pauses", static_cast<double>(sum.writePauses));
    m.set("memctrl.drain_entries", static_cast<double>(sum.drainEntries));
    m.set("memctrl.read_latency_ns",
          ratio(sum.readLatencySumTicks,
                static_cast<double>(sum.readLatencySamples)) /
              static_cast<double>(tickPerNs));
    m.set("memctrl.ns_per_request",
          ratio(layer_s(perfbench::Layer::Memctrl) * 1e9,
                static_cast<double>(traced.memRequests)));
    m.set("sim.events", static_cast<double>(sum.events));
    m.set("sim.events_per_minst",
          ratio(static_cast<double>(sum.events),
                static_cast<double>(sum.instructions) / 1e6));
    m.set("system.fill_refusals", static_cast<double>(sum.fillRefusals));
    m.set("system.writeback_blocked",
          static_cast<double>(sum.writebackBlocked));
    m.set("system.refresh_overflows",
          static_cast<double>(sum.refreshOverflows));

    const double jobs = def.jobs;
    m.set("run.busy_s", def.jobs ? busy : 0.0);
    m.set("run.idle_s", def.jobs ? jobs * makespan - busy : 0.0);
    m.set("run.slowest_s", def.jobs ? slowest : 0.0);
    m.set("run.imbalance", def.jobs ? ratio(makespan, busy / jobs) : 0.0);

    m.set("replay.records", static_cast<double>(traced.windowRecords));
    m.set("replay.llc_misses", static_cast<double>(traced.llcMisses));
    m.set("replay.llc_dirty_evictions",
          static_cast<double>(traced.llcDirtyEvictions));
    m.set("replay.registrations", static_cast<double>(traced.registrations));
    m.set("replay.wall_s", untraced_wall);
    m.set("replay.span_overhead", ratio(traced_wall, untraced_wall));

    std::printf("replay fidelity (replay vs untraced run, window counts):\n");
    const auto side = [](const char *what, std::uint64_t replayed,
                         std::uint64_t run) {
        std::printf("  %-18s %12llu vs %12llu  (%.3f)\n", what,
                    static_cast<unsigned long long>(replayed),
                    static_cast<unsigned long long>(run),
                    ratio(static_cast<double>(replayed),
                          static_cast<double>(run)));
    };
    side("trace records", traced.windowRecords, sum.records);
    side("LLC misses", traced.llcMisses, sum.llcMisses);
    side("dirty evictions", traced.llcDirtyEvictions, sum.llcDirtyEvictions);
    side("RRM registrations", traced.registrations, sum.registrations);
    std::printf("  replay wall %.3f s with %zu spans; first run %.3f s "
                "with spans vs %.3f s without\n",
                traced.wallSeconds, traced.spans, traced_wall,
                untraced_wall);
    if (def.jobs) {
        std::printf("policy.rrm_ipc_gain: paper reports 1.620 (+62.0%%); "
                    "this model is not validated against hardware, so no "
                    "error figure is given\n");
    }
    std::printf("cpu.residual_s = untraced System::run() wall minus the "
                "replayed layers' span time (a residual, not a span)\n");
    return m;
}

void
listMetrics()
{
    for (const MetricDef &d : metricDefs)
        std::printf("%s %s %s\n", d.endToEnd ? "end_to_end" : "per_layer",
                    d.name, d.unit);
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <name> [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "       perfbench --list-metrics | --self-test\n"
                 "       perfbench --setup-probe --workload <name> "
                 "[--seed N]\n"
                 "workloads:",
                 problem.c_str());
    for (const WorkloadDef &d : workloadDefs)
        std::fprintf(stderr, " %s", d.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point process_start = Clock::now();
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    bool setup_probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (arg == "--self-test")
            return perfbench::runSelfTest();
        if (arg == "--setup-probe") {
            setup_probe = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed '" + value + "'");
        } else if (arg == "--seconds") {
            seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(seconds > 0.0))
                usage("bad --seconds '" + value + "'");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace '" + value + "'");
            traced = value == "1";
        } else {
            usage("unknown argument " + arg);
        }
    }
    const WorkloadDef *def = nullptr;
    for (const WorkloadDef &d : workloadDefs)
        if (workload == d.name)
            def = &d;
    if (!def)
        usage("unknown or missing --workload '" + workload + "'");
    if (setup_probe) {
        std::printf("%.9f\n", timeSetup(*def, seed, process_start));
        return 0;
    }

    std::printf("perfbench: workload %s, seed %llu, %s\n", def->name,
                static_cast<unsigned long long>(seed),
                traced ? "traced replay (per-layer metrics)"
                       : "untraced runs (end-to-end metrics)");
    try {
        Tally tally;
        const Metrics m = traced ? measureLayers(*def, seed, tally)
                                 : measureEndToEnd(*def, seed, seconds, tally);
        for (const std::string &msg : tally.messages())
            std::printf("check failed: %s\n", msg.c_str());
        m.printTable();
        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                    "\"metrics\": %s}\n",
                    tally.failed() == 0 && tally.attempted() > 0 ? "true"
                                                                 : "false",
                    static_cast<unsigned long long>(tally.attempted()),
                    static_cast<unsigned long long>(tally.failed()),
                    m.json().c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
