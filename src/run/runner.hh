/**
 * @file
 * Runner: executes a RunPlan on a pool of worker threads.
 *
 * Determinism contract: every run owns a fully isolated System,
 * EventQueue, and RNG seeded from its own config, so a run's
 * SimResults and observability outputs depend only on its
 * SystemConfig — never on sibling runs or the worker count. The
 * report lists results in plan order; with distinct per-run output
 * files (enforced by RunPlan::validate) the batch output is
 * byte-identical for any --jobs value. Only wall-clock fields
 * (RunResult::wallSeconds, the report profile) vary.
 *
 * Shared process-global state the workers touch is thread-safe by
 * construction: the log sink and warn_once registry are mutexed, the
 * warn and panic counters are atomic, and the static
 * workload/write-mode tables are immutable after their (thread-safe)
 * first-use initialization. See DESIGN.md section 9.
 */

#ifndef RRM_RUN_RUNNER_HH
#define RRM_RUN_RUNNER_HH

#include "run/run_plan.hh"
#include "run/run_report.hh"

namespace rrm::run
{

/** Execution policy of one Runner. */
struct RunnerOptions
{
    /**
     * Worker threads. 0 selects the hardware concurrency; 1 runs the
     * plan inline on the calling thread (the historical serial
     * behavior — no threads are created).
     */
    unsigned jobs = 0;

    /**
     * Stop dispatching after the first failed run: queued runs are
     * reported Cancelled instead of executed. Runs already in flight
     * on other workers complete normally.
     */
    bool failFast = false;

    /**
     * Print one "[k/n] status id seconds" line per finished run to
     * stderr, serialized under the runner's progress lock. Runs may
     * finish in any order under jobs > 1.
     */
    bool verbose = false;
};

/** Executes RunPlans; stateless between execute() calls. */
class Runner
{
  public:
    explicit Runner(RunnerOptions options = {});

    /** Effective worker count for a plan of `plan_size` runs. */
    unsigned effectiveJobs(std::size_t plan_size) const;

    /**
     * Validate and execute the plan; returns the plan-order report.
     * Run failures (FatalError, PanicError, any std::exception) are
     * captured per run, never thrown; plan-level validation failures
     * throw FatalError before anything executes.
     */
    RunReport execute(const RunPlan &plan) const;

  private:
    RunnerOptions options_;
};

} // namespace rrm::run

#endif // RRM_RUN_RUNNER_HH
