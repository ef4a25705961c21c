/**
 * @file
 * Machine-readable throughput report of one executed RunPlan — the
 * payload of bench_speed's BENCH_speed.json and the input format of
 * tools/bench-diff.
 *
 * Schema (schemaVersion 1):
 *   {
 *     "schemaVersion": 1,
 *     "bench": "<name>",
 *     "metadata": { tool, gitDescribe, timestampUtc },
 *     "runs": [ { "id", "status", "eventsExecuted",
 *                 "wallSeconds", "eventsPerSecond" }, ... ],
 *     "totals": { "eventsExecuted", "wallSeconds",
 *                 "eventsPerSecond" }
 *   }
 *
 * Determinism contract: run ids, statuses, and eventsExecuted depend
 * only on the plan's configs. The wall-clock metrics come from
 * obs::monotonicSeconds(), so under SOURCE_DATE_EPOCH every
 * wallSeconds / eventsPerSecond field is exactly 0 and the report is
 * byte-identical across --jobs values (the jobs 1-vs-4 test relies on
 * this; execution details like the worker count are excluded).
 */

#ifndef RRM_RUN_SPEED_REPORT_HH
#define RRM_RUN_SPEED_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "run/run_report.hh"

namespace rrm::run
{

/** Schema version of the speed reports. */
constexpr int speedReportSchemaVersion = 1;

/** Simulator events `run` executed; 0 unless it finished Ok. */
std::uint64_t eventsExecuted(const RunResult &run);

/**
 * Host throughput of `run`: eventsExecuted(run) / wallSeconds, 0 when
 * the clock is pinned (SOURCE_DATE_EPOCH) or the run was not Ok.
 */
double eventsPerSecond(const RunResult &run);

/**
 * Write the throughput report of `report` (see the schema above).
 * `totals.wallSeconds` is the whole-plan wall time, so
 * `totals.eventsPerSecond` reflects actual parallel throughput, not
 * the sum of per-run rates.
 */
void writeSpeedReport(std::ostream &os, const std::string &bench_name,
                      const RunReport &report);

} // namespace rrm::run

#endif // RRM_RUN_SPEED_REPORT_HH
