/**
 * @file
 * Output checks of the repository benchmark. Every simulated run the
 * benchmark makes is judged here; a run failing any check counts in
 * the result's `failed` field (and lowers `pass_ratio`).
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "system/system.hh"

namespace perfbench
{

/** What the checks read from one finished (or failed) run. */
struct RunOutcome
{
    std::string id;

    /** The run finished without throwing (Runner status Ok). */
    bool statusOk = false;
    std::string error;

    /** System::runAudits() after run(); 1 if an audit threw. */
    std::uint64_t auditViolations = 0;

    /** The checks.totalViolations stat after the audits. */
    double checkViolations = 0.0;

    std::uint64_t fastWrites = 0;
    std::uint64_t slowWrites = 0;
    std::uint64_t demandWrites = 0;

    /** The run used Static-7-SETs: no fast writes, no RRM refreshes. */
    bool static7 = false;
    std::uint64_t rrmFastRefreshes = 0;
    std::uint64_t rrmSlowRefreshes = 0;

    /**
     * Simulated counts that must repeat exactly for the same run id
     * and seed within one process.
     */
    std::vector<std::uint64_t> counts;
};

/**
 * Build the outcome of a finished run: runs the deep audits (so the
 * System must not be running) and reads the check stats. Throws
 * std::runtime_error when the checks.totalViolations stat is missing.
 */
RunOutcome outcomeOf(rrm::sys::System &system,
                     const rrm::sys::SimResults &results,
                     const std::string &id);

/**
 * Reasons `outcome` fails the output checks; empty when it passes.
 * `reference` holds the counts of the first run with the same id in
 * this process, or is null for that first run.
 */
std::vector<std::string>
checkOutcome(const RunOutcome &outcome,
             const std::vector<std::uint64_t> *reference);

/** Attempted/failed accounting over every run of one benchmark. */
class Tally
{
  public:
    /** Judge one run; returns true when it passes. */
    bool record(const RunOutcome &outcome);

    /** Count a run that never produced an outcome (it threw). */
    void recordError(const std::string &id, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** One line per failure reason, in the order found. */
    const std::vector<std::string> &messages() const { return messages_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> messages_;
    std::map<std::string, std::vector<std::uint64_t>> reference_;
};

/**
 * Feed fabricated outcomes that break each check through a Tally and
 * confirm every one is counted as failed (and a clean one is not).
 * Prints one line per case; returns the process exit code.
 */
int runSelfTest();

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
