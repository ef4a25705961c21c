/**
 * @file
 * Output checks and their self-test.
 */

#include "checks.hh"

#include <cstdio>
#include <exception>
#include <stdexcept>

namespace perfbench
{

using rrm::sys::SimResults;

RunOutcome
outcomeOf(rrm::sys::System &system, const SimResults &results,
          const std::string &id)
{
    RunOutcome o;
    o.id = id;
    o.statusOk = true;
    try {
        o.auditViolations = system.runAudits();
    } catch (const std::exception &e) {
        // The default failure policy throws on the first violation.
        o.auditViolations = 1;
        o.error = e.what();
    }
    const auto *violations = dynamic_cast<const rrm::stats::Formula *>(
        system.statRoot().find("checks.totalViolations"));
    if (!violations)
        throw std::runtime_error("stat 'checks.totalViolations' not found");
    o.checkViolations = violations->value();
    o.fastWrites = results.fastWrites;
    o.slowWrites = results.slowWrites;
    o.demandWrites = results.demandWrites;
    o.static7 = system.config().scheme ==
                rrm::sys::Scheme::staticScheme(rrm::pcm::WriteMode::Sets7);
    o.rrmFastRefreshes = results.rrmFastRefreshes;
    o.rrmSlowRefreshes = results.rrmSlowRefreshes;

    o.counts = {results.totalInstructions, results.llcMisses,
                results.memReads,          results.demandWrites,
                results.fastWrites,        results.slowWrites,
                results.rrmFastRefreshes,  results.rrmSlowRefreshes,
                results.rrmRegistrations,  results.rrmCleanFiltered,
                results.rrmPromotions,     results.rrmDemotions,
                results.eventsExecuted};
    o.counts.insert(o.counts.end(), results.instructions.begin(),
                    results.instructions.end());
    return o;
}

std::vector<std::string>
checkOutcome(const RunOutcome &o,
             const std::vector<std::uint64_t> *reference)
{
    std::vector<std::string> why;
    if (!o.statusOk)
        why.push_back("run did not finish: " + o.error);
    if (o.auditViolations != 0) {
        why.push_back("runAudits() found " +
                      std::to_string(o.auditViolations) +
                      " violation(s)" +
                      (o.error.empty() ? "" : ": " + o.error));
    }
    if (o.checkViolations != 0.0) {
        why.push_back("checks.totalViolations is " +
                      std::to_string(o.checkViolations));
    }
    if (o.fastWrites + o.slowWrites != o.demandWrites) {
        why.push_back("fastWrites + slowWrites (" +
                      std::to_string(o.fastWrites + o.slowWrites) +
                      ") != demandWrites (" +
                      std::to_string(o.demandWrites) + ")");
    }
    if (o.static7 && o.fastWrites != 0)
        why.push_back("Static-7-SETs run issued fast writes");
    if (o.static7 && o.rrmFastRefreshes + o.rrmSlowRefreshes != 0)
        why.push_back("Static-7-SETs run issued RRM refreshes");
    if (reference && *reference != o.counts)
        why.push_back("simulated counts differ from the first repeat");
    return why;
}

bool
Tally::record(const RunOutcome &o)
{
    ++attempted_;
    const auto it = reference_.find(o.id);
    const std::vector<std::string> why =
        checkOutcome(o, it == reference_.end() ? nullptr : &it->second);
    if (it == reference_.end() && o.statusOk)
        reference_.emplace(o.id, o.counts);
    if (why.empty())
        return true;
    ++failed_;
    for (const std::string &w : why)
        messages_.push_back(o.id + ": " + w);
    return false;
}

void
Tally::recordError(const std::string &id, const std::string &what)
{
    ++attempted_;
    ++failed_;
    messages_.push_back(id + ": " + what);
}

int
runSelfTest()
{
    RunOutcome good;
    good.id = "selftest";
    good.statusOk = true;
    good.fastWrites = 3;
    good.slowWrites = 4;
    good.demandWrites = 7;
    good.counts = {1, 2, 3};

    struct Case
    {
        const char *name;
        RunOutcome outcome;
        bool shouldPass;
    };
    std::vector<Case> cases;
    cases.push_back({"clean run", good, true});
    cases.push_back({"repeat with identical counts", good, true});

    RunOutcome o = good;
    o.slowWrites = 5;
    cases.push_back({"fast + slow != demand", o, false});
    o = good;
    o.auditViolations = 1;
    cases.push_back({"nonzero audit", o, false});
    o = good;
    o.checkViolations = 2;
    cases.push_back({"nonzero checks.totalViolations", o, false});
    o = good;
    o.statusOk = false;
    o.error = "fabricated";
    cases.push_back({"run failed", o, false});
    o = good;
    o.static7 = true;
    cases.push_back({"Static-7 with fast writes", o, false});
    o = good;
    o.static7 = true;
    o.fastWrites = 0;
    o.slowWrites = 7;
    o.rrmSlowRefreshes = 1;
    cases.push_back({"Static-7 with RRM refreshes", o, false});
    o = good;
    o.counts = {1, 2, 4};
    cases.push_back({"counts differ between repeats", o, false});

    Tally tally;
    int bad = 0;
    for (const Case &c : cases) {
        const std::uint64_t failed_before = tally.failed();
        const bool passed = tally.record(c.outcome);
        const bool counted_failed = tally.failed() == failed_before + 1;
        const bool ok = passed == c.shouldPass && counted_failed == !passed;
        std::printf("%s: %s -> %s\n", ok ? "ok" : "WRONG", c.name,
                    passed ? "passed" : "counted as failed");
        if (!ok)
            ++bad;
    }
    tally.recordError("selftest", "fabricated exception");
    if (tally.attempted() != cases.size() + 1 ||
        tally.failed() != cases.size() - 1) {
        std::printf("WRONG: tally %llu attempted / %llu failed\n",
                    static_cast<unsigned long long>(tally.attempted()),
                    static_cast<unsigned long long>(tally.failed()));
        ++bad;
    }
    std::printf("self-test: %s\n", bad ? "FAILED" : "passed");
    return bad ? 1 : 0;
}

} // namespace perfbench
