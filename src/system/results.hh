/**
 * @file
 * Measurement results of one simulation run, with the scaled-time
 * extrapolation rules applied (DESIGN.md section 3): demand traffic is
 * a rate over the measured window; refresh traffic is a rate over
 * `timeScale x` that window; global refresh is analytic.
 */

#ifndef RRM_SYSTEM_RESULTS_HH
#define RRM_SYSTEM_RESULTS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace rrm::sys
{

/** Results of one (workload, scheme) run. */
struct SimResults
{
    std::string workload;
    std::string scheme;

    /** Measured (post-warmup) window, in scaled seconds. */
    double windowSeconds = 0.0;

    /** Retention compression factor of the run. */
    double timeScale = 1.0;

    /**
     * Simulator events executed over the whole run (warmup included).
     * Host-side throughput accounting only — deliberately NOT part of
     * toJson() so run records stay byte-identical across machines.
     */
    std::uint64_t eventsExecuted = 0;

    // ---- Performance (one entry per core of the workload) ----
    std::vector<std::uint64_t> instructions;
    std::uint64_t totalInstructions = 0;
    std::vector<double> ipcPerCore;
    double aggregateIpc = 0.0; ///< sum of per-core IPC

    // ---- Cache behaviour ----
    std::uint64_t llcMisses = 0;
    double mpki = 0.0;

    // ---- Memory traffic (counts within the window) ----
    std::uint64_t memReads = 0;
    std::uint64_t demandWrites = 0;
    std::uint64_t fastWrites = 0; ///< demand writes in fast mode
    std::uint64_t slowWrites = 0; ///< demand writes in slow mode
    std::uint64_t rrmFastRefreshes = 0;
    std::uint64_t rrmSlowRefreshes = 0;

    // ---- Wear rates (block writes per real second, whole array) ----
    double demandWriteRate = 0.0;
    double rrmRefreshRate = 0.0;
    double globalRefreshRate = 0.0;

    /** Estimated array lifetime. */
    double lifetimeYears = 0.0;

    // ---- Power (J per real second) by cause ----
    double readPower = 0.0;
    double demandWritePower = 0.0;
    double rrmRefreshPower = 0.0;
    double globalRefreshPower = 0.0;

    double
    totalPower() const
    {
        return readPower + demandWritePower + rrmRefreshPower +
               globalRefreshPower;
    }

    /** Total wear rate (block writes per real second). */
    double
    totalWearRate() const
    {
        return demandWriteRate + rrmRefreshRate + globalRefreshRate;
    }

    // ---- Fault layer (populated only when fault injection is on) ----
    struct FaultResults
    {
        bool enabled = false;
        std::uint64_t retentionStamps = 0;
        std::uint64_t retentionViolations = 0;
        std::uint64_t transientWriteFaults = 0;
        std::uint64_t writeRetries = 0;
        std::uint64_t writesUnrecovered = 0;
        std::uint64_t stuckAtFaults = 0;
        std::uint64_t stuckAtRepaired = 0;
        std::uint64_t linesRetired = 0;
        std::uint64_t spareExhausted = 0;
        std::uint64_t refreshDropped = 0;
        std::uint64_t refreshStalls = 0;
        std::uint64_t fallbackEntries = 0;
        std::uint64_t fallbackExits = 0;
    };
    FaultResults fault;

    // ---- Tenants (populated only on multi-tenant workloads) ----
    struct TenantResults
    {
        unsigned tenant = 0;
        std::vector<unsigned> cores; ///< core ids owned by the tenant
        std::uint64_t instructions = 0;
        double ipc = 0.0; ///< sum of the tenant's per-core IPC
        std::uint64_t memReads = 0;
        std::uint64_t fastWrites = 0;
        std::uint64_t slowWrites = 0;
        std::uint64_t fastRefreshes = 0;
        std::uint64_t slowRefreshes = 0;
    };

    /**
     * One entry per tenant on multi-tenant workloads; empty (and
     * absent from the JSON) on single-tenant runs so existing run
     * records stay byte-identical.
     */
    std::vector<TenantResults> tenants;

    // ---- RRM behaviour ----
    std::uint64_t rrmRegistrations = 0;
    std::uint64_t rrmCleanFiltered = 0;
    std::uint64_t rrmRegistrationHits = 0;
    std::uint64_t rrmAllocations = 0;
    std::uint64_t rrmEvictions = 0;
    std::uint64_t rrmPromotions = 0;
    std::uint64_t rrmDemotions = 0;
    std::uint64_t rrmEvictionFlushes = 0;
    std::uint64_t rrmHotEntriesAtEnd = 0;

    /** Fraction of demand writes issued in the fast mode. */
    double
    fastWriteFraction() const
    {
        const auto total = fastWrites + slowWrites;
        return total ? static_cast<double>(fastWrites) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /**
     * Emit this record as one JSON object at the writer's current
     * value slot (every field above plus the derived totals).
     */
    void toJson(obs::JsonWriter &json) const;

    /** Standalone pretty-printed JSON document of this record. */
    std::string toJsonString() const;
};

} // namespace rrm::sys

#endif // RRM_SYSTEM_RESULTS_HH
