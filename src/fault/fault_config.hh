/**
 * @file
 * Fault-injection and graceful-degradation configuration.
 */

#ifndef RRM_FAULT_FAULT_CONFIG_HH
#define RRM_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hh"

namespace rrm::fault
{

/**
 * Static configuration of the fault model. All knobs default to
 * "off": a default-constructed FaultConfig is `!enabled()` and the
 * simulator behaves (and emits output) exactly as if the fault layer
 * did not exist.
 */
struct FaultConfig
{
    // ----- retention-expiry model -------------------------------------

    /**
     * Stamp every short-retention block write with a deadline derived
     * from the Table I retention numbers (scaled by the system
     * timeScale) and raise a retention-violation fault when no
     * refresh or rewrite arrives in time.
     */
    bool retentionTracking = false;

    /**
     * Only write modes whose *unscaled* retention is at or below this
     * bound are deadline-tracked. The default covers 3-SETs (2.01 s)
     * but not 4-SETs (24.05 s) and above, whose deadlines are orders
     * of magnitude beyond any simulated window.
     */
    double trackRetentionMaxSeconds = 3.0;

    /**
     * Extra allowance added to every deadline, in *simulated* seconds
     * (not divided by timeScale). The paper's 0.01 s guardband
     * compresses with timeScale while queue service time does not;
     * this knob restores headroom for heavily compressed runs.
     */
    double retentionSlackSeconds = 0.0;

    /** RRM_CHECK on any retention violation or unrecovered write. */
    bool strict = false;

    // ----- transient write failures -----------------------------------

    /** Probability that a completed write is injected as failed. */
    double transientWriteFailureRate = 0.0;

    /** Rewrite attempts before a failed write is declared lost. */
    unsigned maxWriteRetries = 3;

    /** First rewrite backoff; doubles per attempt up to the cap. */
    Tick retryBackoff = 200_ns;
    Tick maxRetryBackoff = 10_us;

    // ----- stuck-at hard faults ---------------------------------------

    /**
     * Every time a wear region's write count crosses a multiple of
     * this threshold, draw for a new stuck-at cell. 0 disables.
     */
    std::uint64_t stuckAtWearThreshold = 0;

    /** Probability that a threshold crossing develops a stuck-at. */
    double stuckAtRate = 1.0;

    /** ECP-style per-line repair budget (ECP-6 by default). */
    unsigned repairBudgetPerLine = 6;

    /** Spare blocks available for retiring budget-exhausted lines. */
    std::uint64_t spareBlocks = 1024;

    // ----- refresh-queue stalls ---------------------------------------

    /**
     * Periodically hold all refresh issue for `refreshStallSeconds`
     * (simulated seconds); demand traffic is unaffected. 0 disables.
     */
    double refreshStallSeconds = 0.0;

    /** Stall period; 0 means 4x the stall duration. */
    double refreshStallPeriodSeconds = 0.0;

    // ----- refresh-pressure fallback ----------------------------------

    /**
     * Demote hot regions to slow writes while any channel's refresh
     * queue stays above the high watermark, restoring fast writes
     * once the deepest queue falls to the low watermark. Only active
     * under the RRM scheme when the fault layer is enabled.
     */
    bool fallback = true;
    unsigned fallbackHighWatermark = 48;
    unsigned fallbackLowWatermark = 8;

    /** Governor poll period in simulated seconds. */
    double fallbackPollSeconds = 0.0005;

    /** Consecutive saturated polls required to enter fallback. */
    unsigned fallbackEnterPolls = 2;

    /** Mixed with the system seed for the injector RNG streams. */
    std::uint64_t seed = 0;

    /** True when any part of the fault layer is switched on. */
    bool
    enabled() const
    {
        return retentionTracking || transientWriteFailureRate > 0.0 ||
               stuckAtWearThreshold > 0 || refreshStallSeconds > 0.0;
    }

    double
    effectiveStallPeriodSeconds() const
    {
        return refreshStallPeriodSeconds > 0.0 ? refreshStallPeriodSeconds
                                               : 4.0 * refreshStallSeconds;
    }

    /** Append configuration errors; empty vector means valid. */
    void collectErrors(std::vector<std::string> &errors,
                       unsigned refresh_queue_cap) const;
};

} // namespace rrm::fault

#endif // RRM_FAULT_FAULT_CONFIG_HH
