/**
 * @file
 * User-facing observability knobs, embedded in SystemConfig. All
 * outputs are off by default so untouched configurations behave (and
 * cost) exactly as before.
 */

#ifndef RRM_OBS_OBS_CONFIG_HH
#define RRM_OBS_OBS_CONFIG_HH

#include <string>

namespace rrm::obs
{

/** Observability configuration of one simulation run. */
struct ObsOptions
{
    /**
     * Trace output file; empty disables tracing entirely (the trace
     * macros then cost one pointer test). JSONL.
     */
    std::string traceFile;

    /**
     * Chrome-trace / Perfetto JSON timeline (loadable in
     * ui.perfetto.dev); may be combined with traceFile — both then
     * receive the same event stream through a tee.
     */
    std::string perfettoFile;

    /**
     * Sampled time series as CSV; empty disables sampling. One row
     * per RRM decay tick (0.125 s at native scale), or per
     * 0.125 s / timeScale for static schemes.
     */
    std::string sampleCsvFile;

    /**
     * Full run record (metadata + config + results + stats tree +
     * profile) written at the end of System::run().
     */
    std::string runRecordFile;

    /** Collect wall-clock self-profiling data. */
    bool profiling = false;

    /**
     * Collect hot-path telemetry (event histograms, queue occupancy;
     * see obs/telemetry.hh). Implied by the telemetry output file.
     * The telemetry stats tree is separate from the run record, so
     * seeded run records stay byte-identical either way.
     */
    bool telemetry = false;

    /** Telemetry stats export (JSON); empty = not written. */
    std::string telemetryJsonFile;

    /** True if telemetry collection is requested. */
    bool
    telemetryEnabled() const
    {
        return telemetry || !telemetryJsonFile.empty();
    }

    /** True if any observability feature is requested. */
    bool
    anyEnabled() const
    {
        return !traceFile.empty() || !perfettoFile.empty() ||
               !sampleCsvFile.empty() || !runRecordFile.empty() ||
               profiling || telemetryEnabled();
    }
};

} // namespace rrm::obs

#endif // RRM_OBS_OBS_CONFIG_HH
