/**
 * @file
 * Run-record metadata: everything needed to attribute an exported
 * JSON document to a build and a moment in time. The simulator parts
 * of a run record (config, results, stats) are assembled by
 * System::writeRunRecord; this header owns the generic envelope.
 */

#ifndef RRM_OBS_RUN_RECORD_HH
#define RRM_OBS_RUN_RECORD_HH

#include <cstdint>
#include <string>

#include "obs/json.hh"

namespace rrm::obs
{

/**
 * Seconds since the Unix epoch, honoring SOURCE_DATE_EPOCH (the
 * reproducible-builds convention): when that variable is set its value
 * is returned instead of the host clock, so identical runs emit
 * byte-identical records.
 *
 * This is the simulator's ONLY sanctioned wall-clock read — rrm-lint's
 * det-wall-clock rule flags every other call site. Anything needing
 * "now" as a date must come through here so determinism harnesses can
 * pin it from the environment.
 */
std::int64_t wallClockSeconds();

/**
 * Monotonic host time in seconds, for measuring reported durations
 * (run wall time, events/sec). Under SOURCE_DATE_EPOCH this returns
 * 0.0 unconditionally, so every derived duration and rate collapses
 * to zero and seeded determinism harnesses stay byte-identical across
 * machines and --jobs settings.
 *
 * This and deadlineSeconds() are the simulator's only sanctioned
 * monotonic-clock reads outside the self-profiler — rrm-lint's
 * det-monotonic-clock rule flags every other
 * steady_clock/high_resolution_clock call site.
 */
double monotonicSeconds();

/**
 * Monotonic host time in seconds that SOURCE_DATE_EPOCH does not pin,
 * for wall-clock deadlines only, so a timeout still fires on a pinned
 * run. Nothing derived from it may reach an output file.
 */
double deadlineSeconds();

/** Schema version stamped into every exported run record. */
constexpr int runRecordSchemaVersion = 1;

/** Build / host metadata of the running binary. */
struct RunMetadata
{
    std::string tool = "rrm_pcm";
    std::string gitDescribe; ///< from the build system; "unknown" if absent
    std::string timestampUtc; ///< ISO-8601, empty if unavailable
};

/**
 * Metadata of this process: git describe captured at configure time
 * plus the current UTC wall-clock time.
 */
RunMetadata currentRunMetadata();

/**
 * Emit the metadata envelope ({"tool": ..., "gitDescribe": ...,
 * "timestampUtc": ...}) at the writer's current value slot.
 */
void writeRunMetadata(JsonWriter &json, const RunMetadata &meta);

} // namespace rrm::obs

#endif // RRM_OBS_RUN_RECORD_HH
