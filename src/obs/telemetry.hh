/**
 * @file
 * Hot-path telemetry: per-event-type counters and log2-bucketed
 * histograms over the simulator's queues and latencies.
 *
 * The Telemetry object owns a *standalone* stats tree (root group
 * "telemetry") that is deliberately NOT attached to the System's stat
 * root: run records and stats exports of a seeded run stay
 * byte-identical whether telemetry is on or off (the PR 5 golden
 * contract). Telemetry output goes to its own file through the
 * JSON stat writer.
 *
 * Wiring: components below the obs layer cannot name this class, so
 * they accept small structs of non-owning stats pointers instead —
 * EventQueueTelemetry (declared in sim/event_queue.hh) and
 * WritePathTelemetry (here). Telemetry registers the stats and hands
 * the filled structs out; System::setupObservability does the
 * attaching. With telemetry off no struct is attached and every hook
 * costs one pointer test.
 */

#ifndef RRM_OBS_TELEMETRY_HH
#define RRM_OBS_TELEMETRY_HH

#include <cstdint>
#include <ostream>

#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::obs
{

/** Non-owning telemetry sinks for the WritePath staging queues. */
struct WritePathTelemetry
{
    /** Writeback drain-queue occupancy, sampled at each enqueue. */
    stats::HistogramStat *writebackOccupancy = nullptr;
    /** Refresh overflow-queue occupancy, sampled at each deferral. */
    stats::HistogramStat *refreshOverflowOccupancy = nullptr;
};

/**
 * Owner of the telemetry stats tree. Construct once per System when
 * any telemetry output is requested; hand queueHooks() to the
 * EventQueue and writePathHooks() to the WritePath.
 */
class Telemetry
{
  public:
    Telemetry();

    Telemetry(const Telemetry &) = delete;
    Telemetry &operator=(const Telemetry &) = delete;

    /** The standalone "telemetry" stats tree (for export / tests). */
    const stats::StatGroup &statsRoot() const { return group_; }

    /** Sinks for EventQueue::setTelemetry (valid for our lifetime). */
    const EventQueueTelemetry *queueHooks() const { return &queueHooks_; }

    /** Sinks for WritePath::setTelemetry (valid for our lifetime). */
    const WritePathTelemetry *writePathHooks() const
    {
        return &writePathHooks_;
    }

    /**
     * Record refresh-queue pressure for one timing-visible refresh
     * submission, as an integer percentage of the deepest channel
     * refresh queue against its capacity (0..100, saturating).
     */
    void
    recordRefreshPressure(double fraction)
    {
        if (fraction < 0.0)
            fraction = 0.0;
        if (fraction > 1.0)
            fraction = 1.0;
        refreshPressure_->add(
            static_cast<std::uint64_t>(fraction * 100.0));
    }

    /**
     * @{ The telemetry tree is standalone (not under the System's
     * stat root), so the main stats section does not cover it;
     * checkpoint it separately so telemetry exports also survive a
     * resume.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const { group_.saveCkpt(w); }
    void restoreCkpt(ckpt::ChunkReader &r) { group_.restoreCkpt(r); }
    /** @} */

    /** Export the telemetry tree as JSON. */
    void writeJson(std::ostream &os) const;

  private:
    stats::StatGroup group_{"telemetry"};
    EventQueueTelemetry queueHooks_;
    WritePathTelemetry writePathHooks_;

    stats::HistogramStat *refreshPressure_ = nullptr;
};

} // namespace rrm::obs

#endif // RRM_OBS_TELEMETRY_HH
