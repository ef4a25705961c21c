/**
 * @file
 * WritePath: the System's staging area between write producers (LLC
 * writebacks, policy refreshes) and the memory controller's bounded
 * queues. Owns the writeback buffer, the refresh overflow queue, and
 * the retry machinery that keeps both draining — machinery that used
 * to be spread across the System god object.
 */

#ifndef RRM_SYSTEM_WRITE_PATH_HH
#define RRM_SYSTEM_WRITE_PATH_HH

#include <deque>
#include <functional>

#include "common/auditable.hh"
#include "memctrl/controller.hh"
#include "obs/telemetry.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::sys
{

/**
 * Staging queues between the System and the controller.
 *
 * Two flows share one queue mechanism:
 *  - *Writebacks*: dirty LLC victims buffer here until a controller
 *    write queue accepts them; a full buffer backpressures the cores
 *    (the System checks writebackFull()).
 *  - *Refreshes*: policy refresh requests that find their controller
 *    refresh queue full are deferred to an overflow queue and
 *    re-attempted on every refresh completion and at least once per
 *    bus cycle, so the retention obligation is never dropped.
 */
class WritePath : public Auditable
{
  public:
    /** A write waiting for controller queue space. */
    struct PendingWrite
    {
        Addr addr;
        pcm::WriteMode mode;
    };

    /**
     * @param controller     Downstream controller queues.
     * @param queue          Event queue for the refresh retry timer.
     * @param writeback_cap  Writeback buffer capacity (backpressure
     *                       threshold; the buffer itself is unbounded
     *                       because in-flight writes may still land).
     * @param retry_interval Refresh overflow re-attempt period (one
     *                       bus cycle).
     */
    WritePath(memctrl::Controller &controller, EventQueue &queue,
              unsigned writeback_cap, Tick retry_interval);

    WritePath(const WritePath &) = delete;
    WritePath &operator=(const WritePath &) = delete;

    /** Register this component's stats into the System's group. */
    void regStats(stats::StatGroup &sys_group);

    /** Notified once per refresh deferred to the overflow queue. */
    void setRefreshDroppedCallback(std::function<void(Addr)> cb)
    {
        refreshDropped_ = std::move(cb);
    }

    /**
     * Attach hot-path occupancy telemetry (obs::Telemetry owns the
     * sinks). Null (the default) keeps the path cost at one pointer
     * test per enqueue.
     */
    void setTelemetry(const obs::WritePathTelemetry *t)
    {
        telemetry_ = t;
    }

    // ---- Writeback flow ----

    /** Buffer a writeback and drain as far as the controller allows. */
    void queueWriteback(Addr addr, pcm::WriteMode mode);

    /** Push buffered writebacks into freed controller write slots. */
    void drainWritebacks() { writebacks_.drain(); }

    /** True at (or beyond) capacity — the cores must stall. */
    bool writebackFull() const
    {
        return writebacks_.size() >= writebackCap_;
    }

    std::size_t writebackDepth() const { return writebacks_.size(); }

    // ---- Refresh flow ----

    /**
     * Hand a timing-visible refresh to the controller; on a full
     * refresh queue it is deferred (stat + dropped-callback + armed
     * retry) rather than lost.
     */
    void submitRefresh(Addr addr, pcm::WriteMode mode);

    /** Re-attempt deferred refreshes (refresh-completion hook). */
    void drainRefreshOverflow();

    /** True while any deferred refresh awaits queue space. */
    bool refreshOverflowPending() const
    {
        return !refreshOverflow_.empty();
    }

    /**
     * True when both staging queues are empty and no retry event is
     * in flight — the write path contributes nothing to the event
     * queue and a checkpoint drain may stop stepping on its account.
     * There is no WritePath checkpoint section: at a quiescent point
     * the only state is this emptiness (stats travel in the stats
     * section).
     */
    bool quiescent() const
    {
        return writebacks_.empty() && refreshOverflow_.empty() &&
               !refreshRetryPending_;
    }

    // ---- Auditable ----
    /**
     * Invariants:
     *  - no drain guard is left set outside a drain loop;
     *  - a non-empty overflow queue always has a retry armed (the
     *    retention obligation cannot silently stall).
     */
    void audit() const override;

  private:
    /**
     * A FIFO of pending writes with a re-entrancy-guarded drain: the
     * sink can synchronously complete a request, firing a controller
     * hook that calls straight back into drain(), so a guard keeps a
     * single drain loop live. One mechanism for both flows — the
     * writeback buffer and the refresh overflow queue previously
     * duplicated this loop verbatim.
     */
    class DrainQueue
    {
      public:
        /** @param sink Consumer; false = downstream full, stop. */
        using Sink = std::function<bool(const PendingWrite &)>;

        explicit DrainQueue(Sink sink) : sink_(std::move(sink)) {}

        void push(const PendingWrite &w) { queue_.push_back(w); }

        void
        drain()
        {
            if (draining_)
                return;
            draining_ = true;
            while (!queue_.empty()) {
                if (!sink_(queue_.front()))
                    break;
                queue_.pop_front();
            }
            draining_ = false;
        }

        bool empty() const { return queue_.empty(); }
        std::size_t size() const { return queue_.size(); }
        bool draining() const { return draining_; }

      private:
        Sink sink_;
        std::deque<PendingWrite> queue_;
        bool draining_ = false;
    };

    /** Keep a next-cycle re-attempt armed while overflow remains. */
    void scheduleRefreshRetry();

    memctrl::Controller &controller_;
    EventQueue &queue_;
    unsigned writebackCap_;
    Tick retryInterval_;

    DrainQueue writebacks_;
    DrainQueue refreshOverflow_;
    bool refreshRetryPending_ = false;

    std::function<void(Addr)> refreshDropped_;
    const obs::WritePathTelemetry *telemetry_ = nullptr;

    stats::Scalar *statWritebackBlocked_ = nullptr;
    stats::Scalar *statRefreshOverflows_ = nullptr;
};

} // namespace rrm::sys

#endif // RRM_SYSTEM_WRITE_PATH_HH
