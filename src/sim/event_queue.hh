/**
 * @file
 * The event-driven simulation kernel.
 *
 * A single EventQueue orders callbacks by (tick, priority, sequence).
 * Components schedule EventCallback closures (non-allocating, see
 * callback.hh) or recurring PeriodicTask objects (used for the RRM's
 * 2 s short-retention interrupt and 0.125 s decay tick). Ties at the
 * same tick are broken first by priority (lower value runs first),
 * then by scheduling order, which keeps runs fully deterministic.
 *
 * Internally the queue is built for throughput:
 *
 *  - *Event arena*: every pending event lives in a pooled slot
 *    (vector + freelist); scheduling allocates no memory once the
 *    pool has grown to the steady-state depth. Handles carry a
 *    generation counter so cancelling an already-executed event is a
 *    cheap, exact no-op.
 *  - *Calendar queue*: instead of one big binary heap, near events
 *    (below `frontierEnd_`) sit in a small exact-ordered heap, mid
 *    events hash into a timing wheel of `kNumBuckets` buckets of
 *    `kBucketWidth` ticks, and far events (beyond the wheel horizon)
 *    wait in an overflow heap. Buckets migrate into the frontier as
 *    time advances, so heap operations touch O(log frontier) entries
 *    rather than O(log total). Ordering is exact: the frontier heap
 *    compares the full (tick, priority, sequence) key, and everything
 *    outside it is provably later than everything inside it.
 *
 * See DESIGN.md section 15 for the geometry and the overflow policy.
 */

#ifndef RRM_SIM_EVENT_QUEUE_HH
#define RRM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/auditable.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "sim/callback.hh"
#include "stats/stats.hh"

namespace rrm
{

/** Standard event priorities; lower runs earlier within a tick. */
enum class EventPriority : int
{
    RefreshInterrupt = 0, ///< RRM retention interrupts fire first
    MemoryResponse = 10,  ///< memory completions before new activity
    Default = 20,
    CpuTick = 30,         ///< cores advance after the memory system
    Sampler = 40,         ///< stat sampling observes the settled tick
};

/**
 * The kernel's callback type: stored inline in the event arena, so
 * captures up to 144 bytes (a Request plus a couple of words) never
 * touch the heap, and anything larger is a compile error.
 */
using EventCallback = InlineFunction<void(), 144>;

/**
 * Ticket for a scheduled event, used with EventQueue::cancel(). The
 * (slot, generation) pair stays valid forever: once the event runs or
 * is cancelled the slot's generation advances, so a stale handle can
 * never touch a recycled slot.
 */
struct EventHandle
{
    static constexpr std::uint32_t invalidSlot = ~std::uint32_t(0);

    std::uint32_t slot = invalidSlot;
    std::uint32_t gen = 0;

    /** True if this handle was ever issued by schedule(). */
    bool valid() const { return slot != invalidSlot; }
};

/**
 * Optional hot-path telemetry sinks for the event kernel.
 *
 * A struct of non-owning stats pointers rather than an obs type:
 * src/sim sits below src/obs in the layer order, so the kernel cannot
 * name the telemetry subsystem — obs::Telemetry owns and registers
 * the stats and hands this struct to EventQueue::setTelemetry()
 * (wired in System::setupObservability). All pointers must be
 * non-null when the struct is attached; with no struct attached the
 * per-event cost is a single pointer test.
 */
struct EventQueueTelemetry
{
    /** Events executed, binned by EventPriority class. */
    // rrm-lint: allow(stats-register-once) non-owning sink pointer;
    // owned and registered by obs::Telemetry
    stats::VectorStat *executedByPriority = nullptr;
    /** schedule() lead time (when - now()) in ticks. */
    // rrm-lint: allow(stats-register-once) non-owning sink pointer;
    // owned and registered by obs::Telemetry
    stats::HistogramStat *scheduleLatency = nullptr;
    /** Pending-event count observed at each schedule(). */
    // rrm-lint: allow(stats-register-once) non-owning sink pointer;
    // owned and registered by obs::Telemetry
    stats::HistogramStat *queueDepth = nullptr;

    /** Number of priority bins (one per EventPriority class). */
    static constexpr std::size_t kNumPriorityBins = 5;

    /** Bin index for a raw priority value; matches priorityBinNames(). */
    static std::size_t
    priorityBin(int prio)
    {
        const int bin = prio / 10;
        if (bin < 0)
            return 0;
        return bin > 4 ? 4 : static_cast<std::size_t>(bin);
    }

    /** Bin names aligned with priorityBin(), for VectorStat setup. */
    static std::vector<std::string>
    priorityBinNames()
    {
        return {"refreshInterrupt", "memoryResponse", "default",
                "cpuTick", "sampler"};
    }
};

/** Global discrete-event queue. */
class EventQueue : public Auditable
{
  public:
    using Callback = EventCallback;

    /** Current simulation time. */
    Tick now() const { return now_; }

    /** True if no pending events remain. */
    bool empty() const { return live_ == 0; }

    /**
     * Number of pending (non-cancelled) events. Exact: cancellation
     * decrements the count immediately and cancelled arena slots are
     * purged when their queue entry surfaces.
     */
    std::size_t size() const { return live_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick, must be >= now().
     * @return A handle usable with cancel().
     */
    EventHandle schedule(Tick when, EventCallback cb,
                         EventPriority prio = EventPriority::Default);

    /** Schedule a callback `delay` ticks in the future. */
    EventHandle
    scheduleAfter(Tick delay, EventCallback cb,
                  EventPriority prio = EventPriority::Default)
    {
        return schedule(now_ + delay, std::move(cb), prio);
    }

    /**
     * Cancel a pending event. Cancelling an already-executed,
     * already-cancelled, or default-constructed handle is a harmless
     * no-op (the generation check rejects stale handles exactly).
     */
    void cancel(EventHandle h);

    /**
     * Execute events until the queue empties, the next event is past
     * `until`, or `max_events` have run. Time advances to `until`
     * (if bounded) once the queue drains below it; stopping at the
     * event cap leaves time at the last executed event so the caller
     * can interleave work (e.g. audits) and continue.
     *
     * @param until      Absolute tick bound (inclusive); maxTick = no
     *                   bound.
     * @param max_events Stop after this many events (the audit-cadence
     *                   hook); default unlimited.
     * @return Number of events executed.
     */
    std::uint64_t run(Tick until = maxTick,
                      std::uint64_t max_events = ~std::uint64_t(0));

    /** Execute exactly one event if available. @return true if run. */
    bool step();

    /** Total events executed over the queue's lifetime. */
    std::uint64_t eventsExecuted() const { return executed_; }

    /** Sequence number the next schedule() call will take. */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /**
     * Checkpoint restore: reset the clock, sequence counter, and
     * executed-event count to a saved quiescent point. Only legal on
     * an empty queue — a restored run re-arms its periodic events
     * *after* this call, so their sequence numbers land at
     * next_seq, next_seq+1, ... exactly as a continuing run's
     * periodic re-arms would relative to later schedule() calls (the
     * uniform-shift argument of DESIGN.md section 16).
     */
    void
    restoreClock(Tick now, std::uint64_t next_seq,
                 std::uint64_t executed)
    {
        RRM_ASSERT(empty(),
                   "restoreClock() on a queue with pending events");
        RRM_ASSERT(now >= now_ && next_seq >= nextSeq_,
                   "restoreClock() would move time or sequences "
                   "backwards");
        now_ = now;
        nextSeq_ = next_seq;
        executed_ = executed;
    }

    /**
     * Attach (or detach, with nullptr) hot-path telemetry sinks. The
     * struct must outlive the queue or be detached first; see
     * EventQueueTelemetry for the ownership story.
     */
    void setTelemetry(const EventQueueTelemetry *t) { telemetry_ = t; }

    // ---- Auditable ----
    std::string_view auditName() const override { return "eventQueue"; }

    /**
     * Invariants: simulated time never decreases across audits, every
     * pending event is scheduled at or after now(), the frontier and
     * overflow heaps satisfy the heap property, every wheel entry
     * hashes to its bucket and lies inside the wheel horizon, every
     * queue entry references exactly one allocated arena slot whose
     * record agrees with it, live/cancelled counts match the
     * structures, and the freelist plus the queued slots tile the
     * arena exactly.
     */
    void audit() const override;

  private:
    /** One pooled event record (arena slot). */
    struct Event
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        EventCallback cb;
        std::int32_t prio = 0;
        std::uint32_t gen = 0;
        std::uint32_t next = EventHandle::invalidSlot; ///< freelist
        bool cancelled = false;
    };

    /** Compact ordering key queued in the calendar structures. */
    struct QEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::int32_t prio;

        /** Min-heap order: earliest (when, prio, seq) first. */
        bool
        laterThan(const QEntry &o) const
        {
            if (when != o.when)
                return when > o.when;
            if (prio != o.prio)
                return prio > o.prio;
            return seq > o.seq;
        }
    };

    // Calendar geometry (DESIGN.md section 15): 16.4 ns buckets and a
    // ~33.6 us horizon cover every fixed memory/CPU latency in the
    // model; only periodic tasks (>= 1 ms) overflow.
    static constexpr unsigned kBucketShift = 14;
    static constexpr Tick kBucketWidth = Tick(1) << kBucketShift;
    static constexpr std::size_t kNumBuckets = 2048;
    static constexpr Tick kWheelSpan = kBucketWidth * kNumBuckets;

    static std::size_t
    bucketIndex(Tick when)
    {
        return static_cast<std::size_t>(when >> kBucketShift) &
               (kNumBuckets - 1);
    }

    static void heapPush(std::vector<QEntry> &heap, const QEntry &e);
    static QEntry heapPop(std::vector<QEntry> &heap);

    std::uint32_t allocSlot();
    void freeSlot(std::uint32_t slot);

    /** Route a queue entry into frontier, wheel, or overflow. */
    void insertEntry(const QEntry &e);

    /**
     * Make the frontier heap's top the globally next live event,
     * migrating wheel buckets / overflow entries and purging
     * cancelled slots as needed. @return false if no live events.
     */
    bool ensureNext();

    /** Migrate one bucket (or jump to the overflow) into the frontier. */
    bool advanceFrontier();

    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
    std::size_t live_ = 0;
    std::size_t cancelledPending_ = 0;
    const EventQueueTelemetry *telemetry_ = nullptr;

    std::vector<Event> pool_;
    std::uint32_t freeHead_ = EventHandle::invalidSlot;

    std::vector<QEntry> frontier_; ///< heap; all when < frontierEnd_
    std::vector<std::vector<QEntry>> buckets_ =
        std::vector<std::vector<QEntry>>(kNumBuckets);
    std::size_t wheelCount_ = 0;
    Tick frontierEnd_ = 0;
    std::vector<QEntry> overflow_; ///< heap; when beyond the horizon

    /** Audit bookkeeping: now() observed by the previous audit. */
    mutable Tick lastAuditedNow_ = 0;
};

/**
 * A self-rescheduling periodic task, e.g. refresh interrupts.
 * The task stays armed until stop(); the owner must keep both the task
 * and the queue alive while armed.
 */
class PeriodicTask
{
  public:
    /**
     * @param queue   Queue to run on.
     * @param period  Interval between invocations (> 0).
     * @param first   Absolute tick of the first invocation.
     */
    PeriodicTask(EventQueue &queue, Tick period, Tick first,
                 EventCallback cb,
                 EventPriority prio = EventPriority::Default);

    ~PeriodicTask() { stop(); }

    PeriodicTask(const PeriodicTask &) = delete;
    PeriodicTask &operator=(const PeriodicTask &) = delete;

    /** Cancel future invocations. */
    void stop();

    bool running() const { return running_; }
    Tick period() const { return period_; }

    /**
     * Absolute tick of the next invocation (checkpointing: saved at a
     * quiescent point and passed back as `first` on restore). Only
     * meaningful while running().
     */
    Tick nextFireAt() const { return nextFireAt_; }

  private:
    void arm(Tick when);

    EventQueue &queue_;
    Tick period_;
    EventCallback cb_;
    EventPriority prio_;
    EventHandle pending_;
    Tick nextFireAt_ = 0;
    bool running_ = false;
};

} // namespace rrm

#endif // RRM_SIM_EVENT_QUEUE_HH
