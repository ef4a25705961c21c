/**
 * @file
 * Trace-driven out-of-order-approximating core model.
 *
 * The core consumes a synthetic instruction trace (trace::TraceSource,
 * which generates inline or replays a .rtp trace pack)
 * and models the properties memory-system studies need (DESIGN.md
 * section 3, substitution 2):
 *
 *  - a `width`-wide pipeline dispatches/retires non-memory
 *    instructions at width per cycle;
 *  - cache hits charge small, level-dependent penalties (an OoO core
 *    hides most of L1/L2 latency);
 *  - LLC-miss loads occupy the ROB; the core stalls when the oldest
 *    outstanding load is `robSize` instructions behind the dispatch
 *    point (memory-level parallelism is bounded by the ROB and by the
 *    L1 MSHRs);
 *  - stores retire immediately (store buffer), but their fills occupy
 *    MSHRs, and a refused fill (controller backpressure — e.g. the
 *    write queue is full) stalls the core.
 *
 * Execution is batched: the core advances its local clock through
 * private L1/L2 hits synchronously and synchronizes with the event
 * queue whenever it touches shared state or exceeds a run-ahead
 * quantum, keeping event counts proportional to LLC traffic.
 */

#ifndef RRM_CPU_CORE_MODEL_HH
#define RRM_CPU_CORE_MODEL_HH

#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"
#include "trace/source.hh"

namespace rrm::cpu
{

/** Core timing parameters (paper Table IV: 2 GHz, 8-issue OoO). */
struct CoreParams
{
    Tick cycle = 500_ps;   ///< 2 GHz
    unsigned width = 8;    ///< dispatch/retire width
    unsigned robSize = 192;
    unsigned maxOutstandingMisses = 8; ///< L1 MSHRs

    /** Max run-ahead before resynchronizing with the event queue. */
    Tick quantum = 200_ns;

    /** Extra cycles charged to an L2 / LLC load hit (partial hiding). */
    Cycles l2HitPenalty = 3;
    Cycles llcHitPenalty = 12;
};

/**
 * Interface the core uses to reach the memory system; implemented by
 * the System, which owns the controller, the RRM, and global limits
 * (LLC MSHRs, writeback buffer).
 */
class CorePort
{
  public:
    virtual ~CorePort() = default;

    /**
     * Request a memory fill for `line` issued at tick `when`.
     *
     * @return true if accepted (completion arrives via
     *         CoreModel::onFillComplete); false if resources are
     *         exhausted — the system will call CoreModel::resume()
     *         once space frees up.
     */
    virtual bool requestFill(unsigned core, Addr line, bool is_write,
                             Tick when) = 0;

    /**
     * Route side events of a cache access that did not reach memory
     * (LLC write registrations from the hit path).
     */
    virtual void handleAccessEvents(unsigned core,
                                    const cache::HierarchyEvents &ev,
                                    Tick when) = 0;
};

/** One simulated core. */
class CoreModel
{
  public:
    /**
     * @param addr_base Physical base of this core's address slice;
     *                  generator addresses are offset by it.
     */
    CoreModel(unsigned id, const CoreParams &params,
              trace::TraceSource source,
              cache::CacheHierarchy &hierarchy, CorePort &port,
              EventQueue &queue, Addr addr_base);

    /** Begin execution (schedules the first advance). */
    void start();

    /**
     * Notification that the fill for `line` completed (the system has
     * already filled the hierarchy). Clears ROB/MSHR occupancy and
     * resumes execution if this was the blocking resource.
     */
    void onFillComplete(Addr line);

    /** Retry after a refused requestFill (resources freed). */
    void resume();

    /**
     * Checkpoint pause: stop consuming trace records. While paused,
     * any advance — a queued event firing or a schedule request from
     * a fill completion / resume — is deferred: the core notes the
     * tick it wanted to run at and does nothing, so the event queue
     * drains to just the re-armable periodic events.
     */
    void pause();

    /**
     * Leave the paused state, re-scheduling the deferred advance (if
     * any) at the tick it originally wanted, clamped to now. The
     * system unpauses cores in core-index order so the re-created
     * events take deterministic sequence numbers.
     */
    void unpause();

    /**
     * True when the core holds no in-flight fills and no queued
     * advance event — the paused core contributes nothing to the
     * event queue and can be checkpointed.
     */
    bool
    quiescent() const
    {
        return outstandingCount_ == 0 && !advanceScheduled_;
    }

    /**
     * @{ Checkpoint the local clock, retired-instruction count, stall
     * and pending-miss state, the deferred-advance note, and the
     * trace cursor. Only legal while paused and quiescent (asserted);
     * the restored core starts paused and is unpaused by the system.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    unsigned id() const { return id_; }
    std::uint64_t instructionsRetired() const { return instrCount_; }

    /** IPC over an elapsed window. */
    double
    ipc(Tick elapsed) const
    {
        if (elapsed == 0)
            return 0.0;
        return static_cast<double>(instrCount_) *
               static_cast<double>(params_.cycle) /
               static_cast<double>(elapsed);
    }

    /** Zero the instruction counter (end of warmup). */
    void resetInstructionCount() { instrCount_ = 0; }

    /** True if the core is blocked on memory right now (tests). */
    bool stalled() const { return stall_ != Stall::None; }

    void regStats(stats::StatGroup &group);

  private:
    enum class Stall : std::uint8_t
    {
        None = 0,
        Rob,      ///< oldest load too far behind dispatch
        Mshr,     ///< per-core outstanding-miss limit
        Resource, ///< port refused (global backpressure)
    };

    /**
     * One MSHR. The miss table is a fixed array of
     * maxOutstandingMisses entries scanned linearly — occupancy is
     * bounded and tiny (8 by default), so the scan beats hashing, and
     * freed entries keep their loadInstrs capacity.
     */
    struct OutstandingFill
    {
        Addr line = 0;
        bool valid = false;
        bool isWrite = false;
        /** Dispatch indices of loads waiting on this line. */
        std::vector<std::uint64_t> loadInstrs;
    };

    void scheduleAdvance(Tick when);
    void advance();

    /** Process the pending record's memory stage; false on stall. */
    bool processPendingMiss();

    /** MSHR holding `line`, or nullptr. */
    OutstandingFill *findOutstanding(Addr line);

    /** Oldest outstanding load's dispatch index (or max if none). */
    std::uint64_t oldestOutstandingLoad() const;

    bool robFull() const;

    unsigned id_;
    CoreParams params_;
    trace::TraceSource source_;
    cache::CacheHierarchy &hierarchy_;
    CorePort &port_;
    EventQueue &queue_;
    Addr addrBase_;

    Tick localTime_ = 0;
    std::uint64_t instrCount_ = 0;
    Stall stall_ = Stall::None;
    bool advanceScheduled_ = false;

    /** Checkpoint pause state (see pause()/unpause()). */
    bool paused_ = false;
    bool wantsAdvance_ = false;
    Tick wantsAdvanceAt_ = 0;

    /** Pending LLC-missing record (access already performed). */
    bool hasPending_ = false;
    Addr pendingLine_ = 0;
    bool pendingIsWrite_ = false;
    std::uint64_t pendingInstr_ = 0;

    std::vector<OutstandingFill> outstanding_; ///< fixed MSHR array
    unsigned outstandingCount_ = 0;

    stats::Scalar *statInstructions_ = nullptr;
    stats::Scalar *statMemOps_ = nullptr;
    stats::Scalar *statLoads_ = nullptr;
    stats::Scalar *statStores_ = nullptr;
    stats::Scalar *statRobStalls_ = nullptr;
    stats::Scalar *statMshrStalls_ = nullptr;
    stats::Scalar *statResourceStalls_ = nullptr;
};

} // namespace rrm::cpu

#endif // RRM_CPU_CORE_MODEL_HH
