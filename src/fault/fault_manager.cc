/**
 * @file
 * FaultManager implementation.
 */

#include "fault_manager.hh"

#include <algorithm>
#include <utility>

#include "ckpt/ckpt.hh"
#include "common/logging.hh"

namespace rrm::fault
{

namespace
{

/** Stats are optional until regStats runs (unit tests). */
void
bump(stats::Scalar *s)
{
    if (s)
        ++*s;
}

} // namespace

FaultManager::FaultManager(const FaultConfig &config,
                           const memctrl::MemoryParams &memory,
                           double time_scale, std::uint64_t system_seed,
                           EventQueue &queue,
                           memctrl::Controller &controller,
                           pcm::WearTracker &wear,
                           policy::WritePolicy *policy)
    : config_(config), timeScale_(time_scale), queue_(queue),
      controller_(controller), wear_(wear), policy_(policy),
      addressMap_(memory), numChannels_(memory.numChannels),
      injector_(config.transientWriteFailureRate, config.stuckAtRate,
                config.seed ^ (system_seed * 0x9e3779b97f4a7c15ULL)),
      retention_(time_scale, config.trackRetentionMaxSeconds,
                 config.retentionSlackSeconds),
      ecp_(config.repairBudgetPerLine),
      retirement_(memory.memoryBytes, memory.blockBytes,
                  config.spareBlocks)
{
    retention_.setViolationCallback(
        [this](Addr block, Tick deadline, Tick now) {
            bump(statRetentionViolations_);
            if (statViolationsByChannel_) {
                statViolationsByChannel_->add(
                    addressMap_.decode(block).channel);
            }
            RRM_TRACE(traceSink_, now, obs::TraceCategory::Fault,
                      "retentionViolation", RRM_TF("block", block),
                      RRM_TF("deadline", deadline),
                      RRM_TF("lateTicks", now - deadline));
            if (config_.strict) {
                RRM_CHECK(false, "retention violation on block ",
                          block, ": deadline ", deadline,
                          " missed at ", now);
            }
        });
}

FaultManager::~FaultManager()
{
    if (sweepArmed_)
        queue_.cancel(sweepEvent_);
}

void
FaultManager::start()
{
    if (config_.refreshStallSeconds > 0.0) {
        const Tick period =
            secondsToTicks(config_.effectiveStallPeriodSeconds());
        stallTask_ = std::make_unique<PeriodicTask>(
            queue_, period, queue_.now() + period,
            [this] { injectRefreshStall(); });
    }
    if (config_.fallback && policy_ &&
        policy_->supportsPressureFallback()) {
        const Tick period =
            secondsToTicks(config_.fallbackPollSeconds);
        governorTask_ = std::make_unique<PeriodicTask>(
            queue_, period, queue_.now() + period,
            [this] { pollRefreshPressure(); });
    }
}

Addr
FaultManager::translate(Addr block) const
{
    return retirement_.remap(block);
}

void
FaultManager::armRetentionSweep()
{
    const auto next = retention_.nextDeadline();
    if (!next) {
        if (sweepArmed_) {
            queue_.cancel(sweepEvent_);
            sweepArmed_ = false;
        }
        return;
    }
    // Fire one tick past the deadline: a refresh landing exactly on
    // the deadline is still in time.
    const Tick when = *next + 1;
    if (sweepArmed_) {
        if (sweepAt_ == when)
            return;
        queue_.cancel(sweepEvent_);
    }
    sweepEvent_ = queue_.schedule(when, [this] {
        sweepArmed_ = false;
        sweepRetention();
    });
    sweepAt_ = when;
    sweepArmed_ = true;
}

void
FaultManager::sweepRetention()
{
    retention_.sweep(queue_.now());
    armRetentionSweep();
}

void
FaultManager::onWriteCompleted(Addr phys, pcm::WriteMode mode,
                               Tick when)
{
    if (injector_.writeFails()) {
        bump(statTransientWriteFaults_);
        unsigned &attempts = retryAttempts_[phys];
        ++attempts;
        RRM_TRACE(traceSink_, when, obs::TraceCategory::Fault,
                  "transientWriteFault", RRM_TF("block", phys),
                  RRM_TF("attempt", attempts));
        if (attempts > config_.maxWriteRetries) {
            bump(statWritesUnrecovered_);
            retryAttempts_.erase(phys);
            warn_once("fault.writeUnrecovered", "block write failed ",
                      config_.maxWriteRetries,
                      " consecutive rewrites; data declared lost "
                      "(block ", phys, ")");
            if (config_.strict) {
                RRM_CHECK(false, "unrecovered write on block ", phys);
            }
        } else if (rewrite_) {
            const Tick backoff = std::min<Tick>(
                config_.maxRetryBackoff,
                config_.retryBackoff << (attempts - 1));
            bump(statWriteRetries_);
            ++pendingRewriteEvents_;
            queue_.scheduleAfter(backoff, [this, phys, mode] {
                --pendingRewriteEvents_;
                rewrite_(phys, mode);
            });
            // The failed write leaves no (reliable) data behind, so
            // no retention deadline is stamped until a rewrite lands.
            return;
        }
    } else {
        retryAttempts_.erase(phys);
        maybeDevelopStuckAt(phys, when);
    }
    if (config_.retentionTracking) {
        if (retention_.tracks(mode))
            bump(statRetentionStamps_);
        retention_.recordWrite(phys, mode, when);
        armRetentionSweep();
    }
}

void
FaultManager::onRefreshAccounted(Addr phys, pcm::WriteMode mode,
                                 Tick now)
{
    if (!config_.retentionTracking)
        return;
    if (retention_.tracks(mode))
        bump(statRetentionStamps_);
    retention_.recordRefresh(phys, mode, now);
    armRetentionSweep();
}

void
FaultManager::onRefreshCompleted(Addr phys, pcm::WriteMode mode,
                                 Tick when)
{
    onRefreshAccounted(phys, mode, when);
}

void
FaultManager::onRefreshDropped(Addr phys)
{
    bump(statRefreshDropped_);
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Fault,
              "refreshDropped", RRM_TF("block", phys));
}

void
FaultManager::maybeDevelopStuckAt(Addr phys, Tick when)
{
    if (config_.stuckAtWearThreshold == 0)
        return;
    const std::uint64_t region = wear_.regionIndex(phys);
    const std::uint64_t level =
        wear_.regionWear(region) / config_.stuckAtWearThreshold;
    std::uint64_t &last = wearLevel_[region];
    if (level <= last) {
        // Wear counters reset with the measurement window; follow
        // them down without drawing new faults.
        last = std::min(last, level);
        return;
    }
    while (last < level) {
        ++last;
        if (injector_.developsStuckAt())
            handleStuckAt(phys, when);
    }
}

void
FaultManager::handleStuckAt(Addr phys, Tick when)
{
    // Writes already in flight when their line was retired complete
    // on the stale address; the fault belongs to the spare that now
    // backs the line (which carries its own ECP budget).
    phys = retirement_.remap(phys);
    bump(statStuckAtFaults_);
    if (ecp_.repair(phys)) {
        bump(statStuckAtRepaired_);
        RRM_TRACE(traceSink_, when, obs::TraceCategory::Fault,
                  "stuckAtRepaired", RRM_TF("block", phys),
                  RRM_TF("ecpUsed", ecp_.used(phys)));
        return;
    }
    if (retirement_.retire(phys)) {
        bump(statLinesRetired_);
        if (config_.retentionTracking)
            retention_.clear(phys);
        RRM_TRACE(traceSink_, when, obs::TraceCategory::Fault,
                  "lineRetired", RRM_TF("block", phys),
                  RRM_TF("spare", retirement_.remap(phys)));
        return;
    }
    bump(statSpareExhausted_);
    warn_once("fault.spareExhausted", "spare pool exhausted; block ",
              phys, " keeps its stuck-at cells unrepaired");
}

void
FaultManager::injectRefreshStall()
{
    const Tick until =
        queue_.now() + secondsToTicks(config_.refreshStallSeconds);
    for (unsigned c = 0; c < numChannels_; ++c)
        controller_.channel(c).holdRefreshes(until);
    bump(statRefreshStalls_);
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Fault,
              "refreshStall", RRM_TF("until", until));
}

void
FaultManager::pollRefreshPressure()
{
    std::size_t deepest = 0;
    for (unsigned c = 0; c < numChannels_; ++c) {
        deepest = std::max(deepest,
                           controller_.channel(c).refreshQueueSize());
    }
    if (!fallbackActive_) {
        if (deepest >= config_.fallbackHighWatermark) {
            if (++saturatedPolls_ >= config_.fallbackEnterPolls)
                enterFallback(deepest);
        } else {
            saturatedPolls_ = 0;
        }
    } else if (deepest <= config_.fallbackLowWatermark) {
        exitFallback(deepest);
    }
}

void
FaultManager::enterFallback(std::size_t deepest_queue)
{
    fallbackActive_ = true;
    saturatedPolls_ = 0;
    bump(statFallbackEntries_);
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Fault,
              "fallbackEnter", RRM_TF("refreshQueue", deepest_queue));
    policy_->setPressureFallback(true);
}

void
FaultManager::exitFallback(std::size_t deepest_queue)
{
    fallbackActive_ = false;
    bump(statFallbackExits_);
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Fault,
              "fallbackExit", RRM_TF("refreshQueue", deepest_queue));
    policy_->setPressureFallback(false);
}

void
FaultManager::setRewriteCallback(RewriteCallback cb)
{
    rewrite_ = std::move(cb);
}

void
FaultManager::regStats(stats::StatGroup &root)
{
    stats::StatGroup &g = root.addChild("fault");
    statRetentionStamps_ = &g.addScalar(
        "retentionStamps", "short-retention deadlines stamped");
    statRetentionViolations_ = &g.addScalar(
        "retentionViolations",
        "blocks whose refresh deadline expired");
    std::vector<std::string> bins;
    bins.reserve(numChannels_);
    for (unsigned c = 0; c < numChannels_; ++c)
        bins.push_back("ch" + std::to_string(c));
    statViolationsByChannel_ = &g.addVector(
        "retentionViolationsByChannel",
        "retention violations per memory channel", std::move(bins));
    statTransientWriteFaults_ = &g.addScalar(
        "transientWriteFaults", "injected transient write failures");
    statWriteRetries_ = &g.addScalar(
        "writeRetries", "rewrites issued after a transient failure");
    statWritesUnrecovered_ = &g.addScalar(
        "writesUnrecovered",
        "writes lost after exhausting the retry budget");
    statStuckAtFaults_ = &g.addScalar(
        "stuckAtFaults", "stuck-at cells developed by wear");
    statStuckAtRepaired_ = &g.addScalar(
        "stuckAtRepaired", "stuck-at cells absorbed by ECP");
    statLinesRetired_ = &g.addScalar(
        "linesRetired", "lines remapped to spares (ECP exhausted)");
    statSpareExhausted_ = &g.addScalar(
        "spareExhausted", "retirements refused: spare pool empty");
    statRefreshDropped_ = &g.addScalar(
        "refreshDropped", "refreshes refused by a full queue");
    statRefreshStalls_ = &g.addScalar(
        "refreshStalls", "injected refresh-queue stalls");
    statFallbackEntries_ = &g.addScalar(
        "fallbackEntries", "refresh-pressure fallback activations");
    statFallbackExits_ = &g.addScalar(
        "fallbackExits", "refresh-pressure fallback deactivations");
    g.addFormula("retentionStampRate",
                 "violations per stamped deadline", [this] {
                     const double stamps =
                         statRetentionStamps_->value();
                     return stamps > 0.0
                                ? statRetentionViolations_->value() /
                                      stamps
                                : 0.0;
                 });
}

void
FaultManager::saveCkpt(ckpt::ChunkWriter &w) const
{
    RRM_ASSERT(pendingRewriteEvents_ == 0,
               "checkpoint with rewrite retries still scheduled");
    injector_.saveCkpt(w);
    retention_.saveCkpt(w);
    ecp_.saveCkpt(w);
    retirement_.saveCkpt(w);
    w.u64(retryAttempts_.size());
    for (const auto &[block, attempts] : retryAttempts_) {
        w.u64(block);
        w.u32(attempts);
    }
    w.u64(wearLevel_.size());
    for (const auto &[region, level] : wearLevel_) {
        w.u64(region);
        w.u64(level);
    }
    w.b(fallbackActive_);
    w.u32(saturatedPolls_);
    w.b(stallTask_ != nullptr);
    if (stallTask_)
        w.u64(stallTask_->nextFireAt());
    w.b(governorTask_ != nullptr);
    if (governorTask_)
        w.u64(governorTask_->nextFireAt());
    w.b(sweepArmed_);
    if (sweepArmed_)
        w.u64(sweepAt_);
}

void
FaultManager::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_ASSERT(!stallTask_ && !governorTask_ && !sweepArmed_,
               "restoreCkpt() on a started FaultManager");
    injector_.restoreCkpt(r);
    retention_.restoreCkpt(r);
    ecp_.restoreCkpt(r);
    retirement_.restoreCkpt(r);
    retryAttempts_.clear();
    const std::uint64_t retries = r.u64();
    for (std::uint64_t i = 0; i < retries; ++i) {
        const Addr block = r.u64();
        retryAttempts_[block] = r.u32();
    }
    wearLevel_.clear();
    const std::uint64_t levels = r.u64();
    for (std::uint64_t i = 0; i < levels; ++i) {
        const std::uint64_t region = r.u64();
        wearLevel_[region] = r.u64();
    }
    fallbackActive_ = r.b();
    saturatedPolls_ = r.u32();
    // Re-arm in ascending last-arm order (next fire minus period) so
    // re-created same-priority events reproduce the interrupted run's
    // relative sequence numbers at any coinciding future fire tick;
    // ties keep start()'s stall-before-governor order, which is what
    // a coincident fire re-establishes (DESIGN.md section 16).
    const bool stall_armed = r.b();
    const Tick stall_next = stall_armed ? r.u64() : 0;
    const bool governor_armed = r.b();
    const Tick governor_next = governor_armed ? r.u64() : 0;
    const Tick stall_period =
        secondsToTicks(config_.effectiveStallPeriodSeconds());
    const Tick governor_period =
        secondsToTicks(config_.fallbackPollSeconds);
    const auto arm_stall = [&] {
        if (stall_armed) {
            stallTask_ = std::make_unique<PeriodicTask>(
                queue_, stall_period, stall_next,
                [this] { injectRefreshStall(); });
        }
    };
    const auto arm_governor = [&] {
        if (governor_armed) {
            governorTask_ = std::make_unique<PeriodicTask>(
                queue_, governor_period, governor_next,
                [this] { pollRefreshPressure(); });
        }
    };
    if (stall_armed && governor_armed &&
        governor_next - governor_period < stall_next - stall_period) {
        arm_governor();
        arm_stall();
    } else {
        arm_stall();
        arm_governor();
    }
    if (r.b()) {
        const Tick when = r.u64();
        sweepEvent_ = queue_.schedule(when, [this] {
            sweepArmed_ = false;
            sweepRetention();
        });
        sweepAt_ = when;
        sweepArmed_ = true;
    }
    // The restored fallback state is already reflected in the policy's
    // own checkpoint section; no setPressureFallback() replay here.
}

void
FaultManager::audit() const
{
    retention_.audit();
    ecp_.audit();
    retirement_.audit();
    for (const auto &[block, attempts] : retryAttempts_) {
        RRM_AUDIT(attempts <= config_.maxWriteRetries,
                  "block ", block, " carries ", attempts,
                  " retry attempts, beyond the cap");
    }
    RRM_AUDIT(retirement_.retiredCount() <= retirement_.spareCapacity(),
              "more lines retired than spares exist");
    RRM_AUDIT(!fallbackActive_ ||
                  (policy_ && policy_->supportsPressureFallback()),
              "fallback active without a policy able to demote");
}

} // namespace rrm::fault
