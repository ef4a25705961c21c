/**
 * @file
 * System implementation.
 */

#include "system.hh"

#include <fstream>
#include <sstream>

#include "common/atomic_file.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "obs/perfetto.hh"
#include "obs/run_record.hh"
#include "obs/stat_writers.hh"

namespace rrm::sys
{

namespace
{

/**
 * True if secondsToTicks(seconds) is at least one tick and fits in
 * Tick. Checked on the double, before any conversion; NaN fails.
 */
bool
convertsToTicks(double seconds)
{
    const double ticks = seconds * static_cast<double>(tickPerSec) + 0.5;
    return ticks >= 1.0 && ticks < 0x1p64;
}

std::string
numberText(double v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

} // namespace

std::vector<std::string>
SystemConfig::validate() const
{
    std::vector<std::string> errors;
    if (workload.name.empty())
        errors.push_back("system config has no workload");
    if (workload.perCore.empty()) {
        errors.push_back("workload selects zero cores");
    } else if (hierarchy.numCores != workload.numCores()) {
        errors.push_back("hierarchy has " +
                         std::to_string(hierarchy.numCores) +
                         " cores but the workload names " +
                         std::to_string(workload.numCores()));
    }
    trace::collectTenantErrors(workload, errors);
    // The shortest scaled period a run arms is the 0.125 s decay
    // tick (sampler and checkpoint cadence of static schemes).
    if (timeScale < 1.0) {
        errors.push_back("time scale must be >= 1");
    } else if (!convertsToTicks(0.125 / timeScale)) {
        errors.push_back("time scale " + numberText(timeScale) +
                         " shrinks the 0.125 s decay tick below one "
                         "tick");
    }
    const bool warmup_ok = warmupFraction >= 0.0 && warmupFraction < 1.0;
    if (windowSeconds <= 0.0) {
        errors.push_back("window must be positive");
    } else if (!convertsToTicks(windowSeconds)) {
        errors.push_back("window of " + numberText(windowSeconds) +
                         " s is not between 1 tick (1 ps) and the "
                         "largest tick count");
    } else if (warmup_ok &&
               secondsToTicks(windowSeconds * warmupFraction) ==
                   secondsToTicks(windowSeconds)) {
        errors.push_back("window of " + numberText(windowSeconds) +
                         " s leaves no measured tick after warmup");
    }
    if (!warmup_ok)
        errors.push_back("warmup fraction must be in [0, 1)");

    scheme.collectConfigErrors(rrm, adaptive, qos, timeScale, errors);

    fault.collectErrors(errors, memory.refreshQueueCap);
    if (wallTimeoutSeconds < 0.0)
        errors.push_back("wall-clock timeout must be >= 0");
    if (checkpointEveryEpochs > 0 && checkpointDir.empty())
        errors.push_back(
            "checkpointEveryEpochs > 0 requires a checkpointDir");
    if (resumeFromCheckpoint && checkpointEveryEpochs == 0) {
        errors.push_back(
            "resumeFromCheckpoint requires checkpointEveryEpochs > 0 "
            "(the resumed run must keep the quiesce cadence)");
    }

    if (!customProfiles.empty() &&
        customProfiles.size() != hierarchy.numCores) {
        errors.push_back("customProfiles supplies " +
                         std::to_string(customProfiles.size()) +
                         " profiles but hierarchy.numCores is " +
                         std::to_string(hierarchy.numCores));
    } else if (!workload.perCore.empty() &&
               hierarchy.numCores == workload.numCores() &&
               hierarchy.numCores > 0) {
        const std::uint64_t slice =
            memory.memoryBytes / hierarchy.numCores;
        for (unsigned c = 0; c < hierarchy.numCores; ++c) {
            const auto &profile =
                customProfiles.empty()
                    ? trace::benchmarkProfile(workload.perCore[c])
                    : *customProfiles[c];
            if (profile.footprintBytes() > slice) {
                errors.push_back("benchmark " +
                                 std::string(profile.name) +
                                 " footprint exceeds the " +
                                 std::to_string(slice) +
                                 "-byte per-core slice");
            }
        }
    }
    return errors;
}

void
SystemConfig::finalize()
{
    const std::vector<std::string> errors = validate();
    if (!errors.empty()) {
        std::string joined;
        for (const auto &e : errors)
            joined += (joined.empty() ? "" : "; ") + e;
        fatal("invalid system config (", errors.size(),
              " problem(s)): ", joined);
    }
    rrm.timeScale = timeScale;
}

System::System(SystemConfig config)
    : config_(std::move(config)),
      statRoot_("system"),
      wear_(config_.memory.memoryBytes, 4_KiB,
            config_.memory.blockBytes),
      energy_(config_.energy)
{
    config_.finalize();
    timeScaleInt_ = static_cast<std::uint64_t>(config_.timeScale);
    if (timeScaleInt_ < 1)
        timeScaleInt_ = 1;

    hierarchy_ =
        std::make_unique<cache::CacheHierarchy>(config_.hierarchy);
    controller_ =
        std::make_unique<memctrl::Controller>(config_.memory, queue_);
    writePath_ = std::make_unique<WritePath>(
        *controller_, queue_, config_.writebackBufferCap,
        config_.memory.busCycle);

    controller_->setWriteIssuedHook([this] {
        writePath_->drainWritebacks();
        wakeCores();
    });
    controller_->setCompletionHook(
        [this](const memctrl::Request &req, Tick when) {
            if (req.kind == memctrl::ReqKind::RrmRefresh) {
                if (faultMgr_) {
                    faultMgr_->onRefreshCompleted(req.addr, req.mode,
                                                  when);
                }
                if (!tenantRefreshOutstanding_.empty()) {
                    auto &n = tenantRefreshOutstanding_
                        [tenantLayout_.tenantOfAddr(req.addr)];
                    if (n > 0)
                        --n;
                }
                writePath_->drainRefreshOverflow();
            } else if (req.kind == memctrl::ReqKind::Write &&
                       faultMgr_) {
                faultMgr_->onWriteCompleted(req.addr, req.mode, when);
            }
        });

    tenantLayout_.tenantOf = config_.workload.tenantOf;
    tenantLayout_.coreSliceBytes =
        config_.memory.memoryBytes / config_.hierarchy.numCores;
    if (config_.workload.multiTenant()) {
        meas_.tenants.assign(config_.workload.numTenants(),
                             TenantCounters{});
        tenantRefreshOutstanding_.assign(config_.workload.numTenants(),
                                         0);
    }

    policy_ = config_.scheme.makePolicy(config_.rrm, config_.adaptive,
                                        config_.qos, tenantLayout_,
                                        queue_);
    policy_->setRefreshCallback(
        [this](const monitor::RefreshRequest &req) {
            onPolicyRefresh(req);
        });
    policy_->setPressureProbe([this] { return refreshPressure(); });

    if (config_.fault.enabled()) {
        faultMgr_ = std::make_unique<fault::FaultManager>(
            config_.fault, config_.memory, config_.timeScale,
            config_.seed, queue_, *controller_, wear_, policy_.get());
        faultMgr_->setRewriteCallback(
            [this](Addr addr, pcm::WriteMode mode) {
                retryFaultedWrite(addr, mode);
            });
        writePath_->setRefreshDroppedCallback(
            [this](Addr addr) { faultMgr_->onRefreshDropped(addr); });
        if (policy_->supportsPressureFallback()) {
            policy_->setQueueSaturationProbe(
                [this] { return refreshPathSaturated(); });
        }
    }

    if (config_.profileRegionWrites) {
        // Table III interval buckets, compressed by the time scale:
        // the paper's 1e6..1e9 ns and 1 s / 2 s rows.
        const double s = config_.timeScale;
        std::vector<std::uint64_t> bounds;
        for (double b : {1e6, 1e7, 1e8, 1e9, 2e9}) {
            bounds.push_back(
                static_cast<std::uint64_t>(b * tickPerNs / s));
        }
        profiler_ = std::make_unique<RegionWriteProfiler>(
            4_KiB, config_.memory.memoryBytes / 4_KiB,
            std::move(bounds));
    }

    hierarchy_->regStats(statRoot_);
    controller_->regStats(statRoot_);
    policy_->regStats(statRoot_);
    if (faultMgr_)
        faultMgr_->regStats(statRoot_);

    auto &g = statRoot_.addChild("sys");
    statFillRefusals_ =
        &g.addScalar("fillRefusals", "fills refused by backpressure");
    writePath_->regStats(g);
    statAuditRounds_ =
        &g.addScalar("auditRounds", "deep-audit rounds executed");
    statRoot_.addChild("checks").addFormula(
        "totalViolations", "panics (failed RRM_ASSERTs) in this process",
        [] { return static_cast<double>(log_detail::panicCount()); });

    if (!meas_.tenants.empty()) {
        // Per-tenant window counters: formulas over the Measurement
        // accumulators, so the hot path increments exactly one place.
        stats::StatGroup &tg = statRoot_.addChild("tenant");
        for (unsigned t = 0;
             t < static_cast<unsigned>(meas_.tenants.size()); ++t) {
            stats::StatGroup &gt = tg.addChild(std::to_string(t));
            gt.addFormula("memReads", "memory reads by the tenant",
                          [this, t] {
                              return static_cast<double>(
                                  meas_.tenants[t].memReads);
                          });
            gt.addFormula("fastWrites",
                          "fast-mode demand writes by the tenant",
                          [this, t] {
                              return static_cast<double>(
                                  meas_.tenants[t].fastWrites);
                          });
            gt.addFormula("slowWrites",
                          "slow-mode demand writes by the tenant",
                          [this, t] {
                              return static_cast<double>(
                                  meas_.tenants[t].slowWrites);
                          });
            gt.addFormula("fastRefreshes",
                          "fast-mode refreshes in the tenant's slices",
                          [this, t] {
                              return static_cast<double>(
                                  meas_.tenants[t].fastRefreshes);
                          });
            gt.addFormula("slowRefreshes",
                          "slow-mode refreshes in the tenant's slices",
                          [this, t] {
                              return static_cast<double>(
                                  meas_.tenants[t].slowRefreshes);
                          });
            gt.addFormula("refreshOutstanding",
                          "timing-visible refreshes in flight",
                          [this, t] {
                              return static_cast<double>(
                                  tenantRefreshOutstanding_[t]);
                          });
        }
    }

    buildCores();
    setupObservability();

    if (config_.checkpointEveryEpochs > 0) {
        // Epoch = the policy's preferred sample interval (the RRM
        // decay tick), so every quiescent point sits just after a
        // settled decay epoch; monitor-less policies fall back to the
        // paper's native 0.125 s tick compressed by the time scale.
        ckptEpochTicks_ = policy_->preferredSampleInterval();
        if (ckptEpochTicks_ == 0)
            ckptEpochTicks_ = secondsToTicks(0.125 / config_.timeScale);
    }
}

System::~System() = default;

void
System::setupObservability()
{
    const obs::ObsOptions &o = config_.obs;

    if (!o.traceFile.empty() || !o.perfettoFile.empty()) {
        traceSink_ = std::make_unique<obs::TraceSink>();
        std::unique_ptr<obs::TraceWriter> writer;
        if (!o.traceFile.empty())
            writer = obs::openTraceFile(o.traceFile);
        if (!o.perfettoFile.empty()) {
            auto perfetto = obs::openPerfettoFile(o.perfettoFile);
            writer = writer
                         ? std::make_unique<obs::TeeTraceWriter>(
                               std::move(writer), std::move(perfetto))
                         : std::move(perfetto);
        }
        traceSink_->setWriter(std::move(writer));
        controller_->setTraceSink(traceSink_.get());
        policy_->setTraceSink(traceSink_.get());
        if (faultMgr_)
            faultMgr_->setTraceSink(traceSink_.get());
    }

    if (o.telemetryEnabled()) {
        telemetry_ = std::make_unique<obs::Telemetry>();
        queue_.setTelemetry(telemetry_->queueHooks());
        writePath_->setTelemetry(telemetry_->writePathHooks());
    }

    if (o.profiling) {
        selfProfiler_ = std::make_unique<obs::Profiler>();
        policy_->setProfiler(selfProfiler_.get());
    }

    if (o.sampleCsvFile.empty())
        return;

    // The policy's preferred cadence (the RRM decay tick, so every
    // sample row observes exactly one settled decay epoch); policies
    // without one fall back to the paper's native 0.125 s tick
    // compressed by the time scale.
    Tick interval = policy_->preferredSampleInterval();
    if (interval == 0)
        interval = secondsToTicks(0.125 / config_.timeScale);
    sampler_ = std::make_unique<obs::Sampler>(queue_, interval);
    sampler_->setTraceSink(traceSink_.get());

    sampler_->addColumn("hotEntries", [this] {
        const auto *mon = policy_->monitor();
        return mon ? static_cast<double>(mon->hotEntryCount()) : 0.0;
    });
    sampler_->addColumn("validEntries", [this] {
        const auto *mon = policy_->monitor();
        return mon ? static_cast<double>(mon->validEntryCount()) : 0.0;
    });
    sampler_->addColumn("shortRetentionBlocks", [this] {
        const auto *mon = policy_->monitor();
        return mon
                   ? static_cast<double>(mon->shortRetentionBlockCount())
                   : 0.0;
    });
    sampler_->addStat(statRoot_, "rrm.fastWrites");
    sampler_->addStat(statRoot_, "rrm.slowWrites");
    sampler_->addStat(statRoot_, "rrm.fastRefreshes");
    sampler_->addStat(statRoot_, "rrm.slowRefreshes");
    sampler_->addColumn("readQueue", [this] {
        return static_cast<double>(controller_->totalReadQueue());
    });
    sampler_->addColumn("writeQueue", [this] {
        return static_cast<double>(controller_->totalWriteQueue());
    });
    sampler_->addColumn("refreshQueue", [this] {
        return static_cast<double>(controller_->totalRefreshQueue());
    });
    sampler_->addColumn("writebackBuffer", [this] {
        return static_cast<double>(writePath_->writebackDepth());
    });
    if (faultMgr_) {
        sampler_->addColumn("retentionTracked", [this] {
            return static_cast<double>(
                faultMgr_->retention().trackedCount());
        });
        sampler_->addColumn("fallbackActive", [this] {
            return faultMgr_->fallbackActive() ? 1.0 : 0.0;
        });
    }

    if (traceSink_) {
        // Piggy-back progress counters onto the sampling cadence: one
        // instruction counter per core and — on multi-tenant runs —
        // one outstanding-refresh counter per tenant. The Perfetto
        // writer renders both as 'C' counter tracks.
        sampler_->setSampleHook([this] {
            for (unsigned c = 0;
                 c < static_cast<unsigned>(cores_.size()); ++c) {
                RRM_TRACE(traceSink_.get(), queue_.now(),
                          obs::TraceCategory::Queue, "coreProgress",
                          RRM_TF("core", c),
                          RRM_TF("instructions",
                                 cores_[c]->instructionsRetired()));
            }
            for (unsigned t = 0;
                 t < static_cast<unsigned>(
                         tenantRefreshOutstanding_.size());
                 ++t) {
                RRM_TRACE(traceSink_.get(), queue_.now(),
                          obs::TraceCategory::Queue, "tenantRefreshQ",
                          RRM_TF("tenant", t),
                          RRM_TF("refreshQ",
                                 tenantRefreshOutstanding_[t]));
            }
        });
    }
}

void
System::buildCores()
{
    const std::uint64_t slice =
        config_.memory.memoryBytes / config_.hierarchy.numCores;
    Random seeder(config_.seed);
    for (unsigned c = 0; c < config_.hierarchy.numCores; ++c) {
        const auto &profile =
            config_.customProfiles.empty()
                ? trace::benchmarkProfile(config_.workload.perCore[c])
                : *config_.customProfiles[c];
        const std::uint64_t core_seed = seeder.next();
        auto source =
            config_.tracePackDir.empty()
                ? trace::TraceSource::generate(profile, core_seed)
                : trace::TraceSource::pack(
                      std::make_shared<trace::TracePackReader>(
                          config_.tracePackDir + "/" +
                          std::string(profile.name) + "-c" +
                          std::to_string(c) + ".rtp"),
                      profile, core_seed);
        auto core = std::make_unique<cpu::CoreModel>(
            c, config_.core, std::move(source), *hierarchy_, *this,
            queue_, static_cast<Addr>(c) * slice);
        core->regStats(statRoot_);
        cores_.push_back(std::move(core));
    }
}

bool
System::requestFill(unsigned core, Addr line, bool is_write, Tick when)
{
    (void)is_write;
    if (outstandingFills_ >= hierarchy_->llcMshrs() ||
        writePath_->writebackFull()) {
        if (statFillRefusals_)
            ++*statFillRefusals_;
        return false;
    }
    ++outstandingFills_;
    if (when <= queue_.now()) {
        tryEnqueueRead(core, line);
    } else {
        queue_.schedule(when,
                        [this, core, line] { tryEnqueueRead(core, line); });
    }
    return true;
}

void
System::tryEnqueueRead(unsigned core, Addr line)
{
    RRM_ASSERT(line < config_.memory.memoryBytes, "bad read line");
    // The controller sees the translated (retirement-remapped)
    // address; the fill callback keeps the logical line.
    const Addr phys = faultMgr_ ? faultMgr_->translate(line) : line;
    const bool ok = controller_->enqueueRead(
        phys, [this, core, line](Tick) { onReadComplete(core, line); });
    if (!ok) {
        // Per-channel read queue momentarily full; retry shortly.
        queue_.scheduleAfter(100_ns, [this, core, line] {
            tryEnqueueRead(core, line);
        });
    }
}

TenantCounters *
System::tenantCountersForAddr(Addr addr)
{
    if (meas_.tenants.empty())
        return nullptr;
    return &meas_.tenants[tenantLayout_.tenantOfAddr(addr)];
}

TenantCounters *
System::tenantCountersForCore(unsigned core)
{
    if (meas_.tenants.empty())
        return nullptr;
    return &meas_.tenants[config_.workload.tenantOfCore(core)];
}

void
System::onReadComplete(unsigned core, Addr line)
{
    ++meas_.memReads;
    if (TenantCounters *tc = tenantCountersForCore(core))
        ++tc->memReads;
    meas_.readEnergy += energy_.blockReadEnergy();
    cores_[core]->onFillComplete(line);
    RRM_ASSERT(outstandingFills_ > 0, "fill accounting underflow");
    --outstandingFills_;
    wakeCores();
}

void
System::handleAccessEvents(unsigned core,
                           const cache::HierarchyEvents &ev, Tick when)
{
    (void)core;
    if (ev.registration) {
        policy_->registerLlcWrite(ev.registrationAddr,
                                  ev.registrationWasDirty);
    }
    if (ev.memWrite)
        issueMemoryWrite(ev.memWriteAddr, when);
}

void
System::issueMemoryWrite(Addr addr, Tick when)
{
    RRM_ASSERT(addr < config_.memory.memoryBytes, "bad write addr");
    const pcm::WriteMode mode = policy_->writeModeFor(addr);
    when += policy_->accessLatency();

    const Addr phys = faultMgr_ ? faultMgr_->translate(addr) : addr;
    wear_.recordBlockWrite(phys, pcm::WearCause::DemandWrite);
    meas_.demandWriteEnergy += energy_.blockWriteEnergy(mode);
    TenantCounters *tc = tenantCountersForAddr(addr);
    if (policy_->isFastMode(mode)) {
        ++meas_.fastWrites;
        if (tc)
            ++tc->fastWrites;
    } else {
        ++meas_.slowWrites;
        if (tc)
            ++tc->slowWrites;
    }
    if (profiler_)
        profiler_->recordWrite(addr, when);

    if (when <= queue_.now()) {
        writePath_->queueWriteback(phys, mode);
    } else {
        ++pendingWritebackEvents_;
        queue_.schedule(when, [this, phys, mode] {
            --pendingWritebackEvents_;
            writePath_->queueWriteback(phys, mode);
        });
    }
}

void
System::retryFaultedWrite(Addr addr, pcm::WriteMode mode)
{
    // Rewrite of a transiently-failed write: same physical block and
    // mode; wear, energy and write counters accrue like any write.
    wear_.recordBlockWrite(addr, pcm::WearCause::DemandWrite);
    meas_.demandWriteEnergy += energy_.blockWriteEnergy(mode);
    TenantCounters *tc = tenantCountersForAddr(addr);
    if (policy_->isFastMode(mode)) {
        ++meas_.fastWrites;
        if (tc)
            ++tc->fastWrites;
    } else {
        ++meas_.slowWrites;
        if (tc)
            ++tc->slowWrites;
    }
    writePath_->queueWriteback(addr, mode);
}

void
System::onPolicyRefresh(const monitor::RefreshRequest &req)
{
    RRM_ASSERT(req.blockAddr < config_.memory.memoryBytes,
               "bad refresh addr");
    const Addr phys =
        faultMgr_ ? faultMgr_->translate(req.blockAddr) : req.blockAddr;
    wear_.recordBlockWrite(phys, pcm::WearCause::RrmRefresh);
    meas_.refreshEnergy += energy_.blockRefreshEnergy(req.mode);
    TenantCounters *tc = tenantCountersForAddr(req.blockAddr);
    if (policy_->isFastMode(req.mode)) {
        ++meas_.fastRefreshes;
        if (tc)
            ++tc->fastRefreshes;
    } else {
        ++meas_.slowRefreshes;
        if (tc)
            ++tc->slowRefreshes;
    }

    bool timing_visible = false;
    switch (config_.refreshTiming) {
      case RefreshTimingMode::Detailed:
        timing_visible = true;
        break;
      case RefreshTimingMode::RateCorrected:
        timing_visible = (refreshSeq_++ % timeScaleInt_) == 0;
        break;
      case RefreshTimingMode::CountOnly:
        timing_visible = false;
        break;
    }
    if (!timing_visible) {
        // Invisible refreshes never queue, so their retention
        // obligation is satisfied the moment they are accounted.
        if (faultMgr_)
            faultMgr_->onRefreshAccounted(phys, req.mode, queue_.now());
        return;
    }

    if (telemetry_)
        telemetry_->recordRefreshPressure(refreshPressure());
    if (!tenantRefreshOutstanding_.empty()) {
        ++tenantRefreshOutstanding_[tenantLayout_.tenantOfAddr(phys)];
    }
    writePath_->submitRefresh(phys, req.mode);
}

bool
System::refreshPathSaturated() const
{
    if (writePath_->refreshOverflowPending())
        return true;
    for (unsigned c = 0; c < controller_->numChannels(); ++c) {
        if (controller_->channel(c).refreshQueueSize() >=
            config_.fault.fallbackHighWatermark) {
            return true;
        }
    }
    return false;
}

double
System::refreshPressure() const
{
    if (writePath_->refreshOverflowPending())
        return 1.0;
    std::size_t deepest = 0;
    for (unsigned c = 0; c < controller_->numChannels(); ++c) {
        deepest = std::max(deepest,
                           controller_->channel(c).refreshQueueSize());
    }
    return static_cast<double>(deepest) /
           static_cast<double>(config_.memory.refreshQueueCap);
}

void
System::wakeCores()
{
    if (outstandingFills_ >= hierarchy_->llcMshrs() ||
        writePath_->writebackFull()) {
        return;
    }
    for (auto &core : cores_)
        core->resume();
}

void
System::resetMeasurement()
{
    statRoot_.reset();
    wear_.reset();
    meas_.reset();
    for (auto &core : cores_)
        core->resetInstructionCount();
    if (profiler_)
        profiler_->reset();
}

std::uint64_t
System::runAudits()
{
    RRM_PROFILE(selfProfiler_.get(), "audit");
    if (statAuditRounds_)
        ++*statAuditRounds_;
    queue_.audit();
    hierarchy_->audit();
    controller_->audit();
    writePath_->audit();
    if (const auto *mon = policy_->monitor())
        mon->audit();
    if (faultMgr_)
        faultMgr_->audit();
    wear_.audit();
    return 0;
}

void
System::runSlice(Tick until)
{
    // Always batched: the per-batch interrupt poll is what turns a
    // SIGINT/SIGTERM into a graceful drain instead of a lost run.
    const bool timed = config_.wallTimeoutSeconds > 0.0;
    const std::uint64_t batch = config_.auditEveryEvents != 0
                                    ? config_.auditEveryEvents
                                    : (std::uint64_t{1} << 20);
    for (;;) {
        if (timed && obs::deadlineSeconds() >= runDeadline_) {
            throw SimTimeoutError(
                "run exceeded its wall-clock timeout of " +
                std::to_string(config_.wallTimeoutSeconds) + " s");
        }
        if (interruptRequested()) {
            throw SimInterruptedError(
                "graceful stop requested (SIGINT/SIGTERM)");
        }
        if (queue_.run(until, batch) == 0)
            break;
        if (config_.auditEveryEvents != 0)
            runAudits();
    }
}

SimResults
System::run()
{
    obs::Profiler *prof = selfProfiler_.get();
    RRM_PROFILE(prof, "system.run");

    const Tick end = secondsToTicks(config_.windowSeconds);
    const Tick warmup_end =
        secondsToTicks(config_.windowSeconds * config_.warmupFraction);

    if (config_.wallTimeoutSeconds > 0.0) {
        runDeadline_ =
            obs::deadlineSeconds() + config_.wallTimeoutSeconds;
    }

    bool resumed = false;
    if (config_.resumeFromCheckpoint)
        resumed = tryResume();

    if (resumed) {
        // Periodic tasks were re-armed at their saved next-fire
        // ticks during restore; the cores came back paused. Unpause
        // in core-index order so the re-created advance events take
        // the same sequence numbers an undisturbed run's would.
        for (auto &core : cores_)
            core->unpause();
    } else {
        for (auto &core : cores_)
            core->start();
        policy_->start();
        if (faultMgr_)
            faultMgr_->start();
        if (sampler_)
            sampler_->start();
    }

    try {
        if (!measuring_) {
            {
                RRM_PROFILE(prof, "warmup");
                runCkptSlice(warmup_end);
            }
            resetMeasurement();
            measureStart_ = queue_.now();
            measuring_ = true;
        }
        {
            RRM_PROFILE(prof, "measure");
            runCkptSlice(end);
        }
    } catch (const SimTimeoutError &) {
        emergencyCheckpoint();
        throw;
    } catch (const SimInterruptedError &) {
        emergencyCheckpoint();
        throw;
    }

    SimResults results;
    {
        RRM_PROFILE(prof, "collect");
        results = collectResults(measureStart_, end);
    }
    writeObsOutputs(results);
    return results;
}

void
System::writeObsOutputs(const SimResults &r)
{
    const obs::ObsOptions &o = config_.obs;
    // Every output goes through AtomicFile (write-temp-and-rename), so
    // a run killed mid-write never leaves a truncated record behind —
    // the previous file (if any) survives intact instead.
    const auto write =
        [](const std::string &path, const auto &emit) {
            AtomicFile file(path);
            emit(file.stream());
            file.commit();
        };

    if (sampler_) {
        sampler_->stop();
        write(o.sampleCsvFile,
              [&](std::ostream &os) { sampler_->writeCsv(os); });
    }
    if (!o.runRecordFile.empty()) {
        write(o.runRecordFile,
              [&](std::ostream &os) { writeRunRecord(os, r); });
    }
    if (telemetry_ && !o.telemetryJsonFile.empty()) {
        write(o.telemetryJsonFile,
              [&](std::ostream &os) { telemetry_->writeJson(os); });
    }
    if (traceSink_)
        traceSink_->finishWriter();
}

void
System::writeConfigJson(obs::JsonWriter &json) const
{
    json.beginObject();
    json.field("workload", config_.workload.name);
    json.key("perCore");
    json.beginArray();
    for (std::size_t c = 0; c < config_.workload.numCores(); ++c) {
        const auto &profile =
            config_.customProfiles.empty()
                ? trace::benchmarkProfile(config_.workload.perCore[c])
                : *config_.customProfiles[c];
        json.value(profile.name);
    }
    json.endArray();
    if (config_.workload.multiTenant()) {
        json.key("tenants");
        json.beginArray();
        for (std::size_t c = 0; c < config_.workload.numCores(); ++c)
            json.value(config_.workload.tenantOfCore(c));
        json.endArray();
    }
    json.field("scheme", config_.scheme.name());
    json.field("timeScale", config_.timeScale);
    json.field("windowSeconds", config_.windowSeconds);
    json.field("warmupFraction", config_.warmupFraction);
    json.field("seed", config_.seed);
    json.field("refreshTiming",
               static_cast<int>(config_.refreshTiming));
    json.field("memoryBytes", config_.memory.memoryBytes);
    json.field("auditEveryEvents", config_.auditEveryEvents);
    if (config_.fault.enabled()) {
        json.key("fault");
        json.beginObject();
        json.field("retentionTracking", config_.fault.retentionTracking);
        json.field("retentionSlackSeconds",
                   config_.fault.retentionSlackSeconds);
        json.field("transientWriteFailureRate",
                   config_.fault.transientWriteFailureRate);
        json.field("maxWriteRetries", config_.fault.maxWriteRetries);
        json.field("stuckAtWearThreshold",
                   config_.fault.stuckAtWearThreshold);
        json.field("stuckAtRate", config_.fault.stuckAtRate);
        json.field("repairBudgetPerLine",
                   config_.fault.repairBudgetPerLine);
        json.field("spareBlocks", config_.fault.spareBlocks);
        json.field("refreshStallSeconds",
                   config_.fault.refreshStallSeconds);
        json.field("fallback", config_.fault.fallback);
        json.field("seed", config_.fault.seed);
        json.endObject();
    }
    policy_->writeConfigJson(json);
    json.endObject();
}

void
System::writeRunRecord(std::ostream &os, const SimResults &r) const
{
    obs::JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("schemaVersion", obs::runRecordSchemaVersion);
    json.key("metadata");
    obs::writeRunMetadata(json, obs::currentRunMetadata());
    json.key("config");
    writeConfigJson(json);
    json.key("results");
    r.toJson(json);
    json.key("stats");
    {
        obs::JsonStatWriter stats_writer(json);
        statRoot_.visit(stats_writer);
    }
    if (traceSink_) {
        json.key("trace");
        json.beginObject();
        json.field("recorded", traceSink_->recorded());
        json.field("dropped", traceSink_->dropped());
        json.endObject();
    }
    if (selfProfiler_) {
        json.key("profile");
        selfProfiler_->writeJson(json);
    }
    json.endObject();
    os << '\n';
}

SimResults
System::collectResults(Tick measure_start, Tick measure_end)
{
    SimResults r;
    r.workload = config_.workload.name;
    r.scheme = config_.scheme.name();
    r.timeScale = config_.timeScale;
    r.eventsExecuted = queue_.eventsExecuted();

    const Tick elapsed = measure_end - measure_start;
    const double window = ticksToSeconds(elapsed);
    r.windowSeconds = window;

    r.instructions.assign(cores_.size(), 0);
    r.ipcPerCore.assign(cores_.size(), 0.0);
    for (unsigned c = 0; c < cores_.size(); ++c) {
        r.instructions[c] = cores_[c]->instructionsRetired();
        r.totalInstructions += r.instructions[c];
        r.ipcPerCore[c] = cores_[c]->ipc(elapsed);
        r.aggregateIpc += r.ipcPerCore[c];
    }

    if (!meas_.tenants.empty()) {
        r.tenants.resize(meas_.tenants.size());
        for (unsigned t = 0;
             t < static_cast<unsigned>(r.tenants.size()); ++t) {
            SimResults::TenantResults &tr = r.tenants[t];
            const TenantCounters &tc = meas_.tenants[t];
            tr.tenant = t;
            tr.memReads = tc.memReads;
            tr.fastWrites = tc.fastWrites;
            tr.slowWrites = tc.slowWrites;
            tr.fastRefreshes = tc.fastRefreshes;
            tr.slowRefreshes = tc.slowRefreshes;
        }
        for (unsigned c = 0; c < cores_.size(); ++c) {
            SimResults::TenantResults &tr =
                r.tenants[config_.workload.tenantOfCore(c)];
            tr.cores.push_back(c);
            tr.instructions += r.instructions[c];
            tr.ipc += r.ipcPerCore[c];
        }
    }

    if (const auto *misses = dynamic_cast<const stats::Scalar *>(
            statRoot_.find("llc.misses"))) {
        r.llcMisses = static_cast<std::uint64_t>(misses->value());
    }
    if (r.totalInstructions > 0) {
        r.mpki = 1000.0 * static_cast<double>(r.llcMisses) /
                 static_cast<double>(r.totalInstructions);
    }

    r.memReads = meas_.memReads;
    r.fastWrites = meas_.fastWrites;
    r.slowWrites = meas_.slowWrites;
    r.demandWrites = meas_.demandWrites();
    r.rrmFastRefreshes = meas_.fastRefreshes;
    r.rrmSlowRefreshes = meas_.slowRefreshes;

    pcm::WearMeasurement wm;
    wm.demandWrites = r.demandWrites;
    wm.rrmRefreshWrites = meas_.refreshWrites();
    wm.windowSeconds = window;
    wm.timeScale = config_.timeScale;
    wm.globalRefreshMode = config_.scheme.globalRefreshMode();

    const pcm::LifetimeModel lifetime(
        config_.memory.memoryBytes / config_.memory.blockBytes,
        config_.lifetime);
    r.demandWriteRate = lifetime.demandWriteRate(wm);
    r.rrmRefreshRate = lifetime.rrmRefreshRate(wm);
    r.globalRefreshRate = lifetime.globalRefreshRate(wm);
    r.lifetimeYears = lifetime.lifetimeYears(wm);

    r.readPower = meas_.readEnergy / window;
    r.demandWritePower = meas_.demandWriteEnergy / window;
    r.rrmRefreshPower =
        meas_.refreshEnergy / (window * config_.timeScale);
    r.globalRefreshPower =
        r.globalRefreshRate *
        energy_.blockRefreshEnergy(*wm.globalRefreshMode);

    if (const auto *mon = policy_->monitor()) {
        auto scalar = [&](const char *name) -> std::uint64_t {
            const auto *s = dynamic_cast<const stats::Scalar *>(
                statRoot_.find(std::string("rrm.") + name));
            return s ? static_cast<std::uint64_t>(s->value()) : 0;
        };
        r.rrmRegistrations = scalar("registrations");
        r.rrmCleanFiltered = scalar("cleanFiltered");
        r.rrmRegistrationHits = scalar("registrationHits");
        r.rrmAllocations = scalar("allocations");
        r.rrmEvictions = scalar("evictions");
        r.rrmPromotions = scalar("promotions");
        r.rrmDemotions = scalar("demotions");
        r.rrmEvictionFlushes = scalar("evictionFlushes");
        r.rrmHotEntriesAtEnd = mon->hotEntryCount();
    }

    if (faultMgr_) {
        auto scalar = [&](const char *name) -> std::uint64_t {
            const auto *s = dynamic_cast<const stats::Scalar *>(
                statRoot_.find(std::string("fault.") + name));
            return s ? static_cast<std::uint64_t>(s->value()) : 0;
        };
        r.fault.enabled = true;
        r.fault.retentionStamps = scalar("retentionStamps");
        r.fault.retentionViolations = scalar("retentionViolations");
        r.fault.transientWriteFaults = scalar("transientWriteFaults");
        r.fault.writeRetries = scalar("writeRetries");
        r.fault.writesUnrecovered = scalar("writesUnrecovered");
        r.fault.stuckAtFaults = scalar("stuckAtFaults");
        r.fault.stuckAtRepaired = scalar("stuckAtRepaired");
        r.fault.linesRetired = scalar("linesRetired");
        r.fault.spareExhausted = scalar("spareExhausted");
        r.fault.refreshDropped = scalar("refreshDropped");
        r.fault.refreshStalls = scalar("refreshStalls");
        r.fault.fallbackEntries = scalar("fallbackEntries");
        r.fault.fallbackExits = scalar("fallbackExits");
    }

    return r;
}

} // namespace rrm::sys
