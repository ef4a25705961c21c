/**
 * @file
 * Full-system assembly: cores + caches + the scheme's write policy +
 * PCM memory controller, plus the measurement machinery that turns
 * one run into a SimResults record.
 *
 * The System is deliberately thin: per-write decisions live behind
 * policy::WritePolicy (built by Scheme::makePolicy), staging-queue
 * mechanics live in WritePath, and window accumulators live in
 * Measurement. The System wires them together and runs the event
 * loop.
 */

#ifndef RRM_SYSTEM_SYSTEM_HH
#define RRM_SYSTEM_SYSTEM_HH

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "cpu/core_model.hh"
#include "fault/fault_manager.hh"
#include "memctrl/controller.hh"
#include "obs/obs_config.hh"
#include "obs/profiler.hh"
#include "obs/sampler.hh"
#include "obs/telemetry.hh"
#include "pcm/energy_model.hh"
#include "pcm/lifetime_model.hh"
#include "pcm/wear_tracker.hh"
#include "policy/adaptive_config.hh"
#include "policy/tenant_qos_policy.hh"
#include "policy/write_policy.hh"
#include "system/measurement.hh"
#include "system/region_profiler.hh"
#include "system/results.hh"
#include "system/scheme.hh"
#include "system/write_path.hh"
#include "trace/workload.hh"

namespace rrm::ckpt
{
class CkptWriter;
class CkptReader;
} // namespace rrm::ckpt

namespace rrm::sys
{

/**
 * Thrown by System::run when the run exceeds its wall-clock timeout
 * (SystemConfig::wallTimeoutSeconds). The run::Runner catches it and
 * records the run as timed out instead of failing the whole plan.
 */
class SimTimeoutError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/**
 * Thrown by System::run when a graceful stop was requested
 * (common/interrupt.hh — a SIGINT/SIGTERM handler or the embedding
 * application). Before it propagates, run() writes a final
 * best-effort checkpoint when checkpointing is configured.
 */
class SimInterruptedError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** How RRM refresh requests interact with the timing model. */
enum class RefreshTimingMode : std::uint8_t
{
    /**
     * Rate-corrected (default): with retention intervals compressed
     * `timeScale x`, only one of every `timeScale` refreshes enters
     * the timing queues, restoring the real-time refresh bandwidth;
     * all of them count for wear/energy. See DESIGN.md section 3.
     */
    RateCorrected = 0,

    /** Every refresh enters the timing queues (native-scale runs). */
    Detailed,

    /** Refreshes are counted but never enter the timing queues. */
    CountOnly,
};

/** Everything needed to build and run one simulation. */
struct SystemConfig
{
    trace::Workload workload;
    Scheme scheme = Scheme::staticScheme(pcm::WriteMode::Sets7);

    cpu::CoreParams core;
    cache::HierarchyConfig hierarchy = cache::defaultHierarchyConfig();
    memctrl::MemoryParams memory;
    monitor::RrmConfig rrm; ///< used only when scheme.usesMonitor()

    /** Feedback-law knobs; used only by the Adaptive-RRM scheme. */
    policy::AdaptiveRrmConfig adaptive;

    /** Tenant-quota knobs; used only by the RRM-QoS scheme. */
    policy::TenantQosConfig qos;

    /**
     * Retention-interval compression (DESIGN.md section 3). 50 with
     * the default 100 ms window represents the paper's 5 s run while
     * keeping the scaled retention interval (40 ms) well above the
     * LLC residency timescale (~3 ms) that gates the RRM's
     * dirty-write filter.
     */
    double timeScale = 50.0;

    /** Simulated window, in (scaled) seconds. */
    double windowSeconds = 0.100;

    /** Leading fraction of the window excluded from measurement. */
    double warmupFraction = 0.2;

    RefreshTimingMode refreshTiming = RefreshTimingMode::RateCorrected;

    /** LLC writeback buffer entries (dirty victims awaiting a queue). */
    unsigned writebackBufferCap = 16;

    pcm::LifetimeParams lifetime;
    pcm::EnergyParams energy;

    /** Enable the Table III region write profiler. */
    bool profileRegionWrites = false;

    /**
     * Fault-injection and graceful-degradation knobs. Disabled by
     * default; the System then contains no FaultManager and all
     * outputs are byte-identical to a build without the fault layer.
     */
    fault::FaultConfig fault;

    /**
     * Wall-clock budget for run() in seconds; exceeded budgets raise
     * SimTimeoutError between event batches. 0 disables the check.
     */
    double wallTimeoutSeconds = 0.0;

    /**
     * Crash-safe checkpointing (DESIGN.md section 16). When > 0 the
     * run quiesces at EVERY policy epoch boundary (the policy's
     * preferred sample interval; the RRM decay tick) and publishes a
     * .rckpt file into checkpointDir at every checkpointEveryEpochs-th
     * epoch. 0 (the default) disables the whole mechanism and leaves
     * event scheduling untouched — existing goldens are unaffected.
     *
     * Byte-identity contract: a checkpoint-enabled run killed and
     * resumed from any published checkpoint produces the same final
     * run record as the same checkpoint-enabled run left undisturbed,
     * because both quiesce at the same epoch ticks.
     */
    std::uint64_t checkpointEveryEpochs = 0;

    /** Directory .rckpt files are published into (must exist). */
    std::string checkpointDir;

    /**
     * Restore the newest valid checkpoint in checkpointDir before
     * running; corrupt or incompatible files fall back to the next
     * older one, and an empty directory falls back to a cold start.
     * Requires checkpointEveryEpochs > 0 (the resumed run must keep
     * the interrupted run's quiesce cadence).
     */
    bool resumeFromCheckpoint = false;

    /**
     * Observability outputs (tracing, sampling, run record, wall-clock
     * self-profiling). All off by default; see obs/obs_config.hh.
     */
    obs::ObsOptions obs;

    /**
     * Deep-audit cadence: after every `auditEveryEvents` executed
     * events, run the audit() of every Auditable component (event
     * queue, cache hierarchy, memory controller, RRM, write path,
     * wear tracker). 0 disables periodic audits. The first violated
     * invariant panics; "sys.auditRounds" counts the rounds run.
     */
    std::uint64_t auditEveryEvents = 0;

    /**
     * Optional user-supplied per-core profiles. When non-empty (must
     * then have one entry per core), these override the workload's
     * Table VII benchmark profiles; the pointed-to profiles must
     * outlive the System. This is the seam for evaluating custom
     * application mixes (see examples/custom_workload.cpp).
     */
    std::vector<const trace::BenchmarkProfile *> customProfiles;

    std::uint64_t seed = 1;

    /**
     * Directory of .rtp packs to replay instead of generating the
     * instruction streams inline; empty (the default) generates.
     * Core c replays "<profile>-c<c>.rtp" (tools/trace-pack writes
     * this layout) after validating the pack's seed and profile. Both
     * sources give byte-identical streams for a given (profile, seed)
     * (see trace/source.hh), so this field does not enter the
     * run-record config JSON: it cannot change results.
     */
    std::string tracePackDir;

    /**
     * Check every configuration constraint and return one message per
     * violation (empty = valid). Unlike failing fast deep inside
     * construction, this aggregates *all* problems — a bad sweep
     * config is diagnosed in one pass. Called by finalize() (and thus
     * the System constructor) and by run::RunPlan::validate().
     */
    std::vector<std::string> validate() const;

    /**
     * Fill derived fields (rrm.timeScale) and validate; throws one
     * FatalError carrying every validation failure.
     */
    void finalize();
};

/** One fully wired simulated machine. */
class System : public cpu::CorePort
{
  public:
    explicit System(SystemConfig config);
    ~System() override;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Run warmup + measurement; return the collected results. */
    SimResults run();

    /**
     * Quiesce (pause cores, drain the event queue of everything but
     * re-armable periodic events) and publish one checkpoint to
     * `path`, then resume. Used by tests; run() drives the periodic
     * epoch-boundary checkpoints itself.
     *
     * @return false when the drain failed to reach quiescence within
     *         its deterministic step cap (no file is written).
     */
    bool checkpointNow(const std::string &path);

    /**
     * Epoch index of the checkpoint this run resumed from (0 = cold
     * start). Valid after run() begins.
     */
    std::uint64_t resumedFromEpoch() const { return resumedFromEpoch_; }

    /**
     * Deep-audit every component now (also runs periodically when
     * SystemConfig::auditEveryEvents > 0).
     * @return Always 0: the first violated invariant panics instead.
     */
    std::uint64_t runAudits();

    /** The Table III profiler (nullptr unless enabled). */
    const RegionWriteProfiler *regionProfiler() const
    {
        return profiler_.get();
    }

    /** The scheme's write policy (always present). */
    const policy::WritePolicy &writePolicy() const { return *policy_; }

    /** The policy's RRM (nullptr for monitor-less policies). */
    const monitor::RegionMonitor *rrm() const
    {
        return policy_->monitor();
    }

    /** The staging queues between LLC/policy and the controller. */
    const WritePath &writePath() const { return *writePath_; }

    /** The fault layer (nullptr unless config.fault.enabled()). */
    const fault::FaultManager *faultManager() const
    {
        return faultMgr_.get();
    }

    const SystemConfig &config() const { return config_; }
    const stats::StatGroup &statRoot() const { return statRoot_; }
    EventQueue &eventQueue() { return queue_; }

    /** @{ Observability objects (null unless enabled in config.obs). */
    obs::TraceSink *traceSink() { return traceSink_.get(); }
    const obs::Sampler *sampler() const { return sampler_.get(); }
    const obs::Profiler *selfProfiler() const
    {
        return selfProfiler_.get();
    }
    const obs::Telemetry *telemetry() const { return telemetry_.get(); }
    /** @} */

    /**
     * Write the full machine-readable record of a finished run:
     * schema version, build metadata, configuration, derived results,
     * the entire stats tree, and (when profiling) the wall-clock
     * profile. Called automatically for config.obs.runRecordFile.
     */
    void writeRunRecord(std::ostream &os, const SimResults &r) const;

    // ---- CorePort ----
    bool requestFill(unsigned core, Addr line, bool is_write,
                     Tick when) override;
    void handleAccessEvents(unsigned core,
                            const cache::HierarchyEvents &ev,
                            Tick when) override;

  private:
    void buildCores();
    void setupObservability();
    void writeObsOutputs(const SimResults &r);
    void writeConfigJson(obs::JsonWriter &json) const;
    void runSlice(Tick until);
    void tryEnqueueRead(unsigned core, Addr line);
    void onReadComplete(unsigned core, Addr line);
    void issueMemoryWrite(Addr addr, Tick when);
    void onPolicyRefresh(const monitor::RefreshRequest &req);
    void retryFaultedWrite(Addr addr, pcm::WriteMode mode);
    bool refreshPathSaturated() const;
    double refreshPressure() const;

    /** @{ Per-tenant accounting; null on single-tenant workloads. */
    TenantCounters *tenantCountersForAddr(Addr addr);
    TenantCounters *tenantCountersForCore(unsigned core);
    /** @} */
    void wakeCores();
    void resetMeasurement();
    SimResults collectResults(Tick measure_start, Tick measure_end);

    /** @{ Checkpoint orchestration (system_ckpt.cc). */
    /** True when checkpointing is configured on this run. */
    bool ckptEnabled() const;

    /** Hash of the behaviour-determining configuration. */
    std::uint64_t configFingerprint() const;

    /** All transient event-queue obligations drained? */
    bool ckptQuiescent() const;

    /**
     * Step the event queue (cores paused) until ckptQuiescent() or a
     * deterministic step cap; false when the cap was hit.
     */
    bool drainToQuiescence();

    /** Serialize every section into `file` (requires quiescence). */
    void saveCkptSections(ckpt::CkptWriter &file) const;

    /** Restore every section; throws ckpt::CkptError on mismatch. */
    void restoreCkptSections(const ckpt::CkptReader &reader);

    /** Serialize + atomically publish one file (requires quiescence). */
    void publishCheckpoint(std::uint64_t epoch_index,
                           const std::string &path) const;

    /** Non-empty = why `reader` cannot restore into this System. */
    std::string ckptCompatError(const ckpt::CkptReader &reader) const;

    /** Pause + drain + (maybe) publish the epoch file + unpause. */
    void quiesceCheckpoint(std::uint64_t epoch_index);

    /** Best-effort final checkpoint on timeout / interrupt. */
    void emergencyCheckpoint();

    /** runSlice with epoch-boundary quiesces interleaved. */
    void runCkptSlice(Tick until);

    /** Published path of the epoch-`index` checkpoint file. */
    std::string checkpointPath(std::uint64_t epoch_index) const;

    /** Restore the newest valid checkpoint; false = cold start. */
    bool tryResume();
    /** @} */

    SystemConfig config_;
    EventQueue queue_;

    stats::StatGroup statRoot_;

    std::unique_ptr<cache::CacheHierarchy> hierarchy_;
    std::unique_ptr<memctrl::Controller> controller_;
    std::unique_ptr<WritePath> writePath_;
    std::unique_ptr<policy::WritePolicy> policy_;
    std::unique_ptr<fault::FaultManager> faultMgr_;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;

    pcm::WearTracker wear_;
    pcm::EnergyModel energy_;
    std::unique_ptr<RegionWriteProfiler> profiler_;

    // Observability (see config_.obs; all optional).
    std::unique_ptr<obs::TraceSink> traceSink_;
    std::unique_ptr<obs::Sampler> sampler_;
    std::unique_ptr<obs::Profiler> selfProfiler_;
    std::unique_ptr<obs::Telemetry> telemetry_;

    // Global fill (LLC MSHR) accounting.
    unsigned outstandingFills_ = 0;

    // Writebacks accounted but still riding a scheduled event toward
    // WritePath::queueWriteback (quiescence must wait them out: the
    // event's capture is state no checkpoint section covers).
    unsigned pendingWritebackEvents_ = 0;

    // Wall-clock deadline for run(), in obs::deadlineSeconds()
    // terms (wallTimeoutSeconds > 0).
    double runDeadline_ = 0.0;

    // Rate-correction rotation counter.
    std::uint64_t refreshSeq_ = 0;
    std::uint64_t timeScaleInt_ = 1;

    // Measurement accumulators (reset after warmup).
    Measurement meas_;

    // Tenant layout of the workload (tenantOf empty = one tenant).
    policy::TenantLayout tenantLayout_;

    // Per-tenant outstanding timing-visible refreshes; sized only on
    // multi-tenant workloads (empty = no tenant accounting at all).
    std::vector<std::uint64_t> tenantRefreshOutstanding_;

    // Checkpoint orchestration (config_.checkpointEveryEpochs > 0).
    Tick ckptEpochTicks_ = 0;        ///< quiesce cadence (0 = off)
    std::uint64_t nextEpochIndex_ = 1;
    bool measuring_ = false;         ///< past the warmup reset
    Tick measureStart_ = 0;          ///< queue tick of the reset
    std::uint64_t resumedFromEpoch_ = 0; ///< 0 = cold start

    stats::Scalar *statFillRefusals_ = nullptr;
    stats::Scalar *statAuditRounds_ = nullptr;
};

} // namespace rrm::sys

#endif // RRM_SYSTEM_SYSTEM_HH
