/**
 * @file
 * Tenant-aware QoS decoration of a write policy (the RRM-QoS scheme).
 *
 * TenantQosPolicy wraps an inner WritePolicy (the RRM hybrid, via
 * Scheme::makePolicy) and partitions the monitor's hot-region
 * capacity between tenants: each tenant holds a guaranteed
 * per-decay-epoch allotment of *boosted* LLC-write registrations
 * proportional to its core share. A boosted registration bypasses
 * the streaming (dirty-write) filter, so each tenant's hottest
 * regions reach the promotion threshold even when neighbour-induced
 * LLC evictions destroy the dirty-line state the filter depends on —
 * the mechanism by which a co-runner silently steals a tenant's
 * fast-write capacity. Past its allotment a tenant's registrations
 * take the normal filtered path, so no tenant can claim more than
 * its share of the structure's promotion (and hence refresh)
 * bandwidth per epoch.
 *
 * A tenant attempting more than `noisyFactor x` its allotment in one
 * epoch is marked noisy for the next. A noisy tenant stays on the
 * filtered path: demoting its writes to the slow mode would occupy
 * the shared banks longer (1150 ns vs 550 ns), and that extra
 * occupancy is exactly what a quiet neighbour suffers from.
 *
 * The decorator only uses the WritePolicy interface plus the
 * monitor's read-only config. With a single tenant the whole
 * allotment belongs to tenant 0.
 */

#ifndef RRM_POLICY_TENANT_QOS_POLICY_HH
#define RRM_POLICY_TENANT_QOS_POLICY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "policy/write_policy.hh"
#include "sim/event_queue.hh"

namespace rrm::policy
{

/**
 * The address-space view of the tenant grouping: core c owns the
 * address slice [c * coreSliceBytes, (c+1) * coreSliceBytes), so the
 * tenant of a block address is the tenant of the core whose slice
 * contains it. Built by the System from the workload's tenantOf and
 * the per-core memory partitioning (System::buildCores).
 */
struct TenantLayout
{
    /** Tenant id per core; empty = one tenant owning everything. */
    std::vector<unsigned> tenantOf;

    /** Bytes of the per-core address slice (memoryBytes / numCores). */
    std::uint64_t coreSliceBytes = 0;

    /** Distinct tenants (>= 1 once tenantOf is non-empty). */
    unsigned
    numTenants() const
    {
        unsigned max_id = 0;
        for (const unsigned t : tenantOf)
            max_id = std::max(max_id, t);
        return tenantOf.empty() ? 1u : max_id + 1;
    }

    /** Tenant of block address `addr` (0 for the default layout). */
    unsigned
    tenantOfAddr(Addr addr) const
    {
        if (tenantOf.empty() || coreSliceBytes == 0)
            return 0;
        std::uint64_t core = addr / coreSliceBytes;
        if (core >= tenantOf.size())
            core = tenantOf.size() - 1;
        return tenantOf[static_cast<std::size_t>(core)];
    }

    /** Cores owned by each tenant (index = tenant id). */
    std::vector<unsigned>
    coresPerTenant() const
    {
        std::vector<unsigned> counts(numTenants(), 0);
        for (const unsigned t : tenantOf)
            ++counts[t];
        if (tenantOf.empty())
            counts[0] = 1;
        return counts;
    }
};

/** Knobs of the tenant QoS decoration. */
struct TenantQosConfig
{
    /**
     * Scale on the per-epoch boost allotment. The base budget is one
     * structure's worth of promotions per decay window spread over
     * its ticks (numSets x assoc x hotThreshold /
     * decayTicksPerInterval), split between tenants by core share.
     */
    double budgetFactor = 1.0;

    /**
     * A tenant attempting more than noisyFactor x its allotment of
     * registrations in one epoch is noisy for the next epoch.
     */
    double noisyFactor = 2.0;

    /** Append one message per violated invariant. */
    void
    collectErrors(std::vector<std::string> &errors) const
    {
        if (budgetFactor <= 0.0)
            errors.push_back("QoS budget factor must be positive");
        if (noisyFactor < 1.0)
            errors.push_back("QoS noisy factor must be >= 1");
    }

    /** True if any knob differs from the defaults. */
    bool
    isCustomized() const
    {
        const TenantQosConfig def;
        return budgetFactor != def.budgetFactor ||
               noisyFactor != def.noisyFactor;
    }
};

/** Tenant-aware QoS decorator over an inner write policy. */
class TenantQosPolicy final : public WritePolicy
{
  public:
    TenantQosPolicy(std::unique_ptr<WritePolicy> inner,
                    const TenantQosConfig &config,
                    const TenantLayout &layout, EventQueue &queue);
    ~TenantQosPolicy() override;

    std::string_view kindName() const override { return "rrm-qos"; }

    void start() override;
    void stop() override;

    pcm::WriteMode writeModeFor(Addr block_addr) const override
    {
        return inner_->writeModeFor(block_addr);
    }
    Tick accessLatency() const override { return inner_->accessLatency(); }

    bool isFastMode(pcm::WriteMode mode) const override
    {
        return inner_->isFastMode(mode);
    }

    void registerLlcWrite(Addr addr, bool was_dirty) override;

    void setRefreshCallback(RefreshCallback cb) override
    {
        inner_->setRefreshCallback(std::move(cb));
    }

    bool supportsPressureFallback() const override
    {
        return inner_->supportsPressureFallback();
    }

    void setPressureFallback(bool active) override
    {
        inner_->setPressureFallback(active);
    }

    bool pressureFallback() const override
    {
        return inner_->pressureFallback();
    }

    void setQueueSaturationProbe(SaturationProbe probe) override
    {
        inner_->setQueueSaturationProbe(std::move(probe));
    }

    void setPressureProbe(PressureProbe probe) override
    {
        inner_->setPressureProbe(std::move(probe));
    }

    void regStats(stats::StatGroup &root) override;
    void setTraceSink(obs::TraceSink *sink) override
    {
        inner_->setTraceSink(sink);
    }

    void setProfiler(obs::Profiler *profiler) override
    {
        inner_->setProfiler(profiler);
    }

    Tick preferredSampleInterval() const override
    {
        return inner_->preferredSampleInterval();
    }

    void writeConfigJson(obs::JsonWriter &json) const override;

    /** @{ Own per-epoch state plus the inner policy's, in order. */
    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;
    /** @} */

    const monitor::RegionMonitor *monitor() const override
    {
        return inner_->monitor();
    }

    /** @{ Introspection (tests, tables). */
    const TenantQosConfig &qosConfig() const { return config_; }
    const TenantLayout &layout() const { return layout_; }
    std::uint64_t tenantQuota(unsigned t) const { return quota_[t]; }
    bool tenantNoisy(unsigned t) const { return noisy_[t]; }
    std::uint64_t
    tenantBoosted(unsigned t) const
    {
        return boostedTotal_[t];
    }
    /** @} */

    /** Force one epoch rollover outside the decay cadence (tests). */
    void rolloverNow() { onEpoch(); }

  private:
    void onEpoch();
    void armEpochTask(Tick first);

    std::unique_ptr<WritePolicy> inner_;
    TenantQosConfig config_;
    TenantLayout layout_;
    EventQueue &queue_;

    Tick epochTicks_ = 0;                ///< decay-tick cadence (0 = off)
    std::vector<std::uint64_t> quota_;   ///< per-tenant epoch allotment
    std::vector<std::uint64_t> attempted_; ///< registrations this epoch
    std::vector<std::uint64_t> boosted_; ///< filter bypasses this epoch
    std::vector<std::uint64_t> boostedTotal_;   ///< cumulative bypasses
    std::vector<std::uint64_t> noisyEpochsTotal_;
    // std::vector<bool> is avoided: per-element addresses are taken
    // by the tests and the ckpt path.
    std::vector<std::uint8_t> noisy_;    ///< flagged for this epoch

    std::unique_ptr<PeriodicTask> epochTask_;

    std::vector<stats::Scalar *> statNoisyEpochs_;
    std::vector<stats::Scalar *> statBoosted_;
};

} // namespace rrm::policy

#endif // RRM_POLICY_TENANT_QOS_POLICY_HH
