/**
 * @file
 * Tenant-aware QoS write-policy decorator implementation.
 */

#include "tenant_qos_policy.hh"

#include "ckpt/ckpt.hh"
#include "common/logging.hh"

namespace rrm::policy
{

namespace
{

/** Boost allotment of one whole epoch, before the tenant split. */
std::uint64_t
baseEpochBudget(const monitor::RegionMonitor *mon)
{
    // One structure's worth of promotions per decay tick: enough for
    // a well-behaved tenant to keep its share of entries hot, tight
    // enough that a storm cannot churn the whole table each epoch.
    if (mon == nullptr)
        return 4096;
    const monitor::RrmConfig &cfg = mon->config();
    const std::uint64_t capacity = std::uint64_t(cfg.numSets) * cfg.assoc;
    const std::uint64_t per_tick =
        capacity * cfg.hotThreshold / cfg.decayTicksPerInterval;
    return per_tick > 0 ? per_tick : 1;
}

} // namespace

TenantQosPolicy::TenantQosPolicy(std::unique_ptr<WritePolicy> inner,
                                 const TenantQosConfig &config,
                                 const TenantLayout &layout,
                                 EventQueue &queue)
    : inner_(std::move(inner)), config_(config), layout_(layout),
      queue_(queue)
{
    RRM_ASSERT(inner_ != nullptr,
               "TenantQosPolicy needs an inner policy");
    epochTicks_ = inner_->preferredSampleInterval();

    const unsigned num = layout_.numTenants();
    const std::vector<unsigned> cores = layout_.coresPerTenant();
    unsigned total_cores = 0;
    for (const unsigned n : cores)
        total_cores += n;
    if (total_cores == 0)
        total_cores = 1;

    const double base = static_cast<double>(baseEpochBudget(
                            inner_->monitor())) *
                        config_.budgetFactor;
    quota_.resize(num);
    for (unsigned t = 0; t < num; ++t) {
        const double share =
            base * static_cast<double>(cores[t]) / total_cores;
        quota_[t] = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(share));
    }
    attempted_.assign(num, 0);
    boosted_.assign(num, 0);
    boostedTotal_.assign(num, 0);
    noisyEpochsTotal_.assign(num, 0);
    noisy_.assign(num, 0);
    statNoisyEpochs_.assign(num, nullptr);
    statBoosted_.assign(num, nullptr);
}

TenantQosPolicy::~TenantQosPolicy() = default;

void
TenantQosPolicy::armEpochTask(Tick first)
{
    epochTask_ = std::make_unique<PeriodicTask>(
        queue_, epochTicks_, first, [this] { onEpoch(); },
        EventPriority::RefreshInterrupt);
}

void
TenantQosPolicy::start()
{
    inner_->start();
    if (epochTicks_ > 0 && !epochTask_)
        armEpochTask(queue_.now() + epochTicks_);
}

void
TenantQosPolicy::stop()
{
    epochTask_.reset();
    inner_->stop();
}

void
TenantQosPolicy::registerLlcWrite(Addr addr, bool was_dirty)
{
    const unsigned t = layout_.tenantOfAddr(addr);
    ++attempted_[t];
    if (boosted_[t] < quota_[t]) {
        // Inside the tenant's guaranteed allotment: bypass the
        // streaming filter so neighbour-induced LLC evictions cannot
        // starve this tenant's regions of promotions.
        ++boosted_[t];
        ++boostedTotal_[t];
        if (statBoosted_[t])
            ++*statBoosted_[t];
        inner_->registerLlcWrite(addr, /*was_dirty=*/true);
        return;
    }
    inner_->registerLlcWrite(addr, was_dirty);
}

void
TenantQosPolicy::onEpoch()
{
    const unsigned num = layout_.numTenants();
    for (unsigned t = 0; t < num; ++t) {
        const double limit =
            static_cast<double>(quota_[t]) * config_.noisyFactor;
        const bool loud = static_cast<double>(attempted_[t]) > limit;
        noisy_[t] = loud ? 1 : 0;
        if (loud) {
            ++noisyEpochsTotal_[t];
            if (statNoisyEpochs_[t])
                ++*statNoisyEpochs_[t];
        }
        attempted_[t] = 0;
        boosted_[t] = 0;
    }
}

void
TenantQosPolicy::regStats(stats::StatGroup &root)
{
    inner_->regStats(root);
    stats::StatGroup &policy = root.addChild("policy");
    stats::StatGroup &tenant = policy.addChild("tenant");
    const unsigned num = layout_.numTenants();
    for (unsigned t = 0; t < num; ++t) {
        stats::StatGroup &g = tenant.addChild(std::to_string(t));
        statBoosted_[t] = &g.addScalar(
            "boostedRegs",
            "registrations boosted past the streaming filter under "
            "the tenant's allotment");
        statNoisyEpochs_[t] = &g.addScalar(
            "noisyEpochs", "epochs this tenant was marked noisy");
    }
}

void
TenantQosPolicy::writeConfigJson(obs::JsonWriter &json) const
{
    inner_->writeConfigJson(json);
    json.key("qos");
    json.beginObject();
    json.field("budgetFactor", config_.budgetFactor);
    json.field("noisyFactor", config_.noisyFactor);
    json.field("epochTicks", epochTicks_);
    json.key("tenantQuotas");
    json.beginArray();
    for (const std::uint64_t q : quota_)
        json.value(q);
    json.endArray();
    json.endObject();
}

void
TenantQosPolicy::saveCkpt(ckpt::ChunkWriter &w) const
{
    const unsigned num = layout_.numTenants();
    w.u32(num);
    for (unsigned t = 0; t < num; ++t) {
        w.u64(attempted_[t]);
        w.u64(boosted_[t]);
        w.u64(boostedTotal_[t]);
        w.u64(noisyEpochsTotal_[t]);
        w.b(noisy_[t] != 0);
    }
    const bool armed = epochTask_ && epochTask_->running();
    w.b(armed);
    w.u64(armed ? epochTask_->nextFireAt() : 0);
    inner_->saveCkpt(w);
}

void
TenantQosPolicy::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_ASSERT(epochTask_ == nullptr,
               "TenantQosPolicy: restore after start");
    const unsigned num = r.u32();
    RRM_ASSERT(num == layout_.numTenants(),
               "TenantQosPolicy: checkpoint tenant count mismatch");
    for (unsigned t = 0; t < num; ++t) {
        attempted_[t] = r.u64();
        boosted_[t] = r.u64();
        boostedTotal_[t] = r.u64();
        noisyEpochsTotal_[t] = r.u64();
        noisy_[t] = r.b() ? 1 : 0;
    }
    const bool armed = r.b();
    const Tick next_fire = r.u64();
    if (armed && epochTicks_ > 0)
        armEpochTask(next_fire);
    inner_->restoreCkpt(r);
}

} // namespace rrm::policy
