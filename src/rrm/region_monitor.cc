/**
 * @file
 * RegionMonitor implementation.
 */

#include "region_monitor.hh"

#include "ckpt/ckpt.hh"

namespace rrm::monitor
{

RegionMonitor::RegionMonitor(const RrmConfig &config, EventQueue &queue)
    : config_(config), queue_(queue)
{
    config_.check();
    entries_.resize(std::size_t(config_.numSets) * config_.assoc);
    for (auto &e : entries_)
        e.shortRetentionVector = BitVector(config_.blocksPerRegion());
}

RegionMonitor::~RegionMonitor()
{
    stop();
}

void
RegionMonitor::start()
{
    RRM_ASSERT(!refreshTask_ && !decayTask_, "RRM already started");
    const Tick interval = config_.shortRetentionInterval();
    const Tick decay = config_.decayTickInterval();
    refreshTask_ = std::make_unique<PeriodicTask>(
        queue_, interval, queue_.now() + interval,
        [this] { onShortRetentionInterrupt(); },
        EventPriority::RefreshInterrupt);
    decayTask_ = std::make_unique<PeriodicTask>(
        queue_, decay, queue_.now() + decay,
        [this] { onDecayTick(); }, EventPriority::RefreshInterrupt);
}

void
RegionMonitor::stop()
{
    refreshTask_.reset();
    decayTask_.reset();
}

std::uint64_t
RegionMonitor::regionIdOf(Addr addr) const
{
    return addr / config_.regionBytes;
}

std::uint64_t
RegionMonitor::setOf(std::uint64_t region_id) const
{
    return region_id % config_.numSets;
}

RegionMonitor::Entry *
RegionMonitor::find(std::uint64_t region_id)
{
    Entry *base = &entries_[setOf(region_id) * config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w)
        if (base[w].valid && base[w].regionId == region_id)
            return &base[w];
    return nullptr;
}

const RegionMonitor::Entry *
RegionMonitor::find(std::uint64_t region_id) const
{
    return const_cast<RegionMonitor *>(this)->find(region_id);
}

RegionMonitor::Entry &
RegionMonitor::allocate(std::uint64_t region_id)
{
    Entry *base = &entries_[setOf(region_id) * config_.assoc];
    Entry *slot = nullptr;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            slot = &base[w];
            break;
        }
    }
    if (!slot) {
        // Evict the LRU entry of the set.
        slot = base;
        for (unsigned w = 1; w < config_.assoc; ++w)
            if (base[w].lruStamp < slot->lruStamp)
                slot = &base[w];
        if (statEvictions_)
            ++*statEvictions_;
        RRM_TRACE(traceSink_, queue_.now(),
                  obs::TraceCategory::RrmLifecycle, "evict",
                  RRM_TF("region", slot->regionId),
                  RRM_TF("hot", slot->hot),
                  RRM_TF("vectorBits",
                         slot->shortRetentionVector.popcount()));
        if (slot->shortRetentionVector.any()) {
            // Fast-written blocks lose their tracker: hand them back
            // to long retention before dropping the entry.
            if (statEvictionFlushes_)
                ++*statEvictionFlushes_;
            demote(*slot, true);
        }
    }

    slot->regionId = region_id;
    slot->valid = true;
    slot->hot = false;
    slot->dirtyWriteCounter = 0;
    slot->decayCounter = 0;
    slot->shortRetentionVector.reset();
    slot->lruStamp = ++lruClock_;
    if (statAllocations_)
        ++*statAllocations_;
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::RrmLifecycle,
              "alloc", RRM_TF("region", region_id));
    return *slot;
}

void
RegionMonitor::registerLlcWrite(Addr addr, bool was_dirty)
{
    if (statRegistrations_)
        ++*statRegistrations_;
    // Streaming filter: only writes to already-dirty LLC entries count
    // (paper Section IV-D).
    if (config_.dirtyWriteFilter && !was_dirty) {
        if (statCleanFiltered_)
            ++*statCleanFiltered_;
        return;
    }

    const std::uint64_t region_id = regionIdOf(addr);
    ++registrationLookups_;
    Entry *entry = find(region_id);
    if (entry) {
        ++registrationHits_;
        if (entry->hot)
            ++registrationHotHits_;
        if (statRegHits_)
            ++*statRegHits_;
    } else {
        entry = &allocate(region_id);
    }
    entry->lruStamp = ++lruClock_;

    if (entry->dirtyWriteCounter < config_.hotThreshold) {
        ++entry->dirtyWriteCounter;
        if (entry->dirtyWriteCounter == config_.hotThreshold &&
            !entry->hot) {
            entry->hot = true;
            if (statPromotions_)
                ++*statPromotions_;
            RRM_TRACE(traceSink_, queue_.now(),
                      obs::TraceCategory::RrmLifecycle, "promote",
                      RRM_TF("region", region_id),
                      RRM_TF("counter", entry->dirtyWriteCounter));
        }
    }

    // Under refresh-pressure fallback no new short-retention
    // obligations are created: blocks keep going out as slow writes.
    if (entry->hot && !pressureFallback_) {
        const std::uint64_t block =
            (addr % config_.regionBytes) / config_.blockBytes;
        entry->shortRetentionVector.set(block);
    }
}

pcm::WriteMode
RegionMonitor::writeModeFor(Addr block_addr) const
{
    if (pressureFallback_) {
        if (statSlowDecisions_)
            ++*statSlowDecisions_;
        return config_.slowMode;
    }
    const Entry *entry = find(regionIdOf(block_addr));
    if (entry) {
        const std::uint64_t block =
            (block_addr % config_.regionBytes) / config_.blockBytes;
        if (entry->shortRetentionVector.test(block)) {
            if (statFastDecisions_)
                ++*statFastDecisions_;
            return config_.fastMode;
        }
    }
    if (statSlowDecisions_)
        ++*statSlowDecisions_;
    return config_.slowMode;
}

void
RegionMonitor::emitRefresh(Addr block_addr, pcm::WriteMode mode,
                           bool from_decay)
{
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Refresh,
              "refresh", RRM_TF("block", block_addr),
              RRM_TF("sets", pcm::setIterations(mode)),
              RRM_TF("fromDecay", from_decay));
    if (refreshCallback_)
        refreshCallback_(RefreshRequest{block_addr, mode, from_decay});
}

void
RegionMonitor::demote(Entry &entry, bool from_eviction)
{
    // A demotion's slow refreshes are retention-critical: when the
    // refresh path is already saturated they queue behind a full
    // refresh queue, so surface the hazard for fallback policies.
    if (saturationProbe_ && entry.shortRetentionVector.any() &&
        saturationProbe_()) {
        if (statDemotionsUnderPressure_)
            ++*statDemotionsUnderPressure_;
        RRM_TRACE(traceSink_, queue_.now(),
                  obs::TraceCategory::Refresh, "demoteUnderPressure",
                  RRM_TF("region", entry.regionId),
                  RRM_TF("vectorBits",
                         entry.shortRetentionVector.popcount()),
                  RRM_TF("fromEviction", from_eviction));
    }
    const Addr region_base = entry.regionId * config_.regionBytes;
    entry.shortRetentionVector.forEachSet([&](std::size_t block) {
        emitRefresh(region_base + block * config_.blockBytes,
                    config_.slowMode, true);
        if (statSlowRefreshes_)
            ++*statSlowRefreshes_;
    });
    entry.shortRetentionVector.reset();
    entry.hot = false;
    if (!from_eviction) {
        if (statDemotions_)
            ++*statDemotions_;
        RRM_TRACE(traceSink_, queue_.now(),
                  obs::TraceCategory::RrmLifecycle, "demote",
                  RRM_TF("region", entry.regionId),
                  RRM_TF("counter", entry.dirtyWriteCounter));
    }
}

void
RegionMonitor::onShortRetentionInterrupt()
{
    RRM_PROFILE(profiler_, "rrm.refreshRound");
    if (statRefreshRounds_)
        ++*statRefreshRounds_;
    RRM_TRACE(traceSink_, queue_.now(), obs::TraceCategory::Refresh,
              "refreshRound", RRM_TF("hotEntries", hotEntryCount()),
              RRM_TF("vectorBits", shortRetentionBlockCount()));
    for (auto &entry : entries_) {
        if (!entry.valid || !entry.hot)
            continue;
        const Addr region_base = entry.regionId * config_.regionBytes;
        entry.shortRetentionVector.forEachSet([&](std::size_t block) {
            emitRefresh(region_base + block * config_.blockBytes,
                        config_.fastMode, false);
            if (statFastRefreshes_)
                ++*statFastRefreshes_;
        });
    }
}

void
RegionMonitor::onDecayTick()
{
    RRM_PROFILE(profiler_, "rrm.decayTick");
    for (auto &entry : entries_) {
        if (!entry.valid)
            continue;
        entry.decayCounter =
            (entry.decayCounter + 1) % config_.decayTicksPerInterval;
        if (entry.decayCounter != 0)
            continue;
        // Wrap: re-evaluate hotness over the elapsed interval.
        if (entry.hot) {
            if (entry.dirtyWriteCounter >= config_.hotThreshold) {
                // Still hot: halve the counter for the next interval.
                entry.dirtyWriteCounter /= 2;
            } else {
                demote(entry, false);
            }
        }
    }
    if (decayEpochHook_)
        decayEpochHook_();
}

void
RegionMonitor::setHotThreshold(unsigned threshold)
{
    RRM_ASSERT(threshold > 0, "hot_threshold must be positive");
    if (threshold == config_.hotThreshold)
        return;
    RRM_TRACE(traceSink_, queue_.now(),
              obs::TraceCategory::RrmLifecycle, "hotThreshold",
              RRM_TF("from", config_.hotThreshold),
              RRM_TF("to", threshold));
    config_.hotThreshold = threshold;
    for (auto &e : entries_) {
        if (!e.valid)
            continue;
        if (e.dirtyWriteCounter > threshold)
            e.dirtyWriteCounter = threshold;
        if (e.hot && e.dirtyWriteCounter < threshold / 2) {
            // The bar rose past this entry: its fast-written blocks
            // get a final slow rewrite, like any demotion.
            demote(e, false);
        } else if (!e.hot && e.dirtyWriteCounter >= threshold) {
            e.hot = true;
            if (statPromotions_)
                ++*statPromotions_;
            RRM_TRACE(traceSink_, queue_.now(),
                      obs::TraceCategory::RrmLifecycle, "promote",
                      RRM_TF("region", e.regionId),
                      RRM_TF("counter", e.dirtyWriteCounter));
        }
    }
}

void
RegionMonitor::setPressureFallback(bool active)
{
    if (active == pressureFallback_)
        return;
    pressureFallback_ = active;
    RRM_TRACE(traceSink_, queue_.now(),
              obs::TraceCategory::RrmLifecycle, "pressureFallback",
              RRM_TF("active", active),
              RRM_TF("hotEntries", hotEntryCount()));
    if (active)
        demoteAllHot();
}

void
RegionMonitor::demoteAllHot()
{
    for (auto &entry : entries_) {
        if (!entry.valid || !entry.hot)
            continue;
        demote(entry, false);
        // Halve the counter (as a decay wrap would) so the region can
        // earn promotion again instead of wedging at the threshold.
        entry.dirtyWriteCounter /= 2;
    }
}

bool
RegionMonitor::isTracked(Addr addr) const
{
    return find(regionIdOf(addr)) != nullptr;
}

bool
RegionMonitor::isHot(Addr addr) const
{
    const Entry *e = find(regionIdOf(addr));
    return e && e->hot;
}

std::optional<unsigned>
RegionMonitor::dirtyWriteCounter(Addr addr) const
{
    const Entry *e = find(regionIdOf(addr));
    if (!e)
        return std::nullopt;
    return e->dirtyWriteCounter;
}

bool
RegionMonitor::shortRetentionBit(Addr block_addr) const
{
    const Entry *e = find(regionIdOf(block_addr));
    if (!e)
        return false;
    const std::uint64_t block =
        (block_addr % config_.regionBytes) / config_.blockBytes;
    return e->shortRetentionVector.test(block);
}

std::uint64_t
RegionMonitor::hotEntryCount() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_)
        if (e.valid && e.hot)
            ++n;
    return n;
}

std::uint64_t
RegionMonitor::validEntryCount() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_)
        if (e.valid)
            ++n;
    return n;
}

std::uint64_t
RegionMonitor::shortRetentionBlockCount() const
{
    std::uint64_t n = 0;
    for (const auto &e : entries_)
        if (e.valid)
            n += e.shortRetentionVector.popcount();
    return n;
}

void
RegionMonitor::audit() const
{
    std::uint64_t vector_bits = 0;
    for (std::uint64_t set = 0; set < config_.numSets; ++set) {
        const Entry *base = &entries_[set * config_.assoc];
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const Entry &e = base[w];
            RRM_ASSERT(e.shortRetentionVector.size() ==
                           config_.blocksPerRegion(),
                       "entry (set ", set, " way ", w,
                       ") vector width ", e.shortRetentionVector.size(),
                       " != blocks per region ",
                       config_.blocksPerRegion());
            if (!e.valid) {
                RRM_ASSERT(!e.hot, "invalid entry (set ", set, " way ",
                           w, ") is marked hot");
                RRM_ASSERT(e.shortRetentionVector.none(),
                           "invalid entry (set ", set, " way ", w,
                           ") still holds vector bits");
                continue;
            }

            RRM_ASSERT(setOf(e.regionId) == set, "entry for region ",
                       e.regionId, " stored in set ", set,
                       " but indexes to set ", setOf(e.regionId));
            RRM_ASSERT(e.dirtyWriteCounter <= config_.hotThreshold,
                       "region ", e.regionId, " dirty_write_counter ",
                       e.dirtyWriteCounter, " above hot_threshold ",
                       config_.hotThreshold);
            if (e.hot) {
                RRM_ASSERT(e.dirtyWriteCounter >=
                               config_.hotThreshold / 2,
                           "hot region ", e.regionId, " counter ",
                           e.dirtyWriteCounter,
                           " below half the promotion threshold — hot "
                           "without ever reaching hot_threshold?");
            } else {
                RRM_ASSERT(e.shortRetentionVector.none(), "region ",
                           e.regionId,
                           " holds vector bits while not hot");
            }
            RRM_ASSERT(e.decayCounter < config_.decayTicksPerInterval,
                       "region ", e.regionId, " decay_counter ",
                       e.decayCounter, " outside its ",
                       config_.decayTicksPerInterval, "-tick window");
            RRM_ASSERT(e.lruStamp <= lruClock_, "region ", e.regionId,
                       " LRU stamp ", e.lruStamp,
                       " ahead of the LRU clock ", lruClock_);
            vector_bits += e.shortRetentionVector.popcount();

            for (unsigned v = w + 1; v < config_.assoc; ++v) {
                if (!base[v].valid)
                    continue;
                RRM_ASSERT(base[v].regionId != e.regionId,
                           "region ", e.regionId,
                           " tracked twice in set ", set);
                RRM_ASSERT(base[v].lruStamp != e.lruStamp,
                           "duplicate LRU stamp ", e.lruStamp,
                           " in set ", set, " (ways ", w, " and ", v,
                           ")");
            }
        }
    }
    RRM_ASSERT(shortRetentionBlockCount() == vector_bits,
               "shortRetentionBlockCount() ", shortRetentionBlockCount(),
               " != recomputed vector popcount ", vector_bits);
}

void
RegionMonitor::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u32(config_.hotThreshold);
    w.b(pressureFallback_);
    w.u64(lruClock_);
    w.u64(registrationLookups_);
    w.u64(registrationHits_);
    w.u64(registrationHotHits_);
    w.b(refreshTask_ != nullptr);
    if (refreshTask_) {
        w.u64(refreshTask_->nextFireAt());
        w.u64(decayTask_->nextFireAt());
    }
    w.u32(static_cast<std::uint32_t>(entries_.size()));
    for (const Entry &e : entries_) {
        w.u64(e.regionId);
        w.u64(e.lruStamp);
        w.u32(e.dirtyWriteCounter);
        w.u32(e.decayCounter);
        w.b(e.valid);
        w.b(e.hot);
        for (const std::uint64_t word : e.shortRetentionVector.words())
            w.u64(word);
    }
}

void
RegionMonitor::restoreCkpt(ckpt::ChunkReader &r)
{
    RRM_ASSERT(!refreshTask_ && !decayTask_,
               "restoreCkpt() on a started RegionMonitor");
    // Direct assignment: setHotThreshold() would emit reconciliation
    // refreshes, but the saved entry table is already consistent with
    // the saved threshold.
    config_.hotThreshold = r.u32();
    pressureFallback_ = r.b();
    lruClock_ = r.u64();
    registrationLookups_ = r.u64();
    registrationHits_ = r.u64();
    registrationHotHits_ = r.u64();
    const bool armed = r.b();
    Tick refresh_next = 0;
    Tick decay_next = 0;
    if (armed) {
        refresh_next = r.u64();
        decay_next = r.u64();
    }
    const std::uint32_t n = r.u32();
    if (n != entries_.size())
        throw ckpt::CkptError(
            "RRM has " + std::to_string(entries_.size()) +
            " entries but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    const std::size_t vector_words =
        (config_.blocksPerRegion() + 63) / 64;
    std::vector<std::uint64_t> words(vector_words);
    for (Entry &e : entries_) {
        e.regionId = r.u64();
        e.lruStamp = r.u64();
        e.dirtyWriteCounter = r.u32();
        e.decayCounter = r.u32();
        e.valid = r.b();
        e.hot = r.b();
        for (std::uint64_t &word : words)
            word = r.u64();
        e.shortRetentionVector.setWords(words);
    }
    if (armed) {
        // Re-arm in ascending last-arm order (next fire minus period):
        // both tasks run at RefreshInterrupt priority, so when their
        // fire ticks coincide the one whose pending event is OLDER
        // (lower sequence number) fires first. Re-creating the events
        // in last-arm order reproduces the interrupted run's relative
        // sequence numbers (DESIGN.md section 16). Ties (both re-armed
        // at one coincident tick, or neither has fired yet) preserve
        // start()'s refresh-before-decay order, which is exactly the
        // order a coincident fire re-establishes.
        const Tick interval = config_.shortRetentionInterval();
        const Tick decay = config_.decayTickInterval();
        const auto arm_refresh = [&] {
            refreshTask_ = std::make_unique<PeriodicTask>(
                queue_, interval, refresh_next,
                [this] { onShortRetentionInterrupt(); },
                EventPriority::RefreshInterrupt);
        };
        const auto arm_decay = [&] {
            decayTask_ = std::make_unique<PeriodicTask>(
                queue_, decay, decay_next, [this] { onDecayTick(); },
                EventPriority::RefreshInterrupt);
        };
        if (decay_next - decay < refresh_next - interval) {
            arm_decay();
            arm_refresh();
        } else {
            arm_refresh();
            arm_decay();
        }
    }
}

RegionMonitor::Entry &
RegionMonitorTestAccess::entryFor(RegionMonitor &rrm, Addr addr)
{
    RegionMonitor::Entry *e = rrm.find(rrm.regionIdOf(addr));
    RRM_ASSERT(e, "no RRM entry tracks address ", addr);
    return *e;
}

void
RegionMonitorTestAccess::corruptDirtyWriteCounter(RegionMonitor &rrm,
                                                  Addr addr,
                                                  unsigned value)
{
    entryFor(rrm, addr).dirtyWriteCounter = value;
}

void
RegionMonitorTestAccess::corruptHotFlag(RegionMonitor &rrm, Addr addr,
                                        bool hot)
{
    entryFor(rrm, addr).hot = hot;
}

void
RegionMonitorTestAccess::corruptDecayCounter(RegionMonitor &rrm,
                                             Addr addr, unsigned value)
{
    entryFor(rrm, addr).decayCounter = value;
}

void
RegionMonitorTestAccess::corruptVectorBit(RegionMonitor &rrm,
                                          Addr block_addr)
{
    RegionMonitor::Entry &e = entryFor(rrm, block_addr);
    const std::uint64_t block =
        (block_addr % rrm.config_.regionBytes) / rrm.config_.blockBytes;
    e.shortRetentionVector.set(block);
}

void
RegionMonitorTestAccess::corruptLruStamp(RegionMonitor &rrm, Addr addr,
                                         std::uint64_t stamp)
{
    entryFor(rrm, addr).lruStamp = stamp;
}

void
RegionMonitorTestAccess::corruptRegionId(RegionMonitor &rrm, Addr addr,
                                         std::uint64_t region_id)
{
    entryFor(rrm, addr).regionId = region_id;
}

void
RegionMonitor::regStats(stats::StatGroup &group)
{
    auto &g = group.addChild("rrm");
    statRegistrations_ =
        &g.addScalar("registrations", "LLC write registrations seen");
    statCleanFiltered_ = &g.addScalar(
        "cleanFiltered", "registrations dropped by the dirty filter");
    statRegHits_ =
        &g.addScalar("registrationHits", "registrations hitting an entry");
    statAllocations_ = &g.addScalar("allocations", "entries allocated");
    statEvictions_ = &g.addScalar("evictions", "LRU entries evicted");
    statEvictionFlushes_ = &g.addScalar(
        "evictionFlushes", "evictions that flushed live vector bits");
    statPromotions_ = &g.addScalar("promotions", "entries turned hot");
    statDemotions_ = &g.addScalar("demotions", "hot entries decayed");
    if (saturationProbe_) {
        statDemotionsUnderPressure_ = &g.addScalar(
            "demotionsUnderPressure",
            "demotions issued while the refresh path was saturated");
    }
    statFastDecisions_ =
        &g.addScalar("fastWrites", "memory writes sent as fast mode");
    statSlowDecisions_ =
        &g.addScalar("slowWrites", "memory writes sent as slow mode");
    statFastRefreshes_ =
        &g.addScalar("fastRefreshes", "selective fast refreshes issued");
    statSlowRefreshes_ = &g.addScalar(
        "slowRefreshes", "demotion/eviction slow refreshes issued");
    statRefreshRounds_ =
        &g.addScalar("refreshRounds", "short retention interrupts");
}

} // namespace rrm::monitor
