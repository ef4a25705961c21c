/**
 * @file
 * CacheHierarchy implementation.
 */

#include "hierarchy.hh"

namespace rrm::cache
{

HierarchyConfig
defaultHierarchyConfig()
{
    // Table IV, 2 GHz core clock: L1 2 cycles, L2 12, LLC 35.
    HierarchyConfig cfg;
    cfg.numCores = 4;

    cfg.l1.name = "l1d";
    cfg.l1.sizeBytes = 32_KiB;
    cfg.l1.assoc = 4;
    cfg.l1.hitLatency = 1_ns; // 2 cycles @ 2 GHz
    cfg.l1.mshrs = 8;

    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 256_KiB;
    cfg.l2.assoc = 8;
    cfg.l2.hitLatency = 6_ns; // 12 cycles

    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 6_MiB;
    cfg.llc.assoc = 24;
    cfg.llc.hitLatency = 17500_ps; // 35 cycles
    cfg.llc.mshrs = 32;

    return cfg;
}

CacheHierarchy::CacheHierarchy(const HierarchyConfig &config)
    : config_(config)
{
    RRM_ASSERT(config_.numCores >= 1, "need at least one core");
    RRM_ASSERT(config_.l1.lineBytes == config_.l2.lineBytes &&
                   config_.l2.lineBytes == config_.llc.lineBytes,
               "all levels must share one line size");
    for (unsigned c = 0; c < config_.numCores; ++c) {
        CacheConfig l1 = config_.l1;
        CacheConfig l2 = config_.l2;
        l1.name = config_.l1.name + std::to_string(c);
        l2.name = config_.l2.name + std::to_string(c);
        l1s_.push_back(std::make_unique<Cache>(l1));
        l2s_.push_back(std::make_unique<Cache>(l2));
    }
    llc_ = std::make_unique<Cache>(config_.llc);
}

HierarchyEvents
CacheHierarchy::access(unsigned core, Addr addr, bool is_write)
{
    RRM_ASSERT(core < config_.numCores, "core index out of range");
    addr = llc_->lineAddr(addr);

    HierarchyEvents ev;
    Cache &l1 = *l1s_[core];

    // Each level is probed once; a hit below L1 refills the levels
    // above it, and a store dirties the L1 slot the refill returns.
    ev.latency += config_.l1.hitLatency;
    std::size_t l1_slot = l1.lookup(addr);
    if (l1_slot != Cache::npos) {
        ev.hitLevel = 1;
    } else {
        ev.latency += config_.l2.hitLatency;
        if (l2s_[core]->lookup(addr) != Cache::npos) {
            ev.hitLevel = 2;
        } else {
            ev.latency += config_.llc.hitLatency;
            if (llc_->lookup(addr) == Cache::npos) {
                ev.llcMiss = true;
                return ev;
            }
            ev.hitLevel = 3;
            fillIntoL2(core, addr, ev);
        }
        l1_slot = fillIntoL1(core, addr);
    }
    if (is_write)
        l1.setDirtyAt(l1_slot);
    return ev;
}

HierarchyEvents
CacheHierarchy::fill(unsigned core, Addr addr, bool is_write)
{
    RRM_ASSERT(core < config_.numCores, "core index out of range");
    addr = llc_->lineAddr(addr);

    HierarchyEvents ev;
    // allocate() panics if the line is already in the LLC.
    const Victim victim = llc_->allocate(addr, static_cast<int>(core));
    if (victim.valid) {
        // Back-invalidate upper-level copies to preserve inclusion; a
        // dirtier upper copy upgrades the outgoing line. Any core may
        // hold a copy (shared LLC hits fill other cores' L1/L2), so
        // sweep them all.
        bool dirty = victim.dirty;
        for (unsigned c = 0; c < config_.numCores; ++c) {
            dirty |= l2s_[c]->invalidate(victim.addr);
            dirty |= l1s_[c]->invalidate(victim.addr);
        }
        if (dirty) {
            ev.memWrite = true;
            ev.memWriteAddr = victim.addr;
        }
    }

    fillIntoL2(core, addr, ev);
    const std::size_t l1_slot = fillIntoL1(core, addr);
    if (is_write)
        l1s_[core]->setDirtyAt(l1_slot);
    return ev;
}

void
CacheHierarchy::fillIntoL2(unsigned core, Addr addr, HierarchyEvents &ev)
{
    const Victim victim = l2s_[core]->allocate(addr);
    if (!victim.valid)
        return;

    // The L1 copy (if any) must leave too; it may be dirtier.
    bool dirty = victim.dirty;
    dirty |= l1s_[core]->invalidate(victim.addr);

    if (dirty) {
        // Write the victim back into its LLC line: this is the LLC
        // write the RRM registers, with the line's previous dirty bit.
        const std::size_t slot = llc_->probe(victim.addr);
        RRM_ASSERT(slot != Cache::npos,
                   "inclusion broken: L2 victim absent from LLC");
        const bool was_dirty = llc_->dirtyAt(slot);
        llc_->touch(slot); // promote on write
        llc_->setDirtyAt(slot);
        RRM_ASSERT(!ev.registration,
                   "one operation produced two LLC writes");
        ev.registration = true;
        ev.registrationAddr = victim.addr;
        ev.registrationWasDirty = was_dirty;
    }
}

std::size_t
CacheHierarchy::fillIntoL1(unsigned core, Addr addr)
{
    const Victim victim = l1s_[core]->allocate(addr);
    if (victim.valid && victim.dirty) {
        // L1 ⊆ L2: the victim's line is present in L2.
        Cache &l2 = *l2s_[core];
        const std::size_t slot = l2.probe(victim.addr);
        RRM_ASSERT(slot != Cache::npos,
                   "inclusion broken: L1 victim absent from L2");
        l2.touch(slot);
        l2.setDirtyAt(slot);
    }
    return victim.slot;
}

void
CacheHierarchy::regStats(stats::StatGroup &group)
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->regStats(group);
        l2s_[c]->regStats(group);
    }
    llc_->regStats(group);
}

void
CacheHierarchy::saveCkpt(ckpt::ChunkWriter &w) const
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->saveCkpt(w);
        l2s_[c]->saveCkpt(w);
    }
    llc_->saveCkpt(w);
}

void
CacheHierarchy::restoreCkpt(ckpt::ChunkReader &r)
{
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->restoreCkpt(r);
        l2s_[c]->restoreCkpt(r);
    }
    llc_->restoreCkpt(r);
}

void
CacheHierarchy::audit() const
{
    llc_->audit();
    for (unsigned c = 0; c < config_.numCores; ++c) {
        l1s_[c]->audit();
        l2s_[c]->audit();

        l1s_[c]->forEachValidLine([&](Addr a) {
            RRM_AUDIT(l2s_[c]->contains(a), "inclusion: L1 line 0x",
                      std::hex, a, std::dec, " of core ", c,
                      " absent from L2");
        });
        l2s_[c]->forEachValidLine([&](Addr a) {
            RRM_AUDIT(llc_->contains(a), "inclusion: L2 line 0x",
                      std::hex, a, std::dec, " of core ", c,
                      " absent from the LLC");
        });
    }
    llc_->forEachValidLine([&](Addr a) {
        const int owner = llc_->owner(a);
        RRM_AUDIT(owner >= -1 &&
                      owner < static_cast<int>(config_.numCores),
                  "LLC line 0x", std::hex, a, std::dec,
                  " has impossible owner ", owner);
    });
}

} // namespace rrm::cache
