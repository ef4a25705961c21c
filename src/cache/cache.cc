/**
 * @file
 * Cache array implementation.
 */

#include "cache.hh"

#include "ckpt/ckpt.hh"

namespace rrm::cache
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    RRM_ASSERT(isPowerOfTwo(config_.lineBytes), "line size must be 2^n");
    RRM_ASSERT(config_.lineBytes >= 2,
               "line size must be at least 2 bytes, so that no tag equals "
               "the empty-way sentinel");
    RRM_ASSERT(config_.assoc >= 1, "associativity must be >= 1");
    RRM_ASSERT(config_.sizeBytes %
                       (std::uint64_t(config_.lineBytes) * config_.assoc) ==
                   0,
               "cache '", config_.name,
               "' size must be a whole number of sets");
    numSets_ =
        config_.sizeBytes / (std::uint64_t(config_.lineBytes) * config_.assoc);
    RRM_ASSERT(isPowerOfTwo(numSets_), "cache '", config_.name,
               "' set count must be a power of two");
    lineShift_ = floorLog2(config_.lineBytes);
    const std::size_t slots = numSets_ * config_.assoc;
    tags_.assign(slots, kEmpty);
    stamps_.assign(slots, 0);
    owners_.assign(slots, -1);
    dirty_.assign(slots, 0);
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Victim
Cache::allocate(Addr addr, int owner)
{
    const Addr tag = addr >> lineShift_;
    const std::size_t base = setIndex(addr) * config_.assoc;
    const Addr *ways = &tags_[base];
    const std::uint64_t *stamps = &stamps_[base];

    // One pass picks the first free way, enforces the
    // not-already-present contract and finds the LRU (minimum stamp)
    // way. The LRU pick is only used when no way is free, i.e. when
    // every stamp compared belongs to a valid line.
    const unsigned assoc = config_.assoc;
    unsigned free = assoc;
    unsigned lru = 0;
    for (unsigned w = 0; w < assoc; ++w) {
        if (ways[w] == kEmpty) {
            if (free == assoc)
                free = w;
            continue;
        }
        RRM_ASSERT(ways[w] != tag, "allocate() of a present line in '",
                   config_.name, "'");
        if (stamps[w] < stamps[lru])
            lru = w;
    }

    Victim victim;
    if (free == assoc) {
        victim.slot = base + lru;
        victim.valid = true;
        victim.addr = tags_[victim.slot] << lineShift_;
        victim.dirty = dirty_[victim.slot] != 0;
        if (statEvictions_)
            ++*statEvictions_;
        if (victim.dirty && statDirtyEvictions_)
            ++*statDirtyEvictions_;
    } else {
        victim.slot = base + free;
    }

    tags_[victim.slot] = tag;
    dirty_[victim.slot] = 0;
    owners_[victim.slot] = owner;
    stamps_[victim.slot] = ++replClock_;
    return victim;
}

void
Cache::setDirty(Addr addr)
{
    const std::size_t slot = probe(addr);
    RRM_ASSERT(slot != npos, "setDirty() on absent line in '",
               config_.name, "'");
    setDirtyAt(slot);
}

bool
Cache::isDirty(Addr addr) const
{
    const std::size_t slot = probe(addr);
    RRM_ASSERT(slot != npos, "isDirty() on absent line in '",
               config_.name, "'");
    return dirtyAt(slot);
}

int
Cache::owner(Addr addr) const
{
    const std::size_t slot = probe(addr);
    RRM_ASSERT(slot != npos, "owner() on absent line in '", config_.name,
               "'");
    return owners_[slot];
}

bool
Cache::invalidate(Addr addr)
{
    const std::size_t slot = probe(addr);
    if (slot == npos)
        return false;
    const bool was_dirty = dirtyAt(slot);
    tags_[slot] = kEmpty;
    dirty_[slot] = 0;
    return was_dirty;
}

std::uint64_t
Cache::numValidLines() const
{
    std::uint64_t n = 0;
    for (const Addr tag : tags_)
        if (tag != kEmpty)
            ++n;
    return n;
}

void
Cache::audit() const
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const std::size_t base = set * config_.assoc;
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const std::size_t slot = base + w;
            if (tags_[slot] == kEmpty) {
                RRM_AUDIT(!dirtyAt(slot), "cache '", config_.name,
                          "': invalid line is dirty (set ", set,
                          " way ", w, ")");
                continue;
            }
            const Addr addr = tags_[slot] << lineShift_;
            RRM_AUDIT(setIndex(addr) == set, "cache '", config_.name,
                      "': tag in set ", set, " indexes to set ",
                      setIndex(addr));
            for (unsigned v = w + 1; v < config_.assoc; ++v) {
                if (tags_[base + v] == kEmpty)
                    continue;
                RRM_AUDIT(tags_[base + v] != tags_[slot], "cache '",
                          config_.name, "': duplicate tag in set ", set,
                          " (ways ", w, " and ", v, ")");
                RRM_AUDIT(stamps_[base + v] != stamps_[slot], "cache '",
                          config_.name, "': duplicate LRU stamp in set ",
                          set, " (ways ", w, " and ", v, ")");
            }
        }
    }
}

void
Cache::regStats(stats::StatGroup &group)
{
    auto &g = group.addChild(config_.name);
    statHits_ = &g.addScalar("hits", "lookups that hit");
    statMisses_ = &g.addScalar("misses", "lookups that missed");
    statEvictions_ = &g.addScalar("evictions", "lines displaced");
    statDirtyEvictions_ =
        &g.addScalar("dirtyEvictions", "dirty lines displaced");
}

void
Cache::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(replClock_);
    w.u32(static_cast<std::uint32_t>(tags_.size()));
    for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
        const bool valid = tags_[slot] != kEmpty;
        w.u64(valid ? tags_[slot] : 0);
        w.u64(stamps_[slot]);
        w.u32(static_cast<std::uint32_t>(owners_[slot]));
        w.b(valid);
        w.b(dirtyAt(slot));
    }
}

void
Cache::restoreCkpt(ckpt::ChunkReader &r)
{
    replClock_ = r.u64();
    const std::uint32_t n = r.u32();
    if (n != tags_.size())
        throw ckpt::CkptError(
            "cache '" + config_.name + "' has " +
            std::to_string(tags_.size()) +
            " lines but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (std::size_t slot = 0; slot < tags_.size(); ++slot) {
        const Addr tag = r.u64();
        stamps_[slot] = r.u64();
        owners_[slot] = static_cast<int>(r.u32());
        const bool valid = r.b();
        dirty_[slot] = r.b() ? 1 : 0;
        if (valid && tag == kEmpty)
            throw ckpt::CkptError("cache '" + config_.name +
                                  "' holds a valid line with the "
                                  "empty-way tag");
        tags_[slot] = valid ? tag : kEmpty;
    }
}

} // namespace rrm::cache
