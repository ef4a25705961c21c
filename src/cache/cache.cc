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
    lines_.assign(numSets_ * config_.assoc, Line{});
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineShift_) & (numSets_ - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return addr >> lineShift_;
}

Cache::Line *
Cache::findLine(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.assoc];
    for (unsigned w = 0; w < config_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    return nullptr;
}

const Cache::Line *
Cache::findLine(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr);
}

bool
Cache::contains(Addr addr) const
{
    return findLine(addr) != nullptr;
}

bool
Cache::access(Addr addr)
{
    Line *line = findLine(addr);
    if (line) {
        line->stamp = ++replClock_;
        if (statHits_)
            ++*statHits_;
        return true;
    }
    if (statMisses_)
        ++*statMisses_;
    return false;
}

Victim
Cache::allocate(Addr addr, int owner)
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *base = &lines_[set * config_.assoc];

    // One pass both picks the first free way and enforces the
    // not-already-present contract (no separate contains() walk).
    Line *slot = nullptr;
    for (unsigned w = 0; w < config_.assoc; ++w) {
        if (!base[w].valid) {
            if (!slot)
                slot = &base[w];
            continue;
        }
        RRM_ASSERT(base[w].tag != tag,
                   "allocate() of a present line in '", config_.name,
                   "'");
    }

    Victim victim;
    if (!slot) {
        // All ways valid: evict the least recently used (minimum
        // stamp).
        unsigned w = 0;
        for (unsigned v = 1; v < config_.assoc; ++v)
            if (base[v].stamp < base[w].stamp)
                w = v;
        slot = &base[w];
        victim.valid = true;
        victim.addr = slot->tag << lineShift_;
        victim.dirty = slot->dirty;
        victim.owner = slot->owner;
        if (statEvictions_)
            ++*statEvictions_;
        if (victim.dirty && statDirtyEvictions_)
            ++*statDirtyEvictions_;
    }

    slot->tag = tag;
    slot->valid = true;
    slot->dirty = false;
    slot->owner = owner;
    slot->stamp = ++replClock_;
    return victim;
}

void
Cache::setDirty(Addr addr)
{
    Line *line = findLine(addr);
    RRM_ASSERT(line, "setDirty() on absent line in '", config_.name, "'");
    line->dirty = true;
}

bool
Cache::isDirty(Addr addr) const
{
    const Line *line = findLine(addr);
    RRM_ASSERT(line, "isDirty() on absent line in '", config_.name, "'");
    return line->dirty;
}

int
Cache::owner(Addr addr) const
{
    const Line *line = findLine(addr);
    RRM_ASSERT(line, "owner() on absent line in '", config_.name, "'");
    return line->owner;
}

bool
Cache::invalidate(Addr addr)
{
    Line *line = findLine(addr);
    if (!line)
        return false;
    const bool was_dirty = line->dirty;
    line->valid = false;
    line->dirty = false;
    return was_dirty;
}

std::uint64_t
Cache::numValidLines() const
{
    std::uint64_t n = 0;
    for (const auto &line : lines_)
        if (line.valid)
            ++n;
    return n;
}

void
Cache::audit() const
{
    for (std::uint64_t set = 0; set < numSets_; ++set) {
        const Line *base = &lines_[set * config_.assoc];
        for (unsigned w = 0; w < config_.assoc; ++w) {
            const Line &line = base[w];
            if (!line.valid) {
                RRM_AUDIT(!line.dirty, "cache '", config_.name,
                          "': invalid line is dirty (set ", set,
                          " way ", w, ")");
                continue;
            }
            const Addr addr = line.tag << lineShift_;
            RRM_AUDIT(setIndex(addr) == set, "cache '", config_.name,
                      "': tag in set ", set, " indexes to set ",
                      setIndex(addr));
            for (unsigned v = w + 1; v < config_.assoc; ++v) {
                if (!base[v].valid)
                    continue;
                RRM_AUDIT(base[v].tag != line.tag, "cache '",
                          config_.name, "': duplicate tag in set ", set,
                          " (ways ", w, " and ", v, ")");
                RRM_AUDIT(base[v].stamp != line.stamp, "cache '",
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
    w.u32(static_cast<std::uint32_t>(lines_.size()));
    for (const Line &line : lines_) {
        w.u64(line.tag);
        w.u64(line.stamp);
        w.u32(static_cast<std::uint32_t>(line.owner));
        w.b(line.valid);
        w.b(line.dirty);
    }
}

void
Cache::restoreCkpt(ckpt::ChunkReader &r)
{
    replClock_ = r.u64();
    const std::uint32_t n = r.u32();
    if (n != lines_.size())
        throw ckpt::CkptError(
            "cache '" + config_.name + "' has " +
            std::to_string(lines_.size()) +
            " lines but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (Line &line : lines_) {
        line.tag = r.u64();
        line.stamp = r.u64();
        line.owner = static_cast<int>(r.u32());
        line.valid = r.b();
        line.dirty = r.b();
    }
}

} // namespace rrm::cache
