/**
 * @file
 * A single set-associative write-back cache array.
 *
 * Cache is a building block: it owns tags, dirty bits, owners and LRU
 * replacement stamps, and exposes the primitive operations the
 * three-level CacheHierarchy composes (lookup, allocate-with-victim,
 * dirty marking, invalidation). It deliberately stores no data bytes —
 * the simulator tracks state, not contents.
 */

#ifndef RRM_CACHE_CACHE_HH
#define RRM_CACHE_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/auditable.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/units.hh"
#include "stats/stats.hh"

namespace rrm::cache
{

/** Static configuration of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 4;
    unsigned lineBytes = 64;
    Tick hitLatency = 1_ns;
    /** Outstanding-miss budget; read only for the L1 (per-core
     *  budget) and the LLC (memory reads), not for the L2. */
    unsigned mshrs = 8;
};

/** Outcome of allocating a line: the displaced victim, if any. */
struct Victim
{
    bool valid = false;
    Addr addr = 0;
    bool dirty = false;
    /** Slot the new line now occupies (see Cache::probe). */
    std::size_t slot = 0;
};

/**
 * One set-associative cache level.
 *
 * Storage is struct-of-arrays, set-major: way `w` of set `s` is slot
 * `s * assoc + w` in each of `tags_`, `stamps_`, `owners_` and
 * `dirty_`. An empty way holds the sentinel tag `kEmpty`, so a probe
 * compares tags only and reads one contiguous run of `assoc` words.
 * Slot handles from probe()/allocate() stay valid until the next
 * allocate() or invalidate() on this cache.
 */
class Cache : public Auditable
{
  public:
    /** probe() result for an absent line. */
    static constexpr std::size_t npos = ~std::size_t(0);

    explicit Cache(const CacheConfig &config);

    const CacheConfig &config() const { return config_; }

    std::uint64_t numSets() const { return numSets_; }

    /** Line-aligned base address of `addr`. */
    Addr
    lineAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(config_.lineBytes - 1);
    }

    /**
     * Find the line holding `addr` without touching LRU state or
     * statistics.
     * @return Its slot, or npos if absent.
     */
    std::size_t
    probe(Addr addr) const
    {
        const Addr tag = addr >> lineShift_;
        const std::size_t base = (tag & (numSets_ - 1)) * config_.assoc;
        const Addr *ways = tags_.data() + base;
        // No early exit: a set holds each tag at most once, and a
        // branch on the (random) hit way would mispredict.
        std::size_t hit = npos;
        for (unsigned w = 0; w < config_.assoc; ++w)
            hit = ways[w] == tag ? base + w : hit;
        return hit;
    }

    /** @{ Operations on a slot returned by probe() or allocate(). */
    /** A lookup hit: promote to most recently used and count it. */
    void
    touch(std::size_t slot)
    {
        stamps_[slot] = ++replClock_;
        if (statHits_)
            ++*statHits_;
    }

    bool dirtyAt(std::size_t slot) const { return dirty_[slot] != 0; }
    void setDirtyAt(std::size_t slot) { dirty_[slot] = 1; }
    /** @} */

    /** A lookup miss: count it. */
    void
    countMiss()
    {
        if (statMisses_)
            ++*statMisses_;
    }

    /** True if the line holding `addr` is present. */
    bool contains(Addr addr) const { return probe(addr) != npos; }

    /**
     * Counted lookup: probe, then touch() a hit or countMiss().
     * @return The hit slot, or npos.
     */
    std::size_t
    lookup(Addr addr)
    {
        const std::size_t slot = probe(addr);
        if (slot == npos)
            countMiss();
        else
            touch(slot);
        return slot;
    }

    /** lookup() that reports only whether it hit. */
    bool access(Addr addr) { return lookup(addr) != npos; }

    /**
     * Allocate a line for `addr` (must not be present), evicting the
     * least recently used line if the set is full.
     *
     * @param owner Owner core recorded on the line (used by the shared
     *              LLC for back-invalidation; -1 if untracked).
     * @return The displaced victim (valid == false if a free way was
     *         used) and the new line's slot.
     */
    Victim allocate(Addr addr, int owner = -1);

    /** Mark the (present) line dirty. */
    void setDirty(Addr addr);

    /** @return dirty flag of the (present) line. */
    bool isDirty(Addr addr) const;

    /** Owner recorded on the (present) line. */
    int owner(Addr addr) const;

    /**
     * Invalidate the line if present.
     * @return true if the line was present and dirty.
     */
    bool invalidate(Addr addr);

    /** Number of valid lines (for tests / occupancy checks). */
    std::uint64_t numValidLines() const;

    /** Invoke fn(lineAddr) for every valid line (tests / invariants). */
    template <typename Fn>
    void
    forEachValidLine(Fn &&fn) const
    {
        for (const Addr tag : tags_)
            if (tag != kEmpty)
                fn(tag << lineShift_);
    }

    /** Register hit/miss/writeback statistics into a group. */
    void regStats(stats::StatGroup &group);

    /**
     * @{ Checkpoint the full array state: every line's tag / stamp /
     * owner / valid / dirty plus the LRU clock. An empty way is saved
     * as tag 0 with valid == false. Counters registered via regStats
     * are covered by the stats section, not here.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    /**
     * Invariants: no duplicate valid tags within a set, every valid
     * tag indexes back to the set holding it, dirty state only on
     * valid lines, and distinct LRU stamps among the valid ways of a
     * set.
     */
    void audit() const override;

  private:
    /** Tag of an empty way; lines of 2+ bytes never shift down to it. */
    static constexpr Addr kEmpty = ~Addr(0);

    std::uint64_t setIndex(Addr addr) const;

    CacheConfig config_;
    std::uint64_t numSets_;
    unsigned lineShift_;

    /** @{ Per-slot state, numSets_ * assoc entries, set-major. */
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<int> owners_;
    std::vector<std::uint8_t> dirty_;
    /** @} */

    /** LRU stamp clock: every hit and insertion takes the next value. */
    std::uint64_t replClock_ = 0;

    stats::Scalar *statHits_ = nullptr;
    stats::Scalar *statMisses_ = nullptr;
    stats::Scalar *statEvictions_ = nullptr;
    stats::Scalar *statDirtyEvictions_ = nullptr;
};

} // namespace rrm::cache

#endif // RRM_CACHE_CACHE_HH
