/**
 * @file
 * Per-region wear accounting for the PCM array.
 *
 * Every RESET dominates PCM cell wear (Kim & Ahn), and every write —
 * demand write, RRM selective refresh, or global refresh — performs one
 * RESET per cell, so wear is counted in block-write units, categorized
 * by cause. Demand and RRM-refresh writes are tracked per 4 KB region
 * (2M counters for an 8 GB array) to allow wear-distribution analysis;
 * global refresh touches every block uniformly and is tracked as an
 * analytic aggregate (the paper assumes a built-in self-refresh
 * circuit and does not simulate it event by event).
 */

#ifndef RRM_PCM_WEAR_TRACKER_HH
#define RRM_PCM_WEAR_TRACKER_HH

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/auditable.hh"
#include "common/histogram.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/units.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::pcm
{

/** Cause of a block write, for wear attribution. */
enum class WearCause : std::uint8_t
{
    DemandWrite = 0, ///< LLC dirty eviction reaching memory
    RrmRefresh,      ///< selective refresh issued by the RRM
    GlobalRefresh,   ///< chip self-refresh of the whole array
};

constexpr std::size_t numWearCauses = 3;

/** Human-readable cause name. */
std::string_view wearCauseName(WearCause cause);

/** Tracks block-write wear across the PCM array. */
class WearTracker : public Auditable
{
  public:
    /**
     * @param memory_bytes Total PCM capacity.
     * @param region_bytes Tracking granularity (power of two).
     * @param block_bytes  Memory block size (power of two).
     */
    WearTracker(std::uint64_t memory_bytes, std::uint64_t region_bytes,
                std::uint64_t block_bytes);

    /** Record one block write at `addr` for the given cause. */
    void recordBlockWrite(Addr addr, WearCause cause);

    /**
     * Record `count` uniform global-refresh block writes (aggregate
     * only; not attributed to regions).
     */
    void recordGlobalRefresh(std::uint64_t count);

    /** Total block writes recorded for a cause. */
    std::uint64_t total(WearCause cause) const;

    /** Total block writes across all causes. */
    std::uint64_t grandTotal() const;

    std::uint64_t numRegions() const { return regionWear_.size(); }
    std::uint64_t numBlocks() const { return numBlocks_; }
    std::uint64_t regionBytes() const { return regionBytes_; }
    std::uint64_t blockBytes() const { return blockBytes_; }

    /** Per-region wear (demand + RRM refresh) for region index r. */
    std::uint64_t regionWear(std::uint64_t r) const;

    /** Number of regions with at least one tracked write. */
    std::uint64_t touchedRegions() const;

    /** Maximum tracked per-region wear. */
    std::uint64_t maxRegionWear() const;

    /**
     * Summary of the tracked per-region wear distribution (only
     * regions with nonzero wear contribute).
     */
    SampleStats regionWearStats() const;

    /** Region index of an address. */
    std::uint64_t
    regionIndex(Addr addr) const
    {
        const std::uint64_t r = addr >> regionShift_;
        RRM_ASSERT(r < regionWear_.size(), "address ", addr,
                   " outside PCM array");
        return r;
    }

    /** Reset all counters. */
    void reset();

    /** @{ Checkpoint per-cause totals and per-region counters. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    /**
     * Invariants: per-cause totals never decrease between audits
     * (short of reset()), and the per-region counters sum to the
     * demand + RRM-refresh totals (global refresh is aggregate-only
     * and never attributed to regions).
     */
    void audit() const override;

  private:
    std::uint64_t memoryBytes_;
    std::uint64_t regionBytes_;
    std::uint64_t blockBytes_;
    std::uint64_t numBlocks_;
    unsigned regionShift_;

    std::array<std::uint64_t, numWearCauses> totals_{};
    std::vector<std::uint32_t> regionWear_;

    /** Audit bookkeeping: totals observed by the previous audit. */
    mutable std::array<std::uint64_t, numWearCauses> auditedTotals_{};
};

} // namespace rrm::pcm

#endif // RRM_PCM_WEAR_TRACKER_HH
