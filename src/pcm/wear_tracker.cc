/**
 * @file
 * WearTracker implementation.
 */

#include "wear_tracker.hh"

#include <algorithm>
#include <numeric>

#include "ckpt/ckpt.hh"

namespace rrm::pcm
{

std::string_view
wearCauseName(WearCause cause)
{
    switch (cause) {
      case WearCause::DemandWrite:
        return "demand_write";
      case WearCause::RrmRefresh:
        return "rrm_refresh";
      case WearCause::GlobalRefresh:
        return "global_refresh";
    }
    panic("invalid wear cause");
}

WearTracker::WearTracker(std::uint64_t memory_bytes,
                         std::uint64_t region_bytes,
                         std::uint64_t block_bytes)
    : memoryBytes_(memory_bytes),
      regionBytes_(region_bytes),
      blockBytes_(block_bytes)
{
    RRM_ASSERT(isPowerOfTwo(regionBytes_), "region size must be 2^n");
    RRM_ASSERT(isPowerOfTwo(blockBytes_), "block size must be 2^n");
    RRM_ASSERT(memoryBytes_ % regionBytes_ == 0,
               "memory size must be a whole number of regions");
    RRM_ASSERT(regionBytes_ >= blockBytes_,
               "region must be at least one block");
    numBlocks_ = memoryBytes_ / blockBytes_;
    regionShift_ = floorLog2(regionBytes_);
    regionWear_.assign(memoryBytes_ / regionBytes_, 0);
}

void
WearTracker::recordBlockWrite(Addr addr, WearCause cause)
{
    RRM_ASSERT(cause != WearCause::GlobalRefresh,
               "global refresh is aggregate-only; use "
               "recordGlobalRefresh()");
    totals_[static_cast<std::size_t>(cause)] += 1;
    std::uint32_t &w = regionWear_[regionIndex(addr)];
    if (w != ~std::uint32_t(0))
        ++w;
}

void
WearTracker::recordGlobalRefresh(std::uint64_t count)
{
    totals_[static_cast<std::size_t>(WearCause::GlobalRefresh)] += count;
}

std::uint64_t
WearTracker::total(WearCause cause) const
{
    return totals_[static_cast<std::size_t>(cause)];
}

std::uint64_t
WearTracker::grandTotal() const
{
    return std::accumulate(totals_.begin(), totals_.end(),
                           std::uint64_t(0));
}

std::uint64_t
WearTracker::regionWear(std::uint64_t r) const
{
    RRM_ASSERT(r < regionWear_.size(), "region index out of range");
    return regionWear_[r];
}

std::uint64_t
WearTracker::touchedRegions() const
{
    return static_cast<std::uint64_t>(
        std::count_if(regionWear_.begin(), regionWear_.end(),
                      [](std::uint32_t w) { return w != 0; }));
}

std::uint64_t
WearTracker::maxRegionWear() const
{
    if (regionWear_.empty())
        return 0;
    return *std::max_element(regionWear_.begin(), regionWear_.end());
}

SampleStats
WearTracker::regionWearStats() const
{
    SampleStats stats;
    for (std::uint32_t w : regionWear_)
        if (w != 0)
            stats.add(static_cast<double>(w));
    return stats;
}

void
WearTracker::reset()
{
    totals_.fill(0);
    std::fill(regionWear_.begin(), regionWear_.end(), 0);
    auditedTotals_.fill(0);
}

void
WearTracker::saveCkpt(ckpt::ChunkWriter &w) const
{
    for (const std::uint64_t t : totals_)
        w.u64(t);
    w.u32(static_cast<std::uint32_t>(regionWear_.size()));
    for (const std::uint32_t r : regionWear_)
        w.u32(r);
}

void
WearTracker::restoreCkpt(ckpt::ChunkReader &r)
{
    for (std::uint64_t &t : totals_)
        t = r.u64();
    const std::uint32_t n = r.u32();
    if (n != regionWear_.size())
        throw ckpt::CkptError(
            "wear tracker has " + std::to_string(regionWear_.size()) +
            " regions but the checkpoint holds " + std::to_string(n) +
            " (geometry mismatch)");
    for (std::uint32_t &rw : regionWear_)
        rw = r.u32();
    // Audit bookkeeping restarts from the restored totals; the
    // non-decrease invariant holds trivially across the resume.
    auditedTotals_ = totals_;
}

void
WearTracker::audit() const
{
    for (std::size_t c = 0; c < numWearCauses; ++c) {
        RRM_ASSERT(totals_[c] >= auditedTotals_[c], "wear total for ",
                   wearCauseName(static_cast<WearCause>(c)),
                   " decreased: ", totals_[c], " < ", auditedTotals_[c]);
        auditedTotals_[c] = totals_[c];
    }

    std::uint64_t region_sum = 0;
    bool saturated = false;
    for (const std::uint32_t w : regionWear_) {
        region_sum += w;
        saturated |= (w == ~std::uint32_t(0));
    }
    const std::uint64_t tracked =
        total(WearCause::DemandWrite) + total(WearCause::RrmRefresh);
    // Region counters saturate at 2^32-1, so only a lower bound holds
    // once any region has pegged.
    if (saturated) {
        RRM_ASSERT(region_sum <= tracked,
                   "region wear sum ", region_sum,
                   " exceeds tracked total ", tracked);
    } else {
        RRM_ASSERT(region_sum == tracked, "region wear sum ", region_sum,
                   " != demand+refresh total ", tracked);
    }
}

} // namespace rrm::pcm
