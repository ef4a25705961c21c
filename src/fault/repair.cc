/**
 * @file
 * EcpRepair / LineRetirement implementation.
 */

#include "repair.hh"

#include "ckpt/ckpt.hh"
#include "common/logging.hh"

namespace rrm::fault
{

void
EcpRepair::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(used_.size());
    for (const auto &[line, used] : used_) {
        w.u64(line);
        w.u32(used);
    }
}

void
EcpRepair::restoreCkpt(ckpt::ChunkReader &r)
{
    used_.clear();
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const unsigned used = r.u32();
        if (used == 0 || used > budget_)
            throw ckpt::CkptError(
                "ECP checkpoint carries an out-of-budget count " +
                std::to_string(used) + " for line " +
                std::to_string(line));
        used_[line] = used;
    }
}

void
EcpRepair::audit() const
{
    for (const auto &[line, used] : used_) {
        RRM_ASSERT(used > 0 && used <= budget_, "line ", line,
                   " carries an out-of-budget ECP count ", used);
    }
}

LineRetirement::LineRetirement(std::uint64_t memory_bytes,
                               std::uint64_t block_bytes,
                               std::uint64_t spare_blocks)
    : blockBytes_(block_bytes), spareBlocks_(spare_blocks),
      spareBase_(memory_bytes - spare_blocks * block_bytes)
{
    RRM_ASSERT(block_bytes > 0, "retirement block size must be > 0");
    RRM_ASSERT(spare_blocks * block_bytes <= memory_bytes,
               "spare pool larger than memory");
}

bool
LineRetirement::retire(Addr line)
{
    RRM_ASSERT(!isRetired(line), "line ", line, " retired twice");
    if (nextSpare_ >= spareBlocks_)
        return false;
    map_[line] = spareBase_ + nextSpare_ * blockBytes_;
    ++nextSpare_;
    return true;
}

void
LineRetirement::saveCkpt(ckpt::ChunkWriter &w) const
{
    w.u64(nextSpare_);
    w.u64(map_.size());
    for (const auto &[line, spare] : map_) {
        w.u64(line);
        w.u64(spare);
    }
}

void
LineRetirement::restoreCkpt(ckpt::ChunkReader &r)
{
    nextSpare_ = r.u64();
    map_.clear();
    const std::uint64_t n = r.u64();
    if (n != nextSpare_ || n > spareBlocks_)
        throw ckpt::CkptError(
            "retirement checkpoint holds " + std::to_string(n) +
            " entries against " + std::to_string(nextSpare_) +
            " spares handed out (pool of " +
            std::to_string(spareBlocks_) + ")");
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr line = r.u64();
        const Addr spare = r.u64();
        map_[line] = spare;
    }
}

void
LineRetirement::audit() const
{
    RRM_ASSERT(map_.size() == nextSpare_,
               "retirement map size ", map_.size(),
               " disagrees with spares handed out ", nextSpare_);
    for (const auto &[line, spare] : map_) {
        RRM_ASSERT(spare >= spareBase_ &&
                       spare < spareBase_ + spareBlocks_ * blockBytes_,
                   "retired line ", line, " mapped outside the spare "
                   "pool");
        RRM_ASSERT(line != spare, "line retired onto itself");
    }
}

} // namespace rrm::fault
