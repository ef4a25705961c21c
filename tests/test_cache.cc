/**
 * @file
 * Tests for the set-associative LRU cache array.
 */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "ckpt/ckpt.hh"

namespace rrm::cache
{
namespace
{

CacheConfig
tinyConfig()
{
    CacheConfig cfg;
    cfg.name = "tiny";
    cfg.sizeBytes = 4096; // 64 lines
    cfg.assoc = 4;        // 16 sets
    cfg.lineBytes = 64;
    return cfg;
}

TEST(Cache, GeometryFromConfig)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numSets(), 16u);
}

TEST(Cache, MissThenHitAfterAllocate)
{
    Cache c(tinyConfig());
    EXPECT_FALSE(c.access(0x1000));
    c.allocate(0x1000);
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.contains(0x1000));
}

TEST(Cache, LineGranularity)
{
    Cache c(tinyConfig());
    c.allocate(0x1000);
    EXPECT_TRUE(c.access(0x1004));
    EXPECT_TRUE(c.access(0x103F));
    EXPECT_FALSE(c.access(0x1040));
}

TEST(Cache, AllocatePresentLinePanics)
{
    Cache c(tinyConfig());
    c.allocate(0x1000);
    EXPECT_THROW(c.allocate(0x1000), PanicError);
}

TEST(Cache, FreeWayMeansNoVictim)
{
    Cache c(tinyConfig());
    for (int i = 0; i < 4; ++i) {
        // Same set (stride = 16 sets * 64 B).
        const Victim v = c.allocate(0x1000 + i * 16 * 64);
        EXPECT_FALSE(v.valid) << i;
    }
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(tinyConfig());
    const Addr base = 0;
    const Addr stride = 16 * 64;
    for (int i = 0; i < 4; ++i)
        c.allocate(base + i * stride);
    // Touch lines 0..2, leaving line 3 as LRU.
    c.access(base + 0 * stride);
    c.access(base + 1 * stride);
    c.access(base + 2 * stride);
    const Victim v = c.allocate(base + 4 * stride);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, base + 3 * stride);
}

TEST(Cache, DirtyBitTravelsWithVictim)
{
    Cache c(tinyConfig());
    const Addr stride = 16 * 64;
    c.allocate(0);
    c.setDirty(0);
    for (int i = 1; i < 4; ++i)
        c.allocate(i * stride);
    // Line 0 is LRU and dirty.
    const Victim v = c.allocate(4 * stride);
    ASSERT_TRUE(v.valid);
    EXPECT_EQ(v.addr, 0u);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, OwnerIsRecordedAndReturned)
{
    Cache c(tinyConfig());
    c.allocate(0x2000, 3);
    EXPECT_EQ(c.owner(0x2000), 3);
    const Addr stride = 16 * 64;
    for (int i = 1; i < 5; ++i)
        c.allocate(0x2000 + i * stride, i);
    // 0x2000 became the victim of the last allocate.
    EXPECT_FALSE(c.contains(0x2000));
}

TEST(Cache, InvalidateReportsDirtiness)
{
    Cache c(tinyConfig());
    c.allocate(0x40);
    EXPECT_FALSE(c.invalidate(0x40));
    EXPECT_FALSE(c.contains(0x40));

    c.allocate(0x40);
    c.setDirty(0x40);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_FALSE(c.invalidate(0x40)); // already gone
}

TEST(Cache, DirtyOpsOnAbsentLinePanic)
{
    Cache c(tinyConfig());
    EXPECT_THROW(c.setDirty(0x40), PanicError);
    EXPECT_THROW(c.isDirty(0x40), PanicError);
    EXPECT_THROW(c.owner(0x40), PanicError);
}

TEST(Cache, AllocationResetsDirtyBit)
{
    Cache c(tinyConfig());
    const Addr stride = 16 * 64;
    c.allocate(0);
    c.setDirty(0);
    for (int i = 1; i < 5; ++i)
        c.allocate(i * stride);
    // Way reused by a new line: must start clean.
    const Addr newest = 4 * stride;
    EXPECT_TRUE(c.contains(newest));
    EXPECT_FALSE(c.isDirty(newest));
}

TEST(Cache, NumValidLinesTracksAllocations)
{
    Cache c(tinyConfig());
    EXPECT_EQ(c.numValidLines(), 0u);
    c.allocate(0);
    c.allocate(64);
    EXPECT_EQ(c.numValidLines(), 2u);
    c.invalidate(0);
    EXPECT_EQ(c.numValidLines(), 1u);
}

TEST(Cache, StatsCountHitsMissesEvictions)
{
    Cache c(tinyConfig());
    stats::StatGroup g("g");
    c.regStats(g);
    c.access(0); // miss
    c.allocate(0);
    c.access(0); // hit
    const Addr stride = 16 * 64;
    for (int i = 1; i < 5; ++i)
        c.allocate(i * stride); // last one evicts
    auto value = [&](const char *name) {
        return dynamic_cast<const stats::Scalar *>(
                   g.find(std::string("tiny.") + name))
            ->value();
    };
    EXPECT_DOUBLE_EQ(value("misses"), 1.0);
    EXPECT_DOUBLE_EQ(value("hits"), 1.0);
    EXPECT_DOUBLE_EQ(value("evictions"), 1.0);
}

TEST(Cache, BadGeometryPanics)
{
    CacheConfig cfg = tinyConfig();
    cfg.lineBytes = 48;
    EXPECT_THROW(Cache{cfg}, PanicError);

    cfg = tinyConfig();
    cfg.lineBytes = 1; // a tag could equal the empty-way sentinel
    EXPECT_THROW(Cache{cfg}, PanicError);

    cfg = tinyConfig();
    cfg.sizeBytes = 4096 + 64; // not whole sets
    EXPECT_THROW(Cache{cfg}, PanicError);
}

/**
 * An invalidated way keeps no trace of its old line across a
 * checkpoint round trip: the restored cache must not find it, and
 * re-saving the restored cache reproduces the same bytes.
 */
TEST(Cache, CheckpointRoundTripDropsInvalidatedLines)
{
    Cache c(tinyConfig());
    const Addr stride = 16 * 64;
    for (int i = 0; i < 3; ++i)
        c.allocate(0x40 + i * stride, i);
    c.setDirty(0x40 + stride);
    const Addr stale = 0x40 + 2 * stride;
    c.invalidate(stale);
    ASSERT_FALSE(c.contains(stale));

    ckpt::ChunkWriter first;
    c.saveCkpt(first);
    Cache restored(tinyConfig());
    ckpt::ChunkReader r(first.data().data(), first.size(), "CACH");
    restored.restoreCkpt(r);
    r.expectDone();

    EXPECT_FALSE(restored.contains(stale));
    EXPECT_TRUE(restored.contains(0x40));
    EXPECT_TRUE(restored.isDirty(0x40 + stride));
    EXPECT_EQ(restored.owner(0x40 + stride), 1);
    EXPECT_EQ(restored.numValidLines(), c.numValidLines());
    ckpt::ChunkWriter second;
    restored.saveCkpt(second);
    EXPECT_EQ(second.data(), first.data());
}

class CacheGeometry
    : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>>
{};

TEST_P(CacheGeometry, FillsToCapacityWithoutEviction)
{
    const auto [size, assoc] = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = size;
    cfg.assoc = assoc;
    Cache c(cfg);
    const std::uint64_t lines = size / 64;
    for (std::uint64_t i = 0; i < lines; ++i) {
        const Victim v = c.allocate(i * 64);
        ASSERT_FALSE(v.valid) << "line " << i;
    }
    EXPECT_EQ(c.numValidLines(), lines);
    // One more in any set must evict.
    const Victim v = c.allocate(lines * 64);
    EXPECT_TRUE(v.valid);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(std::pair{4096ULL, 1u}, std::pair{4096ULL, 4u},
                      std::pair{32768ULL, 8u},
                      std::pair{65536ULL, 16u}));

} // namespace
} // namespace rrm::cache
