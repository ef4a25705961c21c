/**
 * @file
 * Tests for the three-level inclusive cache hierarchy, including the
 * LLC-write-registration and memory-write event semantics the RRM
 * depends on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "cache/hierarchy.hh"
#include "ckpt/ckpt.hh"
#include "common/auditable.hh"
#include "common/check.hh"
#include "common/random.hh"

namespace rrm::cache
{
namespace
{

/** A small hierarchy so evictions are easy to provoke. */
HierarchyConfig
tinyHierarchy()
{
    HierarchyConfig cfg;
    cfg.numCores = 2;
    cfg.l1.name = "l1";
    cfg.l1.sizeBytes = 512; // 8 lines, 2 sets
    cfg.l1.assoc = 4;
    cfg.l1.hitLatency = 1_ns;
    cfg.l2.name = "l2";
    cfg.l2.sizeBytes = 1024; // 16 lines
    cfg.l2.assoc = 4;
    cfg.l2.hitLatency = 6_ns;
    cfg.llc.name = "llc";
    cfg.llc.sizeBytes = 4096; // 64 lines
    cfg.llc.assoc = 4;
    cfg.llc.hitLatency = 17_ns;
    return cfg;
}

TEST(Hierarchy, ColdAccessMissesEverywhere)
{
    CacheHierarchy h(tinyHierarchy());
    const HierarchyEvents ev = h.access(0, 0x1000, false);
    EXPECT_TRUE(ev.llcMiss);
    EXPECT_EQ(ev.hitLevel, 0u);
    EXPECT_EQ(ev.latency, 24_ns); // all three lookup latencies
    EXPECT_FALSE(ev.memWrite);
    EXPECT_FALSE(ev.registration);
}

TEST(Hierarchy, FillMakesLinePresentAtAllLevels)
{
    CacheHierarchy h(tinyHierarchy());
    ASSERT_TRUE(h.access(0, 0x1000, false).llcMiss);
    h.fill(0, 0x1000, false);
    EXPECT_TRUE(h.l1(0).contains(0x1000));
    EXPECT_TRUE(h.l2(0).contains(0x1000));
    EXPECT_TRUE(h.llc().contains(0x1000));
    const HierarchyEvents ev = h.access(0, 0x1000, false);
    EXPECT_EQ(ev.hitLevel, 1u);
    EXPECT_EQ(ev.latency, 1_ns);
}

TEST(Hierarchy, StoreDirtiesL1OnFill)
{
    CacheHierarchy h(tinyHierarchy());
    h.access(0, 0x40, true);
    h.fill(0, 0x40, true);
    EXPECT_TRUE(h.l1(0).isDirty(0x40));
    EXPECT_FALSE(h.llc().isDirty(0x40));
}

TEST(Hierarchy, DoubleFillPanics)
{
    CacheHierarchy h(tinyHierarchy());
    h.fill(0, 0x40, false);
    EXPECT_THROW(h.fill(0, 0x40, false), PanicError);
}

/**
 * Filling distinct lines mapping to one L1 set pushes dirty victims
 * down to L2 (no registration: lines are still inside the core's
 * private caches).
 */
TEST(Hierarchy, DirtyL1VictimMergesIntoL2)
{
    CacheHierarchy h(tinyHierarchy());
    // L1: 2 sets -> stride 128 B stays in one set.
    const Addr stride = 128;
    h.fill(0, 0, true); // dirty in L1
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        EXPECT_FALSE(ev.registration);
    }
    // Line 0 left L1 but must be dirty in L2 now.
    EXPECT_FALSE(h.l1(0).contains(0));
    ASSERT_TRUE(h.l2(0).contains(0));
    EXPECT_TRUE(h.l2(0).isDirty(0));
}

/**
 * When a dirty line is evicted from L2 it is written into its LLC
 * line: the hierarchy must emit an LLC Write Registration whose
 * was_dirty flag reflects the LLC line's previous state.
 */
TEST(Hierarchy, L2DirtyEvictionRegistersLlcWrite)
{
    CacheHierarchy h(tinyHierarchy());
    // L2: 4 sets -> stride 256 B maps to one L2 set.
    const Addr stride = 256;
    h.fill(0, 0, true);
    bool registered = false;
    Addr reg_addr = 0;
    bool was_dirty = true;
    for (int i = 1; i <= 8 && !registered; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        if (ev.registration) {
            registered = true;
            reg_addr = ev.registrationAddr;
            was_dirty = ev.registrationWasDirty;
        }
    }
    ASSERT_TRUE(registered);
    EXPECT_EQ(reg_addr, 0u);
    EXPECT_FALSE(was_dirty); // first writeback: LLC line was clean
    EXPECT_TRUE(h.llc().isDirty(0));
}

/**
 * A second dirty writeback of the same line while its LLC copy is
 * still present must carry was_dirty == true — the signal the RRM's
 * streaming filter keys on.
 */
TEST(Hierarchy, SecondWritebackSeesDirtyLlcLine)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 256;

    auto push_through_l2 = [&](Addr target) -> HierarchyEvents {
        // Re-dirty the target, then evict it from L2 by filling the
        // set with other lines. The registration can surface either
        // from the access (LLC-hit refill) or from the miss fill.
        h.access(0, target, true);
        for (int i = 1; i <= 8; ++i) {
            const Addr filler = static_cast<Addr>(i) * stride + 0x10000;
            HierarchyEvents ev = h.access(0, filler, false);
            if (ev.registration && ev.registrationAddr == target)
                return ev;
            if (ev.llcMiss) {
                ev = h.fill(0, filler, false);
                if (ev.registration && ev.registrationAddr == target)
                    return ev;
            }
        }
        return HierarchyEvents{};
    };

    h.access(0, 0, true);
    h.fill(0, 0, true);
    const HierarchyEvents first = push_through_l2(0);
    ASSERT_TRUE(first.registration);
    EXPECT_FALSE(first.registrationWasDirty);

    // The line is now only in the LLC (dirty). Touch it again with a
    // store (refills L1/L2 from LLC) and push it through once more.
    ASSERT_FALSE(h.access(0, 0, true).llcMiss);
    const HierarchyEvents second = push_through_l2(0);
    ASSERT_TRUE(second.registration);
    EXPECT_TRUE(second.registrationWasDirty);
}

TEST(Hierarchy, DirtyLlcVictimBecomesMemoryWrite)
{
    CacheHierarchy h(tinyHierarchy());
    // LLC: 16 sets -> stride 1024 B in one LLC set (assoc 4).
    const Addr stride = 1024;
    h.fill(0, 0, true);
    // Evict line 0 from L1/L2 with fillers that share its L1/L2 sets
    // (block multiples of 4) but land in other LLC sets (block not a
    // multiple of 16), pushing the dirty data into the LLC line.
    for (int i : {1, 2, 3, 5, 6, 7, 9, 10})
        h.fill(0, static_cast<Addr>(4 * i) * 64, false);
    ASSERT_TRUE(h.llc().contains(0));
    ASSERT_TRUE(h.llc().isDirty(0));

    bool wrote = false;
    Addr write_addr = 1;
    for (int i = 1; i <= 8 && !wrote; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        if (ev.memWrite) {
            wrote = true;
            write_addr = ev.memWriteAddr;
        }
    }
    ASSERT_TRUE(wrote);
    EXPECT_EQ(write_addr, 0u);
    EXPECT_FALSE(h.llc().contains(0));
}

TEST(Hierarchy, CleanLlcVictimVanishesSilently)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 1024;
    h.fill(0, 0, false); // never dirtied
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        EXPECT_FALSE(ev.memWrite);
    }
}

/**
 * Back-invalidation: an LLC victim whose L1 copy is dirtier than the
 * LLC line must still reach memory with the dirty data accounted.
 */
TEST(Hierarchy, BackInvalidationMergesUpperDirtyCopy)
{
    CacheHierarchy h(tinyHierarchy());
    const Addr stride = 1024;
    h.fill(0, 0, true); // dirty only in L1
    bool wrote = false;
    for (int i = 1; i <= 4; ++i) {
        const HierarchyEvents ev =
            h.fill(0, static_cast<Addr>(i) * stride, false);
        wrote |= ev.memWrite && ev.memWriteAddr == 0;
    }
    EXPECT_TRUE(wrote);
    EXPECT_FALSE(h.l1(0).contains(0));
    EXPECT_FALSE(h.l2(0).contains(0));
}

TEST(Hierarchy, CoresHavePrivateUpperLevels)
{
    CacheHierarchy h(tinyHierarchy());
    h.fill(0, 0x40, false);
    EXPECT_TRUE(h.l1(0).contains(0x40));
    EXPECT_FALSE(h.l1(1).contains(0x40));
    // Core 1 hits the shared LLC, not its own upper levels.
    const HierarchyEvents ev = h.access(1, 0x40, false);
    EXPECT_FALSE(ev.llcMiss);
    EXPECT_EQ(ev.hitLevel, 3u);
}

TEST(Hierarchy, InclusionHoldsUnderRandomTraffic)
{
    check::resetViolations();
    check::ScopedFailurePolicy policy(check::FailurePolicy::LogAndCount);
    CacheHierarchy h(tinyHierarchy());
    Random rng(1234);
    for (int i = 0; i < 20000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.uniform(2));
        const Addr addr = rng.uniform(512) * 64;
        const bool is_write = rng.chance(0.4);
        if (h.access(core, addr, is_write).llcMiss)
            h.fill(core, addr, is_write);
        if (i % 1000 == 0) {
            ASSERT_EQ(runAudit(h), 0u) << "iteration " << i;
        }
    }
    EXPECT_EQ(runAudit(h), 0u);
}

/**
 * Copy of `h` with the line holding `addr` removed from one cache,
 * made through a CACH save -> edit -> restore round trip. `which`
 * indexes the caches in checkpoint order: L1 and L2 of each core,
 * core-major, then the LLC.
 */
std::unique_ptr<CacheHierarchy>
copyWithoutLine(const CacheHierarchy &h, unsigned which, Addr addr)
{
    ckpt::ChunkWriter saved;
    h.saveCkpt(saved);
    ckpt::ChunkReader r(saved.data().data(), saved.size(), "CACH");
    ckpt::ChunkWriter edited;
    const unsigned caches = 2 * h.config().numCores + 1;
    bool dropped = false;
    for (unsigned c = 0; c < caches; ++c) {
        edited.u64(r.u64()); // LRU clock
        const std::uint32_t lines = r.u32();
        edited.u32(lines);
        for (std::uint32_t i = 0; i < lines; ++i) {
            Addr tag = r.u64();
            const std::uint64_t stamp = r.u64();
            const std::uint32_t owner = r.u32();
            bool valid = r.b();
            bool dirty = r.b();
            if (c == which && valid && tag == addr / 64) {
                tag = 0;
                valid = dirty = false;
                dropped = true;
            }
            edited.u64(tag);
            edited.u64(stamp);
            edited.u32(owner);
            edited.b(valid);
            edited.b(dirty);
        }
    }
    r.expectDone();
    EXPECT_TRUE(dropped) << "line 0x" << std::hex << addr
                         << " not found in cache " << which;

    auto copy = std::make_unique<CacheHierarchy>(h.config());
    ckpt::ChunkReader in(edited.data().data(), edited.size(), "CACH");
    copy->restoreCkpt(in);
    return copy;
}

/** Run `op`; expect a PanicError whose message contains `what`. */
template <typename Op>
void
expectPanicMentioning(Op &&op, const std::string &what)
{
    try {
        op();
        ADD_FAILURE() << "no panic; expected '" << what << "'";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

/**
 * Seeded inclusion break, L2 over LLC: a dirty L2 line whose LLC copy
 * has vanished. The deep audit must report it, and the L2 eviction
 * that tries to write it back must panic instead of writing nowhere.
 */
TEST(Hierarchy, SeededL2OverLlcInclusionBreakIsCaught)
{
    CacheHierarchy h(tinyHierarchy());
    // L1 has 2 sets, L2 4, the LLC 16 (64 B lines). Blocks 2, 6, 10
    // and 14 share line 0's L1 set but not its L2 or LLC set, so
    // they push the dirty line 0 from L1 into L2 and no further.
    h.fill(0, 0, true);
    for (Addr block : {2, 6, 10, 14})
        h.fill(0, block * 64, false);
    ASSERT_FALSE(h.l1(0).contains(0));
    ASSERT_TRUE(h.l2(0).isDirty(0));

    const auto broken = copyWithoutLine(h, 4, 0); // 4 = the LLC
    ASSERT_FALSE(broken->llc().contains(0));
    {
        check::resetViolations();
        check::ScopedFailurePolicy policy(
            check::FailurePolicy::LogAndCount);
        EXPECT_GE(runAudit(*broken), 1u);
        check::resetViolations();
    }

    // Blocks 4, 8 and 12 fill the rest of line 0's L2 set; block 16
    // then evicts line 0 (the LRU way) from L2.
    for (Addr block : {4, 8, 12})
        broken->fill(0, block * 64, false);
    expectPanicMentioning([&] { broken->fill(0, 16 * 64, false); },
                          "inclusion broken: L2 victim absent from LLC");
}

/**
 * Seeded inclusion break, L1 over L2: a dirty L1 line whose L2 copy
 * has vanished must be reported by the audit and make the L1
 * eviction panic.
 */
TEST(Hierarchy, SeededL1OverL2InclusionBreakIsCaught)
{
    CacheHierarchy h(tinyHierarchy());
    h.fill(0, 0, true);
    ASSERT_TRUE(h.l1(0).isDirty(0));

    const auto broken = copyWithoutLine(h, 1, 0); // 1 = core 0's L2
    ASSERT_FALSE(broken->l2(0).contains(0));
    {
        check::resetViolations();
        check::ScopedFailurePolicy policy(
            check::FailurePolicy::LogAndCount);
        EXPECT_GE(runAudit(*broken), 1u);
        check::resetViolations();
    }

    // Blocks 2, 6 and 10 fill the rest of line 0's L1 set (outside
    // its L2 set); block 14 evicts line 0 from L1.
    for (Addr block : {2, 6, 10})
        broken->fill(0, block * 64, false);
    expectPanicMentioning([&] { broken->fill(0, 14 * 64, false); },
                          "inclusion broken: L1 victim absent from L2");
}

TEST(Hierarchy, AtMostOneRegistrationAndWritePerFill)
{
    CacheHierarchy h(tinyHierarchy());
    Random rng(99);
    for (int i = 0; i < 20000; ++i) {
        const unsigned core = static_cast<unsigned>(rng.uniform(2));
        const Addr addr = rng.uniform(256) * 64;
        const bool is_write = rng.chance(0.5);
        const HierarchyEvents ev = h.access(core, addr, is_write);
        if (ev.llcMiss) {
            const HierarchyEvents fe = h.fill(core, addr, is_write);
            if (fe.memWrite) {
                ASSERT_NE(fe.memWriteAddr, addr);
            }
        }
    }
}

TEST(Hierarchy, DefaultConfigMatchesTable4)
{
    const HierarchyConfig cfg = defaultHierarchyConfig();
    EXPECT_EQ(cfg.numCores, 4u);
    EXPECT_EQ(cfg.l1.sizeBytes, 32_KiB);
    EXPECT_EQ(cfg.l1.assoc, 4u);
    EXPECT_EQ(cfg.l2.sizeBytes, 256_KiB);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_EQ(cfg.llc.sizeBytes, 6_MiB);
    EXPECT_EQ(cfg.llc.assoc, 24u);
    EXPECT_EQ(cfg.llc.mshrs, 32u);
}

} // namespace
} // namespace rrm::cache
