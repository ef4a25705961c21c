/**
 * @file
 * Randomized stress/property tests across modules: structural
 * invariants that must hold under arbitrary traffic and determinism
 * under replay.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.hh"
#include "memctrl/controller.hh"
#include "rrm/region_monitor.hh"

namespace rrm
{
namespace
{

/**
 * RRM structural invariants under a random registration / decision /
 * interrupt storm:
 *  - a set short_retention bit implies its region is tracked;
 *  - fast write decisions occur only for set bits;
 *  - hot entries are always valid;
 *  - every emitted fast refresh targets a currently-set bit's block.
 */
TEST(RrmProperty, InvariantsHoldUnderRandomStorm)
{
    monitor::RrmConfig cfg;
    cfg.numSets = 16;
    cfg.assoc = 4;
    cfg.hotThreshold = 6;
    cfg.timeScale = 1.0;
    cfg.decayStretch = 1.0;
    EventQueue queue;
    monitor::RegionMonitor rrm(cfg, queue);

    std::vector<monitor::RefreshRequest> refreshes;
    rrm.setRefreshCallback([&](const monitor::RefreshRequest &r) {
        refreshes.push_back(r);
    });

    Random rng(2024);
    const std::uint64_t regions = 256;
    for (int step = 0; step < 50000; ++step) {
        const Addr addr = rng.uniform(regions) * cfg.regionBytes +
                          rng.uniform(cfg.blocksPerRegion()) * 64;
        const int action = static_cast<int>(rng.uniform(100));
        if (action < 60) {
            rrm.registerLlcWrite(addr, rng.chance(0.6));
        } else if (action < 90) {
            const pcm::WriteMode mode = rrm.writeModeFor(addr);
            if (mode == cfg.fastMode) {
                EXPECT_TRUE(rrm.shortRetentionBit(addr));
                EXPECT_TRUE(rrm.isTracked(addr));
            }
        } else if (action < 97) {
            rrm.runDecayTick();
        } else {
            refreshes.clear();
            rrm.runSelectiveRefresh();
            for (const auto &r : refreshes) {
                EXPECT_EQ(r.mode, cfg.fastMode);
                EXPECT_TRUE(rrm.shortRetentionBit(r.blockAddr));
                EXPECT_TRUE(rrm.isHot(r.blockAddr));
            }
        }
        if (step % 5000 == 0) {
            // Hot entries must be a subset of valid entries, and
            // all live bits belong to hot-or-tracked regions.
            EXPECT_LE(rrm.hotEntryCount(), rrm.validEntryCount());
        }
    }
}

/** Identical seeds must replay identical RRM evolution. */
TEST(RrmProperty, DeterministicReplay)
{
    auto run = [](std::uint64_t seed) {
        monitor::RrmConfig cfg;
        cfg.numSets = 8;
        cfg.assoc = 4;
        cfg.hotThreshold = 4;
        cfg.timeScale = 1.0;
        cfg.decayStretch = 1.0;
        EventQueue queue;
        monitor::RegionMonitor rrm(cfg, queue);
        Random rng(seed);
        for (int i = 0; i < 20000; ++i) {
            rrm.registerLlcWrite(rng.uniform(128) * 4096 +
                                     rng.uniform(64) * 64,
                                 rng.chance(0.7));
            if (i % 500 == 0)
                rrm.runDecayTick();
        }
        return std::tuple(rrm.hotEntryCount(), rrm.validEntryCount(),
                          rrm.shortRetentionBlockCount());
    };
    EXPECT_EQ(run(7), run(7));
    EXPECT_NE(run(7), run(8));
}

/**
 * Controller liveness: any random request mix eventually drains, and
 * every accepted read's completion callback fires exactly once.
 */
TEST(ControllerProperty, RandomMixAlwaysDrains)
{
    for (std::uint64_t seed : {1ULL, 42ULL, 12345ULL}) {
        EventQueue queue;
        memctrl::MemoryParams params;
        params.readQueueCap = 8;
        params.writeQueueCap = 8;
        params.refreshQueueCap = 4;
        params.writeHighWatermark = 6;
        params.writeLowWatermark = 2;
        memctrl::Controller ctrl(params, queue);
        Random rng(seed);

        std::map<int, int> completions;
        int accepted_reads = 0;
        for (int i = 0; i < 3000; ++i) {
            const Addr addr = rng.uniform(64_MiB / 64) * 64;
            const int kind = static_cast<int>(rng.uniform(10));
            if (kind < 5) {
                const int id = accepted_reads;
                if (ctrl.enqueueRead(addr, [&completions, id](Tick) {
                        ++completions[id];
                    })) {
                    ++accepted_reads;
                }
            } else if (kind < 9) {
                ctrl.enqueueWrite(
                    addr, pcm::allWriteModes[rng.uniform(5)]);
            } else {
                ctrl.enqueueRefresh(addr, pcm::WriteMode::Sets3);
            }
            if (i % 100 == 0)
                queue.run(queue.now() + 5_us);
        }
        queue.run();
        EXPECT_TRUE(ctrl.idle()) << "seed " << seed;
        EXPECT_EQ(completions.size(),
                  static_cast<std::size_t>(accepted_reads));
        for (const auto &[id, count] : completions)
            ASSERT_EQ(count, 1) << "read " << id << " seed " << seed;
    }
}

} // namespace
} // namespace rrm
