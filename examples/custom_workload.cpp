/**
 * @file
 * Build a custom workload from scratch — a key-value-store-like
 * mixture that is not part of the paper's SPEC set — and evaluate how
 * the RRM balances it against the static schemes, with full timing.
 * Demonstrates the custom-profile seam of the public API.
 *
 * Usage: custom_workload [window_ms]
 */

#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "system/system.hh"

using namespace rrm;

namespace
{

/** A synthetic "key-value store": hot log + index + big cold heap. */
trace::BenchmarkProfile
kvStoreProfile()
{
    using Kind = trace::PatternSpec::Kind;

    // Append log: streaming writes. The RRM's dirty-write filter
    // should keep these in slow/long-retention mode.
    trace::PatternSpec log{};
    log.kind = Kind::Stride;
    log.weight = 0.20;
    log.footprintBytes = 256_MiB;
    log.writeFraction = 0.9;
    log.strideBytes = 64;

    // Index pages: heavily rewritten working set (the RRM's target).
    trace::PatternSpec index{};
    index.kind = Kind::ZipfRegion;
    index.weight = 0.50;
    index.footprintBytes = 2_MiB;
    index.writeFraction = 0.6;
    index.zipfSkew = 0.4;
    index.maxBurstBlocks = 32;

    // Value heap: large, read-mostly, random.
    trace::PatternSpec heap{};
    heap.kind = Kind::Chase;
    heap.weight = 0.30;
    heap.footprintBytes = 1_GiB;
    heap.writeFraction = 0.08;

    return trace::BenchmarkProfile{
        "kvstore", 60.0, 0.0, {log, index, heap}};
}

int
exampleMain(int argc, char **argv)
{
    const double window =
        (argc > 1 ? std::atof(argv[1]) : 60.0) / 1e3;

    // The profile must outlive every System built from it.
    static const trace::BenchmarkProfile profile = kvStoreProfile();

    std::printf("custom 'kvstore' workload: %llu MB footprint, "
                "%.0f line-touches/kinstr, %.0f ms window\n\n",
                static_cast<unsigned long long>(
                    profile.footprintBytes() / 1_MiB),
                profile.memOpsPerKiloInstr, window * 1e3);

    std::printf("%-15s %10s %8s %12s %12s %12s\n", "scheme", "IPC",
                "MPKI", "life (yr)", "fast frac", "power (W)");

    for (const auto &scheme :
         {sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
          sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
          sys::Scheme::rrmScheme()}) {
        sys::SystemConfig cfg;
        // The workload's name labels the run; its per-core benchmark
        // assignments are overridden by customProfiles below.
        cfg.workload =
            trace::singleWorkload(trace::Benchmark::GemsFDTD);
        cfg.workload.name = "kvstore";
        cfg.customProfiles = {&profile, &profile, &profile, &profile};
        cfg.scheme = scheme;
        cfg.windowSeconds = window;

        sys::System system(std::move(cfg));
        const sys::SimResults r = system.run();
        std::printf("%-15s %10.3f %8.2f %12.3f %11.1f%% %12.3f\n",
                    r.scheme.c_str(), r.aggregateIpc, r.mpki,
                    r.lifetimeYears,
                    100.0 * r.fastWriteFraction(), r.totalPower());
    }

    std::printf(
        "\nThe RRM should speed up the index-page writes (high "
        "temporal write locality) while the append log stays in "
        "slow/long-retention mode and the array keeps most of the "
        "Static-7 lifetime.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return exampleMain(argc, argv);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
