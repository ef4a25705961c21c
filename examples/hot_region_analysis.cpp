/**
 * @file
 * Region write-behaviour analysis (paper Section III-C / Table III).
 *
 * Runs a workload under the Static-7-SETs baseline with the region
 * write profiler enabled and reports:
 *  - realized LLC MPKI against the paper's Table VII target,
 *  - the write-interval histogram over 4 KB regions (Table III),
 *  - the hot-region concentration ("~2% of regions get ~97% of
 *    writes") that motivates the RRM.
 *
 * Usage: hot_region_analysis [workload|all] [window_ms]
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "system/system.hh"

using namespace rrm;

namespace
{

void
analyze(const trace::Workload &workload, double window_seconds)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    cfg.scheme = sys::Scheme::staticScheme(pcm::WriteMode::Sets7);
    cfg.windowSeconds = window_seconds;
    cfg.profileRegionWrites = true;

    sys::System system(std::move(cfg));
    const auto r = system.run();
    const auto *prof = system.regionProfiler();

    double target_mpki = 0.0;
    for (unsigned c = 0; c < trace::workloadCores; ++c)
        target_mpki += trace::benchmarkProfile(workload.perCore[c])
                           .tableMpki;
    target_mpki /= trace::workloadCores;

    std::printf("== %s ==\n", workload.name.c_str());
    std::printf("  IPC (aggregate)      : %8.3f\n", r.aggregateIpc);
    std::printf("  LLC MPKI             : %8.2f  (Table VII: %.2f)\n",
                r.mpki, target_mpki);
    std::printf("  mem reads / writes   : %8llu / %llu\n",
                static_cast<unsigned long long>(r.memReads),
                static_cast<unsigned long long>(r.demandWrites));
    std::printf("  demand write rate    : %8.3g writes/s\n",
                r.demandWriteRate);

    // Table III analogue: regions classified by mean write interval.
    // Bucket boundaries are the paper's (1e6..1e9 ns, 1 s, 2 s rows)
    // divided by the time scale.
    const auto buckets = prof->regionsByMeanInterval();
    static const char *labels[] = {
        "< 1e6/S ns", "1e6-1e7 /S", "1e7-1e8 /S",
        "1e8-1e9 /S", "1e9-2e9 /S", ">= 2e9/S",
    };
    std::printf("  -- region write-interval distribution "
                "(S = time scale) --\n");
    std::printf("  %-12s %10s %8s %12s %8s\n", "interval", "#regions",
                "%regions", "#writes", "%writes");
    const double total_regions =
        static_cast<double>(prof->totalRegions());
    const double total_writes =
        static_cast<double>(prof->totalWrites());
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        std::printf("  %-12s %10llu %7.2f%% %12llu %7.2f%%\n",
                    labels[i],
                    static_cast<unsigned long long>(buckets[i].regions),
                    100.0 * buckets[i].regions / total_regions,
                    static_cast<unsigned long long>(buckets[i].writes),
                    total_writes > 0
                        ? 100.0 * buckets[i].writes / total_writes
                        : 0.0);
    }
    std::printf("  %-12s %10llu %7.2f%%\n", "written once",
                static_cast<unsigned long long>(
                    prof->writtenOnceRegions()),
                100.0 * prof->writtenOnceRegions() / total_regions);
    std::printf("  %-12s %10llu %7.2f%%\n", "never",
                static_cast<unsigned long long>(
                    prof->neverWrittenRegions()),
                100.0 * prof->neverWrittenRegions() / total_regions);
    std::printf("  hot concentration    : %.2f%% of all regions absorb "
                "90%% of writes\n\n",
                100.0 * prof->hotRegionFraction(0.90));
}

int
exampleMain(int argc, char **argv)
{
    const std::string which = argc > 1 ? argv[1] : "GemsFDTD";
    const double window_ms = argc > 2 ? std::atof(argv[2]) : 10.0;

    std::vector<trace::Workload> workloads;
    if (which == "all") {
        workloads = trace::standardWorkloads();
    } else {
        workloads.push_back(trace::workloadFromName(which));
    }
    for (const auto &w : workloads)
        analyze(w, window_ms / 1000.0);
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
