/**
 * @file
 * Quickstart: build a 4-core MLC PCM system, run one workload under
 * Static-7-SETs, Static-3-SETs, and RRM, and print the
 * performance/lifetime balance the paper is about.
 *
 * Usage: quickstart [workload] [window_ms]
 *   workload   one of the Table VII names (default GemsFDTD)
 *   window_ms  simulated window in milliseconds (default 10)
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "system/system.hh"

using namespace rrm;

namespace
{

sys::SimResults
runScheme(const trace::Workload &workload, const sys::Scheme &scheme,
          double window_seconds)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.windowSeconds = window_seconds;
    if (const char *ts = std::getenv("RRM_TIME_SCALE"))
        cfg.timeScale = std::atof(ts);
    sys::System system(std::move(cfg));
    return system.run();
}

int
exampleMain(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const double window_ms = argc > 2 ? std::atof(argv[2]) : 10.0;

    const trace::Workload workload = trace::workloadFromName(name);

    const char *ts_env = std::getenv("RRM_TIME_SCALE");
    std::printf("workload: %s, window: %.1f ms (time scale %sx)\n\n",
                workload.name.c_str(), window_ms,
                ts_env ? ts_env : "50");
    std::printf("%-15s %10s %8s %12s %14s %10s\n", "scheme", "IPC",
                "MPKI", "mem writes", "wear (wr/s)", "life (yr)");

    for (const auto &scheme :
         {sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
          sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
          sys::Scheme::rrmScheme()}) {
        const auto r =
            runScheme(workload, scheme, window_ms / 1000.0);
        std::printf("%-15s %10.3f %8.2f %12llu %14.3g %10.2f\n",
                    r.scheme.c_str(), r.aggregateIpc, r.mpki,
                    static_cast<unsigned long long>(r.demandWrites),
                    r.totalWearRate(), r.lifetimeYears);
        if (r.scheme == "RRM") {
            std::printf("  [rrm] fast-write fraction %.1f%%, "
                        "promotions %llu, demotions %llu, hot@end %llu, "
                        "fast refreshes %llu\n",
                        100.0 * r.fastWriteFraction(),
                        (unsigned long long)r.rrmPromotions,
                        (unsigned long long)r.rrmDemotions,
                        (unsigned long long)r.rrmHotEntriesAtEnd,
                        (unsigned long long)r.rrmFastRefreshes);
            std::printf("  [rrm] registrations %llu (clean-filtered "
                        "%llu, hits %llu), allocs %llu, evictions %llu\n",
                        (unsigned long long)r.rrmRegistrations,
                        (unsigned long long)r.rrmCleanFiltered,
                        (unsigned long long)r.rrmRegistrationHits,
                        (unsigned long long)r.rrmAllocations,
                        (unsigned long long)r.rrmEvictions);
        }
    }
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
