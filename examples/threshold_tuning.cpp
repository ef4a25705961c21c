/**
 * @file
 * Explore the performance/lifetime frontier exposed by the RRM's
 * hot_threshold knob (paper Section IV-H / Figure 11), and compare it
 * against the two static extremes.
 *
 * Usage: threshold_tuning [workload] [window_ms]
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
run(const trace::Workload &workload, const sys::Scheme &scheme,
    double window_seconds, unsigned threshold = 16)
{
    sys::SystemConfig cfg;
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.windowSeconds = window_seconds;
    cfg.rrm.hotThreshold = threshold;
    sys::System system(std::move(cfg));
    return system.run();
}

int
exampleMain(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "GemsFDTD";
    const double window =
        (argc > 2 ? std::atof(argv[2]) : 60.0) / 1e3;
    const trace::Workload workload = trace::workloadFromName(name);

    std::printf("hot_threshold frontier for %s\n\n", name.c_str());
    std::printf("%-22s %10s %12s %12s\n", "configuration", "IPC",
                "life (yr)", "fast writes");

    const auto s7 = run(workload,
                        sys::Scheme::staticScheme(pcm::WriteMode::Sets7),
                        window);
    std::printf("%-22s %10.3f %12.3f %11s\n", "Static-7-SETs",
                s7.aggregateIpc, s7.lifetimeYears, "-");

    for (unsigned threshold : {4u, 8u, 16u, 32u, 64u}) {
        const auto r = run(workload, sys::Scheme::rrmScheme(), window,
                           threshold);
        std::printf("%-22s %10.3f %12.3f %10.1f%%\n",
                    ("RRM, threshold " + std::to_string(threshold))
                        .c_str(),
                    r.aggregateIpc, r.lifetimeYears,
                    100.0 * r.fastWriteFraction());
    }

    const auto s3 = run(workload,
                        sys::Scheme::staticScheme(pcm::WriteMode::Sets3),
                        window);
    std::printf("%-22s %10.3f %12.3f %11s\n", "Static-3-SETs",
                s3.aggregateIpc, s3.lifetimeYears, "-");

    std::printf("\nLower thresholds move the RRM toward Static-3 "
                "performance; higher thresholds toward Static-7 "
                "lifetime (paper Fig. 11).\n");
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
