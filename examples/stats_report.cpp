/**
 * @file
 * Dump the full hierarchical statistics of one simulation run —
 * caches, memory channels, RRM, cores, and system counters — in the
 * gem5-style text format of the stats package. Useful for digging
 * below the SimResults summary when analyzing a configuration.
 *
 * Usage: stats_report [workload] [scheme] [window_ms]
 *   scheme: rrm (default) | adaptive-rrm | static-3 .. static-7
 */

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "system/system.hh"

using namespace rrm;

namespace
{

sys::Scheme
schemeFromName(std::string name)
{
    // Accept the short static-N form alongside the canonical
    // (case-insensitive) scheme names known to parseScheme.
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower.rfind("static-", 0) == 0 &&
        lower.find("sets") == std::string::npos) {
        name += "-SETs";
    }
    return sys::parseScheme(name);
}

int
exampleMain(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "GemsFDTD";
    const std::string scheme = argc > 2 ? argv[2] : "rrm";
    const double window =
        (argc > 3 ? std::atof(argv[3]) : 30.0) / 1e3;

    sys::SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = schemeFromName(scheme);
    cfg.windowSeconds = window;

    sys::System system(std::move(cfg));
    const sys::SimResults r = system.run();

    std::printf("---------- summary ----------\n");
    std::printf("workload %s, scheme %s, window %.1f ms "
                "(time scale %.0fx)\n",
                r.workload.c_str(), r.scheme.c_str(),
                r.windowSeconds * 1e3, r.timeScale);
    std::printf("aggregate IPC %.3f | MPKI %.2f | lifetime %.2f y | "
                "power %.3f W\n\n",
                r.aggregateIpc, r.mpki, r.lifetimeYears,
                r.totalPower());

    std::printf("---------- full statistics ----------\n");
    system.statRoot().dump(std::cout);
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
