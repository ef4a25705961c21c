/**
 * @file
 * Per-layer accounting of the repository benchmark.
 *
 * Counts come from a finished, untraced System (its SimResults and
 * stats tree) and repeat exactly for a given seed. Host times come
 * from a replay that drives each run's own instruction streams
 * through each layer's public API in batches, recording one span per
 * layer per batch from this file — nothing inside the simulator is
 * instrumented. The replay has no core timing model, so its counts
 * approximate the untraced run's; replay() reports them beside it.
 */

#ifndef PERFBENCH_REPLAY_HH
#define PERFBENCH_REPLAY_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "system/system.hh"

namespace perfbench
{

/** Deterministic per-layer counts of one run (or a sum over runs). */
struct LayerCounts
{
    /** Trace records consumed in the window, per core (Σ = records). */
    std::vector<std::uint64_t> windowRecordsPerCore;
    std::uint64_t records = 0;

    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcDirtyEvictions = 0;

    std::uint64_t instructions = 0;
    std::uint64_t robStalls = 0;
    std::uint64_t mshrStalls = 0;

    std::uint64_t registrations = 0;
    std::uint64_t cleanFiltered = 0;
    std::uint64_t registrationHits = 0;
    std::uint64_t promotions = 0;
    std::uint64_t fastWrites = 0;
    std::uint64_t slowWrites = 0;
    std::uint64_t fastRefreshes = 0;

    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t memRefreshes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t writePauses = 0;
    std::uint64_t drainEntries = 0;
    std::uint64_t readLatencySamples = 0;
    double readLatencySumTicks = 0.0;
    std::uint64_t events = 0;

    std::uint64_t fillRefusals = 0;
    std::uint64_t writebackBlocked = 0;
    std::uint64_t refreshOverflows = 0;

    /** Add another run's counts (per-core records are not summed). */
    LayerCounts &operator+=(const LayerCounts &other);
};

/**
 * Read the counts of a finished run. Throws std::runtime_error when
 * a stat the benchmark relies on is missing from the stats tree.
 */
LayerCounts layerCountsOf(const rrm::sys::System &system,
                          const rrm::sys::SimResults &results);

/** The layers the replay times, in pipeline order. */
enum class Layer : std::uint8_t
{
    Trace = 0, ///< TraceGenerator::next
    Cache,     ///< CacheHierarchy::access / fill
    Policy,    ///< RegionMonitor registration, mode, decay, refresh
    Memctrl,   ///< Controller enqueues + the EventQueue serving them
};
constexpr std::size_t numLayers = 4;

/** Host times and counts of one replay. */
struct ReplayResult
{
    /** Wall time of the replay loop (warmup + window + drain). */
    double wallSeconds = 0.0;

    /** Σ span durations per layer; zero when spans are off. */
    std::array<double, numLayers> layerSeconds{};

    /** Spans recorded (zero when spans are off). */
    std::size_t spans = 0;

    /** @{ Calls into each layer, warmup included. */
    std::uint64_t records = 0;
    std::uint64_t cacheCalls = 0;
    std::uint64_t registrationCalls = 0;
    std::uint64_t memRequests = 0;
    /** @} */

    /** @{ Window counts, comparable with the untraced run's. */
    std::uint64_t windowRecords = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t llcDirtyEvictions = 0;
    std::uint64_t registrations = 0;
    /** @} */

    /** Add another replay's times and counts. */
    ReplayResult &operator+=(const ReplayResult &other);
};

/**
 * Replay the run `config` describes. Each core replays its untraced
 * window record count, preceded by a warmup prefix scaled from it by
 * the warmup fraction; the cores' streams come from System's seed
 * chain and address slices. RRM decay ticks and selective-refresh
 * rounds fire at the scaled epoch cadence, placed by the share of
 * records replayed. With `spans` false no clock is read inside the
 * loop, which measures the spans' own overhead.
 */
ReplayResult replay(const rrm::sys::SystemConfig &config,
                    const std::vector<std::uint64_t> &window_records,
                    bool spans);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH
