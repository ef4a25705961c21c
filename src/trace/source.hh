/**
 * @file
 * TraceSource: one abstraction over the two ways a core can obtain
 * its instruction stream, byte-identical for a given (profile, seed):
 *
 *  - Generate: run the TraceGenerator inline (the default; zero
 *              memory overhead, RNG + pattern math per record).
 *  - Pack:     replay a pre-generated binary .rtp file produced by
 *              tools/trace-pack (see trace_pack.hh).
 *
 * A pack holds a finite prefix. When a run consumes past the prefix
 * the source "fast-forwards" a fresh generator over the records it
 * already served and continues generating live — a one-time O(N)
 * cost that preserves exactness instead of failing the run.
 */

#ifndef RRM_TRACE_SOURCE_HH
#define RRM_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "trace/generator.hh"
#include "trace/trace_pack.hh"

namespace rrm::trace
{

/**
 * The stream handle a core consumes. Move-only; owns the position
 * cursor and (in Generate / fast-forward mode) the generator itself.
 */
class TraceSource
{
  public:
    /** Inline generation (byte-identical to the pre-redesign path). */
    static TraceSource generate(const BenchmarkProfile &profile,
                                std::uint64_t seed);

    /**
     * Replay from a .rtp pack. Validates the pack's profile name,
     * seed, and footprint against the expected stream; fatal() on any
     * mismatch.
     */
    static TraceSource pack(std::shared_ptr<TracePackReader> reader,
                            const BenchmarkProfile &profile,
                            std::uint64_t seed);

    TraceSource(TraceSource &&) = default;
    TraceSource &operator=(TraceSource &&) = default;

    /** Next record of the stream. */
    TraceRecord next();

    /** Records served so far (the checkpointed replay cursor). */
    std::uint64_t consumed() const { return consumed_; }

    /**
     * Checkpoint restore: position the stream as if `consumed`
     * records had already been served. Pack replay simply moves its
     * cursor; Generate mode (and a pack prefix shorter than
     * `consumed`) fast-forwards a fresh generator over the served
     * records, the same O(N) mechanism as fastForwardTail. Only legal
     * on a freshly constructed source.
     */
    void seek(std::uint64_t consumed);

    const BenchmarkProfile &profile() const { return *profile_; }
    std::uint64_t footprintBytes() const { return footprint_; }
    double meanGapInstructions() const { return meanGap_; }

  private:
    TraceSource(const BenchmarkProfile &profile, std::uint64_t seed);

    /**
     * Replace the replay backend with a live generator fast-forwarded
     * past the `consumed` records already served.
     */
    void fastForwardTail(std::uint64_t consumed);

    const BenchmarkProfile *profile_;
    std::uint64_t seed_;
    std::uint64_t footprint_ = 0;
    double meanGap_ = 0.0;

    /** Live generator (Generate mode, or the replay tail). */
    std::optional<TraceGenerator> gen_;

    std::shared_ptr<TracePackReader> pack_;
    std::uint64_t pos_ = 0;      ///< next replay index
    std::uint64_t replayEnd_ = 0; ///< replay records available
    std::uint64_t consumed_ = 0; ///< records served via next()
};

} // namespace rrm::trace

#endif // RRM_TRACE_SOURCE_HH
