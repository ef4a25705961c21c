/**
 * @file
 * The MLC PCM memory controller: address decoding plus one Channel per
 * physical channel, with the three priority queues of Table V.
 *
 * The controller is timing-only: wear and energy accounting live in
 * the system layer, driven by the per-request completion hook (this
 * keeps the rate-corrected refresh bookkeeping in one place — see
 * DESIGN.md section 3).
 */

#ifndef RRM_MEMCTRL_CONTROLLER_HH
#define RRM_MEMCTRL_CONTROLLER_HH

#include <memory>
#include <vector>

#include "common/auditable.hh"
#include "memctrl/channel.hh"

namespace rrm::memctrl
{

/** Multi-channel PCM memory controller. */
class Controller : public Auditable
{
  public:
    Controller(const MemoryParams &params, EventQueue &queue);

    const MemoryParams &params() const { return params_; }

    /**
     * Enqueue a read for `addr`; `on_complete` fires when the data
     * burst finishes. @return false if the read queue is full.
     */
    bool enqueueRead(Addr addr, RequestCallback on_complete);

    /**
     * Enqueue a demand write with the given write mode.
     * @return false if the write queue is full (backpressure).
     */
    bool enqueueWrite(Addr addr, pcm::WriteMode mode);

    /**
     * Enqueue an RRM selective refresh.
     * @return false if the refresh queue is full.
     */
    bool enqueueRefresh(Addr addr, pcm::WriteMode mode);

    /** True if the write queue owning `addr` is full. */
    bool writeQueueFull(Addr addr) const;

    /** Completion hook applied to every request on every channel. */
    void setCompletionHook(CompletionHook hook);

    /** Hook invoked when any channel issues a write (drain space). */
    void setWriteIssuedHook(WriteIssuedHook hook);

    /** Forward a trace sink to every channel (null detaches). */
    void setTraceSink(obs::TraceSink *sink);

    /** Aggregate queue occupancies (tests / reporting). */
    std::size_t totalReadQueue() const;
    std::size_t totalWriteQueue() const;
    std::size_t totalRefreshQueue() const;

    /** True if every channel is drained and idle. */
    bool idle() const;

    /** True if every channel is quiescent (see Channel::quiescent). */
    bool
    quiescent() const
    {
        for (const auto &ch : channels_)
            if (!ch->quiescent())
                return false;
        return true;
    }

    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    Channel &channel(unsigned i) { return *channels_.at(i); }
    const Channel &channel(unsigned i) const { return *channels_.at(i); }

    void regStats(stats::StatGroup &group);

    /** @{ Checkpoint every channel, in channel-index order. */
    void
    saveCkpt(ckpt::ChunkWriter &w) const
    {
        for (const auto &ch : channels_)
            ch->saveCkpt(w);
    }

    void
    restoreCkpt(ckpt::ChunkReader &r)
    {
        for (auto &ch : channels_)
            ch->restoreCkpt(r);
    }
    /** @} */

    // ---- Auditable ----
    /** Deep-check every channel (see Channel::audit). */
    void
    audit() const override
    {
        for (const auto &ch : channels_)
            ch->audit();
    }

  private:
    unsigned channelOf(Addr addr) const;

    MemoryParams params_;
    AddressMap map_;
    std::vector<std::unique_ptr<Channel>> channels_;
};

} // namespace rrm::memctrl

#endif // RRM_MEMCTRL_CONTROLLER_HH
