/**
 * @file
 * Periodic statistics sampling.
 *
 * A Sampler owns a set of named numeric columns — arbitrary closures
 * or dotted stat paths resolved through StatGroup::find — and
 * snapshots all of them every `interval` ticks of simulated time,
 * driven by the event queue. Samples run at EventPriority::Sampler,
 * i.e. after every other event of the same tick (RRM decay ticks,
 * memory completions, core activity), so a sample aligned with the
 * RRM's decay epoch observes the post-decay state of that epoch.
 *
 * The collected time series stays in memory and can be rendered as
 * CSV with the deterministic number formatting of obs/json.hh.
 */

#ifndef RRM_OBS_SAMPLER_HH
#define RRM_OBS_SAMPLER_HH

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "stats/stats.hh"

namespace rrm::obs
{

/**
 * Numeric value of any stat kind: Scalar/Formula value, VectorStat
 * total, DistributionStat sample count. Null returns 0.
 */
double statValue(const stats::StatBase *stat);

/** Periodic sampler over named numeric columns. */
class Sampler
{
  public:
    using ColumnFn = std::function<double()>;

    /** One sampled row. */
    struct Row
    {
        Tick tick;
        std::vector<double> values;
    };

    /**
     * @param queue    Event queue driving the periodic samples.
     * @param interval Ticks between samples (> 0).
     */
    Sampler(EventQueue &queue, Tick interval);

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /** Register a column; must happen before the first sample. */
    void addColumn(std::string name, ColumnFn fn);

    /**
     * Register a column reading the stat at `path` under `root`
     * (resolved lazily each sample, so stats registered later under
     * an existing path still bind). The column is named `path`.
     */
    void addStat(const stats::StatGroup &root, const std::string &path);

    /**
     * Arm the periodic sample task. The first sample is taken at
     * now() + interval (one full epoch of data before the first row).
     */
    void start();

    /** Cancel future samples (collected rows are kept). */
    void stop();

    /** Take one sample right now (also used by the periodic task). */
    void sampleNow();

    /** Report each sample as a trace event (category Sampler). */
    void setTraceSink(TraceSink *sink) { traceSink_ = sink; }

    /**
     * Hook invoked at the end of every sample (periodic or manual),
     * after the row is collected and the Sampler-category trace event
     * is emitted. The System uses it to piggy-back per-core progress
     * and per-tenant queue counters onto the sampling cadence.
     */
    void setSampleHook(std::function<void()> hook)
    {
        sampleHook_ = std::move(hook);
    }

    Tick interval() const { return interval_; }
    const std::vector<std::string> &columnNames() const
    {
        return columnNames_;
    }
    const std::vector<Row> &rows() const { return rows_; }

    /**
     * @{ Checkpoint the collected rows and the armed task's next-fire
     * tick. restoreCkpt() requires the same columns registered and
     * the task not yet started; if the saved sampler was armed the
     * periodic task re-arms at its saved next-fire tick.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    /** CSV: header "time_s,<col>,..." then one row per sample. */
    void writeCsv(std::ostream &os) const;

  private:
    EventQueue &queue_;
    Tick interval_;
    std::vector<std::string> columnNames_;
    std::vector<ColumnFn> columns_;
    std::vector<Row> rows_;
    std::unique_ptr<PeriodicTask> task_;
    TraceSink *traceSink_ = nullptr;
    std::function<void()> sampleHook_;
};

} // namespace rrm::obs

#endif // RRM_OBS_SAMPLER_HH
