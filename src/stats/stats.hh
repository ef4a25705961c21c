/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Simulation objects own a StatGroup and register named statistics in
 * it. Groups nest, giving dotted hierarchical names
 * (e.g. "system.memctrl.channel0.readReqs"). Supported kinds:
 *
 *  - Scalar:       a counter / accumulator.
 *  - VectorStat:   a fixed set of named bins (per-bank counters, ...).
 *  - Formula:      a value computed from other stats at dump time.
 *  - DistributionStat: bucketed distribution over uint64 samples.
 *  - HistogramStat: log2-bucketed distribution with fixed bucket
 *    geometry (bucket 0 holds zero-valued samples; bucket i >= 1
 *    holds [2^(i-1), 2^i)), built for hot-path telemetry where the
 *    sample range is unknown up front.
 *
 * Output goes through the StatVisitor interface: a visitor walks the
 * tree in registration order and receives one typed callback per
 * stat, which is how the text and JSON writers both render the
 * same tree (see TextStatWriter here and obs/stat_writers.hh).
 * StatGroup::dump() remains as the canonical text report, implemented
 * on top of TextStatWriter.
 */

#ifndef RRM_STATS_STATS_HH
#define RRM_STATS_STATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.hh"
#include "common/logging.hh"

namespace rrm::ckpt
{
class ChunkWriter;
class ChunkReader;
} // namespace rrm::ckpt

namespace rrm::stats
{

class Scalar;
class VectorStat;
class Formula;
class DistributionStat;
class HistogramStat;

/**
 * Typed walk over a statistics tree. Paths are full dotted names
 * including every enclosing group (e.g. "system.rrm.promotions").
 * Callbacks run in registration order, group-by-group (a group's own
 * stats first, then its children), which is deterministic for a given
 * construction sequence.
 */
class StatVisitor
{
  public:
    virtual ~StatVisitor() = default;

    virtual void visitScalar(const std::string &path,
                             const Scalar &stat) = 0;
    virtual void visitVector(const std::string &path,
                             const VectorStat &stat) = 0;
    virtual void visitFormula(const std::string &path,
                              const Formula &stat) = 0;
    virtual void visitDistribution(const std::string &path,
                                   const DistributionStat &stat) = 0;
    virtual void visitHistogram(const std::string &path,
                                const HistogramStat &stat) = 0;

    /** Group boundaries (path includes the group itself). */
    virtual void enterGroup(const std::string &path) { (void)path; }
    virtual void leaveGroup(const std::string &path) { (void)path; }
};

/** Base class for all statistics. */
class StatBase
{
  public:
    StatBase(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~StatBase() = default;

    StatBase(const StatBase &) = delete;
    StatBase &operator=(const StatBase &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Dispatch to the matching StatVisitor callback. */
    virtual void accept(StatVisitor &visitor,
                        const std::string &path) const = 0;

    /** Reset to initial value. */
    virtual void reset() = 0;

    /**
     * @{ Checkpoint the stat's accumulated value(s). The default is
     * stateless (Formula: derived values re-evaluate against restored
     * operands). Restore throws ckpt::CkptError on malformed payloads
     * so a corrupted checkpoint falls back instead of crashing.
     */
    virtual void saveCkpt(ckpt::ChunkWriter &w) const { (void)w; }
    virtual void restoreCkpt(ckpt::ChunkReader &r) { (void)r; }
    /** @} */

  private:
    std::string name_;
    std::string desc_;
};

/** A simple additive counter / accumulator. */
class Scalar : public StatBase
{
  public:
    using StatBase::StatBase;

    Scalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    Scalar &
    operator++()
    {
        value_ += 1.0;
        return *this;
    }

    void set(double v) { value_ = v; }
    double value() const { return value_; }

    void
    accept(StatVisitor &visitor, const std::string &path) const override
    {
        visitor.visitScalar(path, *this);
    }

    void reset() override { value_ = 0.0; }

    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;

  private:
    double value_ = 0.0;
};

/** A fixed-size vector of named bins. */
class VectorStat : public StatBase
{
  public:
    VectorStat(std::string name, std::string desc,
               std::vector<std::string> bin_names)
        : StatBase(std::move(name), std::move(desc)),
          binNames_(std::move(bin_names)),
          values_(binNames_.size(), 0.0)
    {}

    void
    add(std::size_t bin, double v = 1.0)
    {
        RRM_ASSERT(bin < values_.size(), "stat vector bin out of range");
        values_[bin] += v;
    }

    double
    value(std::size_t bin) const
    {
        RRM_ASSERT(bin < values_.size(), "stat vector bin out of range");
        return values_[bin];
    }

    double total() const;
    std::size_t size() const { return values_.size(); }

    const std::string &
    binName(std::size_t bin) const
    {
        return binNames_.at(bin);
    }

    void
    accept(StatVisitor &visitor, const std::string &path) const override
    {
        visitor.visitVector(path, *this);
    }

    void reset() override;

    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;

  private:
    std::vector<std::string> binNames_;
    std::vector<double> values_;
};

/**
 * A derived value evaluated lazily at dump time.
 *
 * Contract notes (relied on by the exporters, tested in
 * test_stats.cc):
 *  - reset() is deliberately a no-op: a formula holds no state of its
 *    own; resetting the operand stats it reads is what changes its
 *    value. After StatGroup::reset() a formula therefore re-evaluates
 *    against the freshly reset operands.
 *  - value() with a null function returns 0.0 rather than crashing,
 *    so a default-constructed / moved-from formula stays dumpable.
 */
class Formula : public StatBase
{
  public:
    using Fn = std::function<double()>;

    Formula(std::string name, std::string desc, Fn fn)
        : StatBase(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const { return fn_ ? fn_() : 0.0; }

    void
    accept(StatVisitor &visitor, const std::string &path) const override
    {
        visitor.visitFormula(path, *this);
    }

    void reset() override {}

  private:
    Fn fn_;
};

/** Bucketed distribution built on BoundedHistogram. */
class DistributionStat : public StatBase
{
  public:
    DistributionStat(std::string name, std::string desc,
                     std::vector<std::uint64_t> boundaries)
        : StatBase(std::move(name), std::move(desc)),
          hist_(std::move(boundaries))
    {}

    void add(std::uint64_t v, std::uint64_t weight = 1)
    {
        hist_.add(v, weight);
        samples_.add(static_cast<double>(v));
    }

    const BoundedHistogram &histogram() const { return hist_; }
    const SampleStats &samples() const { return samples_; }

    void
    accept(StatVisitor &visitor, const std::string &path) const override
    {
        visitor.visitDistribution(path, *this);
    }

    void reset() override
    {
        hist_.reset();
        samples_.reset();
    }

    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;

  private:
    BoundedHistogram hist_;
    SampleStats samples_;
};

/**
 * Fixed-geometry log2 histogram over uint64 samples.
 *
 * Unlike DistributionStat (caller-supplied boundaries, dense bucket
 * emission), the bucket geometry is baked in — bucket 0 counts
 * zero-valued samples, bucket i >= 1 counts values in [2^(i-1), 2^i)
 * — so recording is a bit_width() plus an array increment and needs
 * no configuration. The writers emit only non-empty buckets (the
 * geometry is implied by the labels), keeping 65-bucket histograms
 * readable. Same samples in => same buckets out, on every platform:
 * the bucketing contract is part of the determinism surface
 * (DESIGN.md §14).
 */
class HistogramStat : public StatBase
{
  public:
    /** Bucket 0 plus one bucket per uint64 bit. */
    static constexpr std::size_t kNumBuckets = 65;

    using StatBase::StatBase;

    void add(std::uint64_t v, std::uint64_t weight = 1);

    std::uint64_t samples() const { return samples_; }
    double sum() const { return sum_; }
    double mean() const
    {
        return samples_ ? sum_ / static_cast<double>(samples_) : 0.0;
    }
    /** Smallest / largest recorded sample; 0 when empty. */
    std::uint64_t minSample() const { return samples_ ? min_ : 0; }
    std::uint64_t maxSample() const { return max_; }

    std::uint64_t
    count(std::size_t bucket) const
    {
        RRM_ASSERT(bucket < kNumBuckets, "histogram bucket out of range");
        return counts_[bucket];
    }

    /** Bucket index holding value v (0 for v == 0, else bit_width). */
    static std::size_t bucketOf(std::uint64_t v);

    /** Deterministic label, e.g. "0", "[1,2)", "[4,8)". */
    static std::string bucketLabel(std::size_t bucket);

    void
    accept(StatVisitor &visitor, const std::string &path) const override
    {
        visitor.visitHistogram(path, *this);
    }

    void reset() override;

    void saveCkpt(ckpt::ChunkWriter &w) const override;
    void restoreCkpt(ckpt::ChunkReader &r) override;

  private:
    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t samples_ = 0;
    double sum_ = 0.0;
    std::uint64_t min_ = ~std::uint64_t(0);
    std::uint64_t max_ = 0;
};

/**
 * A named collection of statistics and child groups.
 *
 * Groups own their stats; the add* helpers return references that stay
 * valid for the group's lifetime (stats are never removed).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    const std::string &name() const { return name_; }

    Scalar &addScalar(const std::string &name, const std::string &desc);
    VectorStat &addVector(const std::string &name, const std::string &desc,
                          std::vector<std::string> bin_names);
    Formula &addFormula(const std::string &name, const std::string &desc,
                        Formula::Fn fn);
    DistributionStat &addDistribution(
        const std::string &name, const std::string &desc,
        std::vector<std::uint64_t> boundaries);
    HistogramStat &addHistogram(const std::string &name,
                                const std::string &desc);

    /** Create (and own) a nested child group. */
    StatGroup &addChild(const std::string &name);

    /**
     * Walk this group and all children with the given visitor, in
     * registration order (own stats first, then children). `prefix`
     * is prepended to every path (empty = paths start at this group).
     */
    void visit(StatVisitor &visitor,
               const std::string &prefix = "") const;

    /** Dump this group and all children, prefixing names with path. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Reset all stats in this group and children. */
    void reset();

    /**
     * Find a stat by its dotted path relative to this group; returns
     * nullptr if not present. Intended for tests and report writers.
     *
     * Resolution rules (ordering-safe — see test_stats.cc):
     *  - a path segment descends into *every* child carrying that
     *    name, in registration order, until one resolves (duplicate
     *    child names — e.g. a group name registered twice — no longer
     *    shadow later-registered children);
     *  - if no child resolves the path, a stat in this group whose
     *    name equals the entire remaining path matches, so stat names
     *    containing dots remain reachable.
     */
    const StatBase *find(const std::string &dotted_path) const;

    /**
     * @{ Checkpoint every stat in this group and its children, in
     * registration order. The payload is self-describing: each stat
     * is framed with a kind tag and its name, and group boundaries
     * are explicit, so restoreCkpt() detects any structural drift
     * between the checkpointed tree and the live one and throws
     * ckpt::CkptError naming the first divergence (a resumed run
     * must register the identical stat tree). Formulas hold no state
     * and are not framed.
     */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

  private:
    template <typename T, typename... Args>
    T &emplaceStat(Args &&...args);

    std::string name_;
    std::vector<std::unique_ptr<StatBase>> statsInOrder_;
    std::vector<std::unique_ptr<StatGroup>> children_;
};

/**
 * The canonical text renderer: fixed-width gem5-style lines
 * ("path  value  # desc"), vectors expanded per bin plus ::total,
 * distributions expanded into ::samples / ::mean / buckets,
 * histograms into ::samples / ::mean / ::min / ::max plus non-empty
 * buckets. This is exactly what StatGroup::dump() emits.
 */
class TextStatWriter : public StatVisitor
{
  public:
    explicit TextStatWriter(std::ostream &os) : os_(os) {}

    void visitScalar(const std::string &path,
                     const Scalar &stat) override;
    void visitVector(const std::string &path,
                     const VectorStat &stat) override;
    void visitFormula(const std::string &path,
                      const Formula &stat) override;
    void visitDistribution(const std::string &path,
                           const DistributionStat &stat) override;
    void visitHistogram(const std::string &path,
                        const HistogramStat &stat) override;

  private:
    std::ostream &os_;
};

} // namespace rrm::stats

#endif // RRM_STATS_STATS_HH
