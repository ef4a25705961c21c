/**
 * @file
 * Three-level inclusive write-back cache hierarchy.
 *
 * Per-core L1D and L2 back a shared LLC (L3). Inclusion (L1 ⊆ L2 ⊆
 * LLC) is maintained with back-invalidation, which gives the clean
 * event structure the RRM needs:
 *
 *  - an **LLC write** happens exactly when a dirty L2 victim is
 *    written back into its (present, by inclusion) LLC line; the
 *    hierarchy reports it as an LLC Write Registration carrying the
 *    LLC line's *previous* dirty bit (the paper's streaming filter);
 *  - a **memory write** happens exactly when an LLC victim leaves the
 *    hierarchy dirty (merging any dirtier L1/L2 copies).
 *
 * Instruction fetch is not modelled: the SPEC-like workloads of the
 * paper have negligible I-side LLC traffic. MSHR counts live in the
 * configs; the core model enforces them (it owns request concurrency).
 */

#ifndef RRM_CACHE_HIERARCHY_HH
#define RRM_CACHE_HIERARCHY_HH

#include <memory>
#include <vector>

#include "cache/cache.hh"

namespace rrm::cache
{

/** Events produced by one hierarchy operation. */
struct HierarchyEvents
{
    /** Lookup latency accrued on the hit/miss-detection path. */
    Tick latency = 0;

    /** Level that hit: 1 = L1, 2 = L2, 3 = LLC, 0 = miss / fill. */
    unsigned hitLevel = 0;

    /** The access missed the LLC and needs a memory read. */
    bool llcMiss = false;

    /** A dirty LLC victim must be written to memory. */
    bool memWrite = false;
    Addr memWriteAddr = 0;

    /** An LLC write occurred (L2 dirty victim written into LLC). */
    bool registration = false;
    Addr registrationAddr = 0;
    bool registrationWasDirty = false;
};

/** Configuration of the full hierarchy. */
struct HierarchyConfig
{
    unsigned numCores = 4;
    CacheConfig l1;
    CacheConfig l2;
    CacheConfig llc;
};

/** The paper's hierarchy (Table IV), at 2 GHz (500 ps cycles). */
HierarchyConfig defaultHierarchyConfig();

/** Three-level inclusive hierarchy. */
class CacheHierarchy : public Auditable
{
  public:
    explicit CacheHierarchy(const HierarchyConfig &config);

    const HierarchyConfig &config() const { return config_; }

    /**
     * Perform a load/store lookup for `core`.
     *
     * On an LLC hit (or better) the line is filled into the upper
     * levels and a store dirties L1. On an LLC miss the caller must
     * fetch the line from memory and then call fill().
     */
    HierarchyEvents access(unsigned core, Addr addr, bool is_write);

    /**
     * Complete an LLC miss: allocate the line through all levels and
     * apply the (merged) demand access. May displace a dirty LLC
     * victim (memWrite) and/or cause an LLC write registration from
     * the L2 fill victim.
     *
     * @param is_write True if any merged request was a store.
     */
    HierarchyEvents fill(unsigned core, Addr addr, bool is_write);

    /** LLC MSHR budget (outstanding memory reads). */
    unsigned llcMshrs() const { return config_.llc.mshrs; }

    /** Per-core outstanding-miss budget (L1 MSHRs). */
    unsigned coreMshrs() const { return config_.l1.mshrs; }

    const Cache &llc() const { return *llc_; }
    const Cache &l1(unsigned core) const { return *l1s_.at(core); }
    const Cache &l2(unsigned core) const { return *l2s_.at(core); }

    /** Register per-cache statistics. */
    void regStats(stats::StatGroup &group);

    /** @{ Checkpoint every level, core-major then the shared LLC. */
    void saveCkpt(ckpt::ChunkWriter &w) const;
    void restoreCkpt(ckpt::ChunkReader &r);
    /** @} */

    // ---- Auditable ----
    /**
     * Invariants: each level's own array is consistent (see
     * Cache::audit), inclusion holds (L1 ⊆ L2 ⊆ LLC), dirty upper
     * copies have their backing line present below, and every LLC
     * line's recorded owner is a real core (or untracked).
     */
    void audit() const override;

  private:
    void fillIntoL2(unsigned core, Addr addr, HierarchyEvents &ev);
    /** @return the L1 slot the line now occupies. */
    std::size_t fillIntoL1(unsigned core, Addr addr);

    HierarchyConfig config_;
    std::vector<std::unique_ptr<Cache>> l1s_;
    std::vector<std::unique_ptr<Cache>> l2s_;
    std::unique_ptr<Cache> llc_;
};

} // namespace rrm::cache

#endif // RRM_CACHE_HIERARCHY_HH
