/**
 * @file
 * Per-layer counts and the span-recording replay.
 */

#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "cache/hierarchy.hh"
#include "common/random.hh"
#include "memctrl/controller.hh"
#include "rrm/region_monitor.hh"
#include "trace/generator.hh"

namespace perfbench
{

using namespace rrm;

LayerCounts &
LayerCounts::operator+=(const LayerCounts &o)
{
    records += o.records;
    l2Hits += o.l2Hits;
    l2Misses += o.l2Misses;
    llcHits += o.llcHits;
    llcMisses += o.llcMisses;
    llcDirtyEvictions += o.llcDirtyEvictions;
    instructions += o.instructions;
    robStalls += o.robStalls;
    mshrStalls += o.mshrStalls;
    registrations += o.registrations;
    cleanFiltered += o.cleanFiltered;
    registrationHits += o.registrationHits;
    promotions += o.promotions;
    fastWrites += o.fastWrites;
    slowWrites += o.slowWrites;
    fastRefreshes += o.fastRefreshes;
    memReads += o.memReads;
    memWrites += o.memWrites;
    memRefreshes += o.memRefreshes;
    rowHits += o.rowHits;
    writePauses += o.writePauses;
    drainEntries += o.drainEntries;
    readLatencySamples += o.readLatencySamples;
    readLatencySumTicks += o.readLatencySumTicks;
    events += o.events;
    fillRefusals += o.fillRefusals;
    writebackBlocked += o.writebackBlocked;
    refreshOverflows += o.refreshOverflows;
    return *this;
}

ReplayResult &
ReplayResult::operator+=(const ReplayResult &o)
{
    wallSeconds += o.wallSeconds;
    for (std::size_t l = 0; l < numLayers; ++l)
        layerSeconds[l] += o.layerSeconds[l];
    spans += o.spans;
    records += o.records;
    cacheCalls += o.cacheCalls;
    registrationCalls += o.registrationCalls;
    memRequests += o.memRequests;
    windowRecords += o.windowRecords;
    llcMisses += o.llcMisses;
    llcDirtyEvictions += o.llcDirtyEvictions;
    registrations += o.registrations;
    return *this;
}

namespace
{

std::uint64_t
statCount(const stats::StatGroup &root, const std::string &path)
{
    const stats::StatBase *stat = root.find(path);
    if (const auto *s = dynamic_cast<const stats::Scalar *>(stat))
        return static_cast<std::uint64_t>(s->value());
    throw std::runtime_error("stat '" + path + "' not found");
}

} // namespace

LayerCounts
layerCountsOf(const sys::System &system, const sys::SimResults &r)
{
    const stats::StatGroup &root = system.statRoot();
    LayerCounts n;
    for (unsigned c = 0; c < system.config().hierarchy.numCores; ++c) {
        const std::string core = "core" + std::to_string(c) + ".";
        const std::string l2 = "l2" + std::to_string(c) + ".";
        n.windowRecordsPerCore.push_back(statCount(root, core + "memOps"));
        n.records += n.windowRecordsPerCore.back();
        n.robStalls += statCount(root, core + "robStalls");
        n.mshrStalls += statCount(root, core + "mshrStalls");
        n.l2Hits += statCount(root, l2 + "hits");
        n.l2Misses += statCount(root, l2 + "misses");
    }
    n.llcHits = statCount(root, "llc.hits");
    n.llcMisses = statCount(root, "llc.misses");
    n.llcDirtyEvictions = statCount(root, "llc.dirtyEvictions");

    n.instructions = r.totalInstructions;
    n.registrations = r.rrmRegistrations;
    n.cleanFiltered = r.rrmCleanFiltered;
    n.registrationHits = r.rrmRegistrationHits;
    n.promotions = r.rrmPromotions;
    n.fastWrites = r.fastWrites;
    n.slowWrites = r.slowWrites;
    n.fastRefreshes = r.rrmFastRefreshes;

    unsigned channels = 0;
    for (;; ++channels) {
        const std::string ch = "channel" + std::to_string(channels) + ".";
        if (!root.find(ch + "reads"))
            break;
        n.memReads += statCount(root, ch + "reads");
        n.rowHits += statCount(root, ch + "rowHits");
        n.memWrites += statCount(root, ch + "writes");
        n.memRefreshes += statCount(root, ch + "rrmRefreshes");
        n.writePauses += statCount(root, ch + "writePauses");
        n.drainEntries += statCount(root, ch + "drainEntries");
        const auto *lat = dynamic_cast<const stats::DistributionStat *>(
            root.find(ch + "readLatency"));
        if (!lat)
            throw std::runtime_error("stat '" + ch + "readLatency' not found");
        n.readLatencySamples += lat->samples().count();
        n.readLatencySumTicks += lat->samples().sum();
    }
    if (channels == 0)
        throw std::runtime_error("no memory channel stats found");
    n.events = r.eventsExecuted;

    n.fillRefusals = statCount(root, "sys.fillRefusals");
    n.writebackBlocked = statCount(root, "sys.writebackBlocked");
    n.refreshOverflows = statCount(root, "sys.refreshOverflows");
    return n;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** Records per core per batch: large enough that span clock reads
 *  are negligible, small enough to keep the buffers in cache. */
constexpr std::uint64_t batchRecords = 4096;

/** One span: a layer's work on one batch. */
struct Span
{
    Layer layer;
    std::uint32_t batch;
    Clock::time_point start;
    Clock::time_point end;
};

/** Consecutive, non-nested spans: one clock read per boundary. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool on) : on_(on) {}

    void
    begin()
    {
        if (on_)
            last_ = Clock::now();
    }

    void
    end(Layer layer, std::uint32_t batch)
    {
        if (!on_)
            return;
        const Clock::time_point now = Clock::now();
        spans_.push_back({layer, batch, last_, now});
        last_ = now;
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool on_;
    Clock::time_point last_{};
    std::vector<Span> spans_;
};

/** An LLC-boundary event of the cache stage, in program order. */
struct LlcEvent
{
    enum class Kind : std::uint8_t
    {
        Read,         ///< LLC miss: memory read of `addr`
        Registration, ///< LLC write registration
        Writeback,    ///< dirty LLC victim leaves the hierarchy
    };
    Kind kind;
    bool wasDirty;
    Addr addr;
};

/** A request of the memory-controller stage, in arrival order. */
struct MemRequest
{
    memctrl::ReqKind kind;
    pcm::WriteMode mode;
    Addr addr;
};

/** A periodic RRM interrupt, placed by its share of the window. */
struct Epoch
{
    double fraction;
    bool refresh; ///< selective-refresh round (else a decay tick)
};

std::vector<Epoch>
epochSchedule(const sys::SystemConfig &cfg)
{
    std::vector<Epoch> epochs;
    if (!cfg.scheme.usesMonitor())
        return epochs;
    const Tick end = secondsToTicks(cfg.windowSeconds);
    const auto add = [&](Tick every, bool refresh) {
        for (Tick t = every; every > 0 && t <= end; t += every) {
            epochs.push_back({static_cast<double>(t) /
                                  static_cast<double>(end),
                              refresh});
        }
    };
    add(cfg.rrm.shortRetentionInterval(), true);
    add(cfg.rrm.decayTickInterval(), false);
    std::stable_sort(epochs.begin(), epochs.end(),
                     [](const Epoch &a, const Epoch &b) {
                         return a.fraction < b.fraction;
                     });
    return epochs;
}

} // namespace

ReplayResult
replay(const sys::SystemConfig &config,
       const std::vector<std::uint64_t> &window_records, bool spans)
{
    sys::SystemConfig cfg = config;
    cfg.finalize();
    const unsigned cores = cfg.hierarchy.numCores;
    if (window_records.size() != cores)
        throw std::runtime_error("replay: per-core record counts do not "
                                 "match the core count");
    const std::uint64_t slice = cfg.memory.memoryBytes / cores;

    // System::buildCores' seed chain: one Random(seed).next() per core.
    Random seeder(cfg.seed);
    std::vector<std::unique_ptr<trace::TraceGenerator>> gens;
    for (unsigned c = 0; c < cores; ++c) {
        const trace::BenchmarkProfile &profile =
            cfg.customProfiles.empty()
                ? trace::benchmarkProfile(cfg.workload.perCore[c])
                : *cfg.customProfiles[c];
        gens.push_back(
            std::make_unique<trace::TraceGenerator>(profile, seeder.next()));
    }

    std::vector<std::uint64_t> warmup_records(cores);
    const double warm_scale =
        cfg.warmupFraction / (1.0 - cfg.warmupFraction);
    std::uint64_t total_records = 0;
    for (unsigned c = 0; c < cores; ++c) {
        warmup_records[c] = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(window_records[c]) * warm_scale));
        total_records += warmup_records[c] + window_records[c];
    }

    stats::StatGroup stat_root("replay");
    cache::CacheHierarchy hierarchy(cfg.hierarchy);
    hierarchy.regStats(stat_root);

    EventQueue mem_queue;
    memctrl::Controller controller(cfg.memory, mem_queue);
    controller.regStats(stat_root);

    std::vector<MemRequest> mem_requests;

    // The monitor gets its own (never-run) queue: the replay fires its
    // periodic interrupts itself, at the epoch schedule below.
    EventQueue rrm_queue;
    std::unique_ptr<monitor::RegionMonitor> monitor;
    std::uint64_t refresh_seq = 0;
    const std::uint64_t time_scale = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(cfg.timeScale));
    if (cfg.scheme.usesMonitor()) {
        monitor = std::make_unique<monitor::RegionMonitor>(cfg.rrm, rrm_queue);
        monitor->regStats(stat_root);
        // Rate correction as in System::onPolicyRefresh: one refresh in
        // every timeScale enters the timing queues.
        monitor->setRefreshCallback(
            [&](const monitor::RefreshRequest &req) {
                if (refresh_seq++ % time_scale == 0) {
                    mem_requests.push_back({memctrl::ReqKind::RrmRefresh,
                                            req.mode, req.blockAddr});
                }
            });
    }
    const std::vector<Epoch> epochs = epochSchedule(cfg);
    std::size_t next_epoch = 0;

    ReplayResult out;
    SpanRecorder recorder(spans);
    std::vector<std::vector<trace::TraceRecord>> buffers(cores);
    std::vector<LlcEvent> llc_events;
    std::vector<std::uint64_t> batch_size(cores);
    std::uint64_t records_done = 0;
    std::uint32_t batch = 0;

    const auto enqueue = [&](const MemRequest &req) {
        switch (req.kind) {
          case memctrl::ReqKind::Read:
            return controller.enqueueRead(req.addr, [](Tick) {});
          case memctrl::ReqKind::Write:
            return controller.enqueueWrite(req.addr, req.mode);
          case memctrl::ReqKind::RrmRefresh:
            break;
        }
        return controller.enqueueRefresh(req.addr, req.mode);
    };

    const auto push_events = [&](const cache::HierarchyEvents &ev) {
        if (ev.registration) {
            llc_events.push_back({LlcEvent::Kind::Registration,
                                  ev.registrationWasDirty,
                                  ev.registrationAddr});
        }
        if (ev.memWrite) {
            llc_events.push_back(
                {LlcEvent::Kind::Writeback, false, ev.memWriteAddr});
        }
    };

    const auto run_phase = [&](std::vector<std::uint64_t> remaining) {
        for (;;) {
            std::uint64_t longest = 0;
            for (unsigned c = 0; c < cores; ++c) {
                batch_size[c] = std::min(batchRecords, remaining[c]);
                longest = std::max(longest, batch_size[c]);
            }
            if (longest == 0)
                return;
            recorder.begin();

            for (unsigned c = 0; c < cores; ++c) {
                buffers[c].resize(batch_size[c]);
                for (auto &rec : buffers[c])
                    rec = gens[c]->next();
                remaining[c] -= batch_size[c];
            }
            recorder.end(Layer::Trace, batch);

            // Cores interleave record by record on the shared LLC; a
            // miss is filled at once (no core timing model).
            llc_events.clear();
            for (std::uint64_t i = 0; i < longest; ++i) {
                for (unsigned c = 0; c < cores; ++c) {
                    if (i >= batch_size[c])
                        continue;
                    const trace::TraceRecord &rec = buffers[c][i];
                    const Addr addr = static_cast<Addr>(c) * slice + rec.addr;
                    const bool is_write =
                        rec.type == trace::AccessType::Write;
                    const cache::HierarchyEvents ev =
                        hierarchy.access(c, addr, is_write);
                    ++out.cacheCalls;
                    push_events(ev);
                    if (ev.llcMiss) {
                        const Addr line = hierarchy.llc().lineAddr(addr);
                        llc_events.push_back(
                            {LlcEvent::Kind::Read, false, line});
                        push_events(hierarchy.fill(c, line, is_write));
                        ++out.cacheCalls;
                    }
                    ++records_done;
                }
            }
            recorder.end(Layer::Cache, batch);

            mem_requests.clear();
            const double progress = static_cast<double>(records_done) /
                                    static_cast<double>(total_records);
            while (monitor && next_epoch < epochs.size() &&
                   epochs[next_epoch].fraction <= progress) {
                if (epochs[next_epoch].refresh)
                    monitor->runSelectiveRefresh();
                else
                    monitor->runDecayTick();
                ++next_epoch;
            }
            for (const LlcEvent &e : llc_events) {
                switch (e.kind) {
                  case LlcEvent::Kind::Read:
                    mem_requests.push_back({memctrl::ReqKind::Read,
                                            pcm::WriteMode::Sets7, e.addr});
                    break;
                  case LlcEvent::Kind::Registration:
                    if (monitor) {
                        monitor->registerLlcWrite(e.addr, e.wasDirty);
                        ++out.registrationCalls;
                    }
                    break;
                  case LlcEvent::Kind::Writeback:
                    mem_requests.push_back(
                        {memctrl::ReqKind::Write,
                         monitor ? monitor->writeModeFor(e.addr)
                                 : cfg.scheme.staticMode,
                         e.addr});
                    break;
                }
            }
            recorder.end(Layer::Policy, batch);

            // Closed loop: a rejected enqueue serves queued work until
            // the request fits (System retries the same way).
            for (const MemRequest &req : mem_requests) {
                while (!enqueue(req)) {
                    if (!mem_queue.step())
                        throw std::runtime_error(
                            "replay: controller refused a request "
                            "with no event pending");
                }
            }
            out.memRequests += mem_requests.size();
            recorder.end(Layer::Memctrl, batch);
            ++batch;
        }
    };

    const Clock::time_point start = Clock::now();
    run_phase(warmup_records);
    stat_root.reset();
    run_phase(window_records);
    recorder.begin();
    mem_queue.run();
    recorder.end(Layer::Memctrl, batch);
    out.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();

    for (const Span &s : recorder.spans()) {
        out.layerSeconds[static_cast<std::size_t>(s.layer)] +=
            std::chrono::duration<double>(s.end - s.start).count();
    }
    out.spans = recorder.spans().size();
    out.records = records_done;
    for (unsigned c = 0; c < cores; ++c)
        out.windowRecords += window_records[c];
    out.llcMisses = statCount(stat_root, "llc.misses");
    out.llcDirtyEvictions = statCount(stat_root, "llc.dirtyEvictions");
    if (monitor)
        out.registrations = statCount(stat_root, "rrm.registrations");
    return out;
}

} // namespace perfbench
