/**
 * @file
 * Tenant-sweep reporting implementation.
 */

#include "bench_tenant_report.hh"

#include <cstdio>

#include "common/logging.hh"
#include "trace/benchmark.hh"

namespace rrm::bench
{

void
SoloIpcTable::record(const std::string &benchmark,
                     const std::string &scheme, double ipc)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    ipc_[{benchmark, scheme}] = ipc;
}

double
SoloIpcTable::lookup(const std::string &benchmark,
                     const std::string &scheme) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ipc_.find({benchmark, scheme});
    if (it == ipc_.end()) {
        fatal("no solo baseline recorded for benchmark ", benchmark,
              " under scheme ", scheme);
    }
    return it->second;
}

sys::FairnessReport
fairnessOf(const trace::Workload &workload,
           const sys::SimResults &mixed, const std::string &scheme,
           const SoloIpcTable &solo)
{
    std::vector<double> solo_ipc;
    solo_ipc.reserve(workload.numCores());
    for (const trace::Benchmark b : workload.perCore) {
        const std::string name(trace::benchmarkProfile(b).name);
        solo_ipc.push_back(solo.lookup(name, scheme));
    }
    return sys::computeFairness(mixed.ipcPerCore, workload.tenantOf,
                                solo_ipc);
}

void
printFairnessTable(const std::vector<TenantSweepRow> &rows)
{
    printTitle("Tenant fairness (slowdown = solo IPC / mixed IPC)");
    std::printf("%-22s %-14s %7s %10s %10s %10s %10s\n", "mix",
                "scheme", "tenant", "cores", "ipc", "slowdown",
                "ws");
    for (const TenantSweepRow &row : rows) {
        bool first = true;
        for (const auto &t : row.fairness.tenants) {
            std::printf("%-22s %-14s %7u %10zu %10.3f %10.3f %10.3f\n",
                        first ? row.workload.c_str() : "",
                        first ? row.scheme.c_str() : "", t.tenant,
                        t.cores.size(), t.ipc, t.slowdown,
                        t.weightedSpeedup);
            first = false;
        }
        std::printf("%-22s %-14s %7s %10s %10s %10s %10.3f"
                    "   unfairness %.3f\n",
                    "", "", "", "", "", "total",
                    row.fairness.weightedSpeedup,
                    row.fairness.unfairness);
    }
}

void
writeTenantBenchReport(
    const std::string &path, const std::string &bench_name,
    const BenchOptions &opts,
    const std::vector<trace::Workload> &workloads,
    const std::vector<sys::Scheme> &schemes,
    const std::vector<std::vector<sys::SimResults>> &results,
    const std::vector<sys::SimResults> &solo_results,
    const std::vector<TenantSweepRow> &fairness)
{
    const ReportBody extras = [&](obs::JsonWriter &json) {
        json.key("soloRuns");
        json.beginArray();
        for (const auto &r : solo_results)
            r.toJson(json);
        json.endArray();

        json.key("fairness");
        json.beginArray();
        for (const TenantSweepRow &row : fairness) {
            json.beginObject();
            json.field("workload", row.workload);
            json.field("scheme", row.scheme);
            json.field("weightedSpeedup", row.fairness.weightedSpeedup);
            json.field("unfairness", row.fairness.unfairness);
            json.key("tenants");
            json.beginArray();
            for (const auto &t : row.fairness.tenants) {
                json.beginObject();
                json.field("tenant", t.tenant);
                json.key("cores");
                json.beginArray();
                for (const unsigned c : t.cores)
                    json.value(c);
                json.endArray();
                json.field("ipc", t.ipc);
                json.field("slowdown", t.slowdown);
                json.field("weightedSpeedup", t.weightedSpeedup);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
    };
    writeBenchReport(path, bench_name, opts, workloads, schemes, results,
                     extras);
}

} // namespace rrm::bench
