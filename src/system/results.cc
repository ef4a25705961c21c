/**
 * @file
 * SimResults JSON export.
 */

#include "results.hh"

#include <sstream>

namespace rrm::sys
{

void
SimResults::toJson(obs::JsonWriter &json) const
{
    json.beginObject();
    json.field("workload", workload);
    json.field("scheme", scheme);
    json.field("windowSeconds", windowSeconds);
    json.field("timeScale", timeScale);

    json.key("instructions");
    json.beginArray();
    for (const auto n : instructions)
        json.value(n);
    json.endArray();
    json.field("totalInstructions", totalInstructions);
    json.key("ipcPerCore");
    json.beginArray();
    for (const auto v : ipcPerCore)
        json.value(v);
    json.endArray();
    json.field("aggregateIpc", aggregateIpc);

    json.field("llcMisses", llcMisses);
    json.field("mpki", mpki);

    json.field("memReads", memReads);
    json.field("demandWrites", demandWrites);
    json.field("fastWrites", fastWrites);
    json.field("slowWrites", slowWrites);
    json.field("fastWriteFraction", fastWriteFraction());
    json.field("rrmFastRefreshes", rrmFastRefreshes);
    json.field("rrmSlowRefreshes", rrmSlowRefreshes);

    json.field("demandWriteRate", demandWriteRate);
    json.field("rrmRefreshRate", rrmRefreshRate);
    json.field("globalRefreshRate", globalRefreshRate);
    json.field("totalWearRate", totalWearRate());
    json.field("lifetimeYears", lifetimeYears);

    json.field("readPower", readPower);
    json.field("demandWritePower", demandWritePower);
    json.field("rrmRefreshPower", rrmRefreshPower);
    json.field("globalRefreshPower", globalRefreshPower);
    json.field("totalPower", totalPower());

    if (!tenants.empty()) {
        json.key("tenants");
        json.beginArray();
        for (const TenantResults &t : tenants) {
            json.beginObject();
            json.field("tenant", t.tenant);
            json.key("cores");
            json.beginArray();
            for (const unsigned c : t.cores)
                json.value(c);
            json.endArray();
            json.field("instructions", t.instructions);
            json.field("ipc", t.ipc);
            json.field("memReads", t.memReads);
            json.field("fastWrites", t.fastWrites);
            json.field("slowWrites", t.slowWrites);
            json.field("fastRefreshes", t.fastRefreshes);
            json.field("slowRefreshes", t.slowRefreshes);
            json.endObject();
        }
        json.endArray();
    }

    if (fault.enabled) {
        json.key("fault");
        json.beginObject();
        json.field("retentionStamps", fault.retentionStamps);
        json.field("retentionViolations", fault.retentionViolations);
        json.field("transientWriteFaults", fault.transientWriteFaults);
        json.field("writeRetries", fault.writeRetries);
        json.field("writesUnrecovered", fault.writesUnrecovered);
        json.field("stuckAtFaults", fault.stuckAtFaults);
        json.field("stuckAtRepaired", fault.stuckAtRepaired);
        json.field("linesRetired", fault.linesRetired);
        json.field("spareExhausted", fault.spareExhausted);
        json.field("refreshDropped", fault.refreshDropped);
        json.field("refreshStalls", fault.refreshStalls);
        json.field("fallbackEntries", fault.fallbackEntries);
        json.field("fallbackExits", fault.fallbackExits);
        json.endObject();
    }

    json.key("rrm");
    json.beginObject();
    json.field("registrations", rrmRegistrations);
    json.field("cleanFiltered", rrmCleanFiltered);
    json.field("registrationHits", rrmRegistrationHits);
    json.field("allocations", rrmAllocations);
    json.field("evictions", rrmEvictions);
    json.field("promotions", rrmPromotions);
    json.field("demotions", rrmDemotions);
    json.field("evictionFlushes", rrmEvictionFlushes);
    json.field("hotEntriesAtEnd", rrmHotEntriesAtEnd);
    json.endObject();

    json.endObject();
}

std::string
SimResults::toJsonString() const
{
    std::ostringstream os;
    obs::JsonWriter json(os, /*pretty=*/true);
    toJson(json);
    os << '\n';
    return os.str();
}

} // namespace rrm::sys
