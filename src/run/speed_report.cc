/**
 * @file
 * Speed-report writer implementation.
 */

#include "speed_report.hh"

#include "obs/json.hh"
#include "obs/run_record.hh"

namespace rrm::run
{

std::uint64_t
eventsExecuted(const RunResult &run)
{
    return run.status == RunStatus::Ok ? run.results.eventsExecuted : 0;
}

double
eventsPerSecond(const RunResult &run)
{
    return run.wallSeconds > 0.0
               ? static_cast<double>(eventsExecuted(run)) / run.wallSeconds
               : 0.0;
}

void
writeSpeedReport(std::ostream &os, const std::string &bench_name,
                 const RunReport &report)
{
    obs::JsonWriter json(os, /*pretty=*/true);
    json.beginObject();
    json.field("schemaVersion", speedReportSchemaVersion);
    json.field("bench", bench_name);
    json.key("metadata");
    obs::writeRunMetadata(json, obs::currentRunMetadata());

    std::uint64_t total_events = 0;
    json.key("runs");
    json.beginArray();
    for (const RunResult &run : report.runs) {
        const std::uint64_t events = eventsExecuted(run);
        json.beginObject();
        json.field("id", run.id);
        json.field("status", runStatusName(run.status));
        json.field("eventsExecuted", events);
        json.field("wallSeconds", run.wallSeconds);
        json.field("eventsPerSecond", eventsPerSecond(run));
        json.endObject();
        total_events += events;
    }
    json.endArray();

    json.key("totals");
    json.beginObject();
    json.field("eventsExecuted", total_events);
    json.field("wallSeconds", report.wallSeconds);
    json.field("eventsPerSecond",
               report.wallSeconds > 0.0
                   ? static_cast<double>(total_events) /
                         report.wallSeconds
                   : 0.0);
    json.endObject();

    json.endObject();
    os << '\n';
}

} // namespace rrm::run
