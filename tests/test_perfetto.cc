/**
 * @file
 * Perfetto (Chrome trace JSON) exporter tests: the exact bytes
 * produced for each branch of the track taxonomy — channel service
 * spans, queue counters, decay-epoch synthesis from sampler events,
 * and category instants — plus trailer idempotence and the
 * TraceSink::finishWriter() end-of-run path.
 *
 * The golden string is deliberately exact: timestamps are simulated
 * time, so the exporter's output is part of the determinism surface
 * (two seeded runs must export byte-identical timelines).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/units.hh"
#include "obs/perfetto.hh"
#include "obs/trace.hh"

namespace rrm::obs
{
namespace
{

TraceEvent
ev(Tick tick_us, TraceCategory cat, const char *name,
   TraceEvent::Field f0 = {}, TraceEvent::Field f1 = {},
   TraceEvent::Field f2 = {})
{
    return makeTraceEvent(tick_us * tickPerUs, cat, name, f0, f1, f2);
}

TEST(Perfetto, GoldenTimelineCoversEveryTrackType)
{
    std::ostringstream os;
    {
        PerfettoTraceWriter w(os);
        // Channel busy window: complete slice with issue-time duration.
        w.write(ev(1, TraceCategory::Queue, "readService",
                   {"channel", 0.0}, {"bank", 3.0},
                   {"dur", 2.0 * static_cast<double>(tickPerUs)}));
        // Queue occupancy counter series.
        w.write(ev(3, TraceCategory::Queue, "readEnq",
                   {"channel", 0.0}, {"readQ", 2.0}, {"writeQ", 1.0}));
        // Two sampler events bound one settled decay epoch.
        w.write(ev(4, TraceCategory::Sampler, "sample", {"epoch", 1.0}));
        w.write(ev(6, TraceCategory::Sampler, "sample", {"epoch", 2.0}));
        // Everything else: a thread-scoped instant per category.
        w.write(ev(7, TraceCategory::Refresh, "drainStart",
                   {"lines", 5.0}));
        w.finish();
    }
    EXPECT_EQ(
        os.str(),
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
        "\"args\":{\"name\":\"rrm-sim\"}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":100,"
        "\"args\":{\"name\":\"channel0 busy\"}},\n"
        "{\"name\":\"readService\",\"cat\":\"queue\",\"ph\":\"X\","
        "\"ts\":1,\"pid\":1,\"tid\":100,\"dur\":2,"
        "\"args\":{\"channel\":0,\"bank\":3,\"dur\":2000000}},\n"
        "{\"name\":\"ch0 queues\",\"cat\":\"queue\",\"ph\":\"C\","
        "\"ts\":3,\"pid\":1,\"args\":{\"readQ\":2,\"writeQ\":1}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":20,"
        "\"args\":{\"name\":\"decay epochs\"}},\n"
        "{\"name\":\"epoch\",\"cat\":\"sampler\",\"ph\":\"X\","
        "\"ts\":4,\"pid\":1,\"tid\":20,\"dur\":2,"
        "\"args\":{\"epoch\":2}},\n"
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":11,"
        "\"args\":{\"name\":\"refresh\"}},\n"
        "{\"name\":\"drainStart\",\"cat\":\"refresh\",\"ph\":\"i\","
        "\"ts\":7,\"pid\":1,\"tid\":11,\"s\":\"t\","
        "\"args\":{\"lines\":5}}\n"
        "]}\n");
}

TEST(Perfetto, EmptyStreamIsStillValidJson)
{
    std::ostringstream os;
    {
        PerfettoTraceWriter w(os);
        w.finish();
    }
    EXPECT_EQ(os.str(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
}

TEST(Perfetto, FinishIsIdempotentAndDropsLaterEvents)
{
    std::ostringstream os;
    PerfettoTraceWriter w(os);
    w.finish();
    const std::string after_first = os.str();
    w.finish(); // trailer must not repeat
    w.write(ev(1, TraceCategory::Refresh, "late"));
    EXPECT_EQ(os.str(), after_first);
}

TEST(Perfetto, DestructorFinishesUnfinishedStreams)
{
    std::ostringstream os;
    {
        PerfettoTraceWriter w(os);
        w.write(ev(2, TraceCategory::Fault, "retry", {"n", 1.0}));
    }
    const std::string text = os.str();
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
}

TEST(Perfetto, SinkFinishWriterFlushesRingAndWritesTrailer)
{
    std::ostringstream os;
    TraceSink sink(/*capacity=*/16);
    // Buffered before a writer exists; attached writer gets the ring.
    sink.record(ev(5, TraceCategory::Fault, "lineRetired",
                   {"from", 1.0}, {"to", 2.0}));
    sink.setWriter(std::make_unique<PerfettoTraceWriter>(os));
    sink.finishWriter();
    const std::string text = os.str();
    EXPECT_NE(text.find("\"lineRetired\""), std::string::npos);
    EXPECT_NE(text.find("\"cat\":\"fault\""), std::string::npos);
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
}

} // namespace
} // namespace rrm::obs
