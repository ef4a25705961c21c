/**
 * @file
 * Tests for the binary trace-pack format (trace/trace_pack.hh) and
 * the TraceSource replay modes (trace/source.hh): every mode must
 * yield a byte-identical record stream for the same (profile, seed),
 * including past the end of a replay prefix (fast-forward tail).
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include "trace/generator.hh"
#include "trace/source.hh"
#include "trace/trace_pack.hh"

namespace rrm::trace
{
namespace
{

/** Temp .rtp path unique to the current test. */
std::string
packPath(const std::string &stem)
{
    const ::testing::TestInfo *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    return std::string(::testing::TempDir()) + info->test_suite_name() +
           "." + info->name() + "." + stem + ".rtp";
}

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 std::uint64_t i)
{
    ASSERT_EQ(a.addr, b.addr) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
    ASSERT_EQ(a.gapInstructions, b.gapInstructions) << "record " << i;
}

TEST(TracePack, RoundTripsThroughFile)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Lbm);
    const std::uint64_t seed = 42;
    constexpr std::uint64_t n = 10000;

    const std::string path = packPath("roundtrip");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen, n);
    }

    TracePackReader reader(path);
    EXPECT_EQ(reader.recordCount(), n);
    EXPECT_EQ(reader.header().seed, seed);
    EXPECT_EQ(reader.header().profileName, std::string(profile.name));
    EXPECT_EQ(reader.header().footprintBytes, profile.footprintBytes());

    TraceGenerator ref(profile, seed);
    for (std::uint64_t i = 0; i < n; ++i)
        expectSameRecord(reader.record(i), ref.next(), i);

    std::remove(path.c_str());
}

TEST(TracePack, SourceFastForwardsPastPackEnd)
{
    const BenchmarkProfile &profile =
        benchmarkProfile(Benchmark::GemsFDTD);
    const std::uint64_t seed = 7;
    constexpr std::uint64_t packed = 2000;

    const std::string path = packPath("tail");
    {
        TraceGenerator gen(profile, seed);
        writeTracePack(path, std::string(profile.name), seed, gen,
                       packed);
    }

    // Read well past the pack: the source must splice back onto a
    // live generator with no seam.
    TraceSource src = TraceSource::pack(
        std::make_shared<TracePackReader>(path), profile, seed);
    TraceGenerator ref(profile, seed);
    for (std::uint64_t i = 0; i < 3 * packed; ++i)
        expectSameRecord(src.next(), ref.next(), i);

    std::remove(path.c_str());
}

TEST(TracePack, ReaderRejectsWrongSeed)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Milc);
    const std::string path = packPath("wrongseed");
    {
        TraceGenerator gen(profile, 3);
        writeTracePack(path, std::string(profile.name), 3, gen, 100);
    }
    auto reader = std::make_shared<TracePackReader>(path);
    EXPECT_THROW(TraceSource::pack(reader, profile, 4), FatalError);
    std::remove(path.c_str());
}

TEST(TracePack, ReaderRejectsWrongProfile)
{
    const BenchmarkProfile &milc = benchmarkProfile(Benchmark::Milc);
    const std::string path = packPath("wrongprofile");
    {
        TraceGenerator gen(milc, 3);
        writeTracePack(path, std::string(milc.name), 3, gen, 100);
    }
    auto reader = std::make_shared<TracePackReader>(path);
    EXPECT_THROW(
        TraceSource::pack(reader, benchmarkProfile(Benchmark::Lbm), 3),
        FatalError);
    std::remove(path.c_str());
}

TEST(TracePack, MissingFileIsFatal)
{
    EXPECT_THROW(TracePackReader("/nonexistent/dir/missing.rtp"),
                 FatalError);
}

TEST(TracePack, TruncatedFileIsFatal)
{
    const BenchmarkProfile &profile = benchmarkProfile(Benchmark::Lbm);
    const std::string path = packPath("truncated");
    {
        TraceGenerator gen(profile, 1);
        writeTracePack(path, std::string(profile.name), 1, gen, 1000);
    }
    // Chop the file short of the record count the header promises.
    // The reader must reject it before mapping, naming the file and
    // the expected/actual sizes.
    ASSERT_EQ(truncate(path.c_str(), 64 + 16 * 10), 0);
    try {
        TracePackReader reader(path);
        FAIL() << "truncated pack was accepted";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find(path), std::string::npos) << msg;
        EXPECT_NE(msg.find("1000 records"), std::string::npos) << msg;
        EXPECT_NE(msg.find(std::to_string(64 + 16 * 10)),
                  std::string::npos)
            << msg;
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace rrm::trace
