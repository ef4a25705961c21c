/**
 * @file
 * Crash-safe checkpointing: the .rckpt container (round-trip,
 * corruption detection), the byte-identity contract (a run killed at
 * any published epoch checkpoint and resumed produces the same final
 * run record as the same checkpoint-enabled run left undisturbed),
 * fallback from corrupted/truncated checkpoints to older ones, the
 * SIGKILL-mid-flight path (a forked child killed while simulating),
 * and the SIGINT emergency-checkpoint path. See DESIGN.md section 16.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/ckpt.hh"
#include "common/interrupt.hh"
#include "common/logging.hh"
#include "run/runner.hh"
#include "system/system.hh"

namespace rrm::sys
{
namespace
{

namespace fs = std::filesystem;

// .rckpt framing constants (mirrors src/ckpt/ckpt.cc) used to compute
// per-section payload offsets for targeted corruption.
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8 + 8 + 4;
constexpr std::size_t kSectionFrameSize = 4 + 8 + 4;

/** Fresh empty directory under the system temp dir. */
fs::path
freshDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("rrm_test_ckpt_" + std::to_string(::getpid()) +
                          "_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(is) << "cannot open " << path;
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::vector<std::uint8_t>
slurpBytes(const fs::path &path)
{
    const std::string s = slurp(path);
    return {s.begin(), s.end()};
}

void
writeBytes(const fs::path &path, const std::vector<std::uint8_t> &data)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(reinterpret_cast<const char *>(data.data()),
             static_cast<std::streamsize>(data.size()));
    ASSERT_TRUE(os) << "cannot write " << path;
}

/** Periodic epoch checkpoints in `dir`, oldest first (lexical order). */
std::vector<fs::path>
epochCheckpoints(const fs::path &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() == ".rckpt" &&
            entry.path().filename().string().find("-final") ==
                std::string::npos)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * A checkpoint-enabled config. All byte-identity tests compare runs
 * of THIS config against each other: the contract holds between
 * checkpoint-enabled runs (they quiesce at the same absolute epoch
 * boundaries), not against checkpoint-disabled runs.
 */
SystemConfig
ckptConfig(const std::string &workload, Scheme scheme,
           const fs::path &ckpt_dir, const fs::path &record,
           bool faults)
{
    SystemConfig cfg;
    cfg.workload = trace::workloadFromName(workload);
    cfg.scheme = std::move(scheme);
    cfg.timeScale = 50.0;
    cfg.windowSeconds = 0.024;
    cfg.warmupFraction = 0.25;
    cfg.seed = 1;
    cfg.checkpointEveryEpochs = 1;
    cfg.checkpointDir = ckpt_dir.string();
    cfg.obs.runRecordFile = record.string();
    if (faults) {
        cfg.fault.retentionTracking = true;
        cfg.fault.transientWriteFailureRate = 1e-6;
    }
    return cfg;
}

/**
 * Run the reference (undisturbed, checkpoint-enabled) run and return
 * its run record; `dir` ends up holding every published checkpoint.
 */
std::string
referenceRun(const SystemConfig &cfg)
{
    SystemConfig copy = cfg;
    System system(std::move(copy));
    system.run();
    return slurp(cfg.obs.runRecordFile);
}

/**
 * Resume from whatever `dir` holds and return {record, epoch resumed
 * from}.
 */
std::pair<std::string, std::uint64_t>
resumeRun(const SystemConfig &cfg, const fs::path &dir,
          const fs::path &record)
{
    SystemConfig copy = cfg;
    copy.checkpointDir = dir.string();
    copy.obs.runRecordFile = record.string();
    copy.resumeFromCheckpoint = true;
    System system(std::move(copy));
    system.run();
    return {slurp(record), system.resumedFromEpoch()};
}

class CkptResume : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Pin the run-record timestamp (reproducible-builds
        // convention) so records are comparable byte for byte.
        ::setenv("SOURCE_DATE_EPOCH", "1700000000", 1);
        clearInterruptRequest();
    }
    void TearDown() override { clearInterruptRequest(); }
};

// ---------------------------------------------------------------------
// Container round-trip and corruption detection
// ---------------------------------------------------------------------

TEST(CkptContainer, RoundTripsHeaderAndSections)
{
    ckpt::CkptHeader header;
    header.configFingerprint = 0x1122334455667788ull;
    header.epochIndex = 7;
    header.tick = 123456789;
    ckpt::CkptWriter writer(header);

    ckpt::ChunkWriter a;
    a.u32(42);
    a.str("hello");
    a.f64(2.5);
    writer.section(ckpt::sectionId('T', 'S', 'T', 'A'), a);
    ckpt::ChunkWriter b;
    b.u64(99);
    b.b(true);
    writer.section(ckpt::sectionId('T', 'S', 'T', 'B'), b);

    const ckpt::CkptReader reader(writer.serialize(), "mem");
    EXPECT_EQ(reader.header().configFingerprint,
              header.configFingerprint);
    EXPECT_EQ(reader.header().epochIndex, 7u);
    EXPECT_EQ(reader.header().tick, 123456789u);
    ASSERT_EQ(reader.sectionIds().size(), 2u);

    ckpt::ChunkReader ra =
        reader.section(ckpt::sectionId('T', 'S', 'T', 'A'));
    EXPECT_EQ(ra.u32(), 42u);
    EXPECT_EQ(ra.str(), "hello");
    EXPECT_DOUBLE_EQ(ra.f64(), 2.5);
    ra.expectDone();

    ckpt::ChunkReader rb =
        reader.section(ckpt::sectionId('T', 'S', 'T', 'B'));
    EXPECT_EQ(rb.u64(), 99u);
    EXPECT_TRUE(rb.b());
    rb.expectDone();

    EXPECT_THROW(reader.section(ckpt::sectionId('N', 'O', 'P', 'E')),
                 ckpt::CkptError);
    EXPECT_THROW(ra.u8(), ckpt::CkptError); // past the end
}

TEST(CkptContainer, EverySingleByteFlipIsDetected)
{
    ckpt::CkptHeader header;
    header.configFingerprint = 0xABCDabcd12345678ull;
    header.epochIndex = 3;
    header.tick = 1000;
    ckpt::CkptWriter writer(header);
    ckpt::ChunkWriter payload;
    for (int i = 0; i < 16; ++i)
        payload.u32(static_cast<std::uint32_t>(i * 7));
    writer.section(ckpt::sectionId('T', 'S', 'T', 'A'), payload);
    const std::vector<std::uint8_t> good = writer.serialize();

    // CRCs cover the header, every payload, and the whole file: no
    // single-byte flip anywhere can go unnoticed.
    for (std::size_t i = 0; i < good.size(); ++i) {
        std::vector<std::uint8_t> bad = good;
        bad[i] ^= 0x01;
        EXPECT_THROW(ckpt::CkptReader(std::move(bad), "flipped"),
                     ckpt::CkptError)
            << "flip at byte " << i << " was accepted";
    }
}

TEST(CkptContainer, TruncationAtEveryLengthIsDetected)
{
    ckpt::CkptHeader header;
    ckpt::CkptWriter writer(header);
    ckpt::ChunkWriter payload;
    payload.u64(7);
    writer.section(ckpt::sectionId('T', 'S', 'T', 'A'), payload);
    const std::vector<std::uint8_t> good = writer.serialize();

    for (std::size_t len = 0; len < good.size(); ++len) {
        std::vector<std::uint8_t> cut(good.begin(),
                                      good.begin() + len);
        EXPECT_THROW(ckpt::CkptReader(std::move(cut), "cut"),
                     ckpt::CkptError)
            << "truncation to " << len << " bytes was accepted";
    }
}

TEST(CkptContainer, OlderFormatVersionIsRefusedByName)
{
    ckpt::CkptHeader header;
    ckpt::CkptWriter writer(header);
    ckpt::ChunkWriter payload;
    payload.u64(7);
    writer.section(ckpt::sectionId('T', 'S', 'T', 'A'), payload);
    const std::vector<std::uint8_t> current = writer.serialize();

    // Version 1 predates the CACH access-counter removal, version 2
    // the FLT0 Start-Gap and POLI throttle-counter removals.
    for (const std::uint32_t version : {1u, 2u}) {
        // Rewrite it as an intact older file: patch the version word
        // and re-seal the header and whole-file CRCs, so the version
        // check is the only thing left to object.
        std::vector<std::uint8_t> old = current;
        const auto put32 = [&](std::size_t at, std::uint32_t v) {
            for (int i = 0; i < 4; ++i)
                old[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
        };
        put32(8, version);
        put32(kHeaderSize - 4, ckpt::crc32(old.data(), kHeaderSize - 4));
        const std::size_t trailerAt = old.size() - 8;
        put32(trailerAt, ckpt::crc32(old.data(), trailerAt));

        const fs::path dir = freshDir("old_version");
        const fs::path path = dir / "ckpt-00000001.rckpt";
        {
            std::ofstream os(path, std::ios::binary);
            os.write(reinterpret_cast<const char *>(old.data()),
                     static_cast<std::streamsize>(old.size()));
        }
        try {
            ckpt::CkptReader reader(path.string());
            ADD_FAILURE() << "a version-" << version
                          << " checkpoint was accepted";
        } catch (const ckpt::CkptError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find(path.string()), std::string::npos) << msg;
            EXPECT_NE(msg.find("format version mismatch (file has " +
                               std::to_string(version) +
                               ", this build reads 3)"),
                      std::string::npos)
                << msg;
        }
        fs::remove_all(dir);
    }
}

// ---------------------------------------------------------------------
// Config validation
// ---------------------------------------------------------------------

TEST_F(CkptResume, ConfigValidationRejectsInconsistentCheckpointing)
{
    const fs::path dir = freshDir("validate");
    SystemConfig cfg = ckptConfig(
        "lbm", Scheme::staticScheme(pcm::WriteMode::Sets7), dir,
        dir / "rec.json", /*faults=*/false);

    cfg.checkpointDir.clear(); // every > 0 but nowhere to publish
    EXPECT_THROW(System{std::move(cfg)}, FatalError);

    cfg = ckptConfig("lbm", Scheme::staticScheme(pcm::WriteMode::Sets7),
                     dir, dir / "rec.json", false);
    cfg.checkpointEveryEpochs = 0;
    cfg.resumeFromCheckpoint = true; // resume without a cadence
    EXPECT_THROW(System{std::move(cfg)}, FatalError);
}

// ---------------------------------------------------------------------
// Byte-identity: resume from each published epoch equals the
// undisturbed reference, for every scheme family (with faults on).
// ---------------------------------------------------------------------

struct SchemeCase
{
    const char *label;
    Scheme scheme;
};

class CkptResumePerScheme
    : public CkptResume,
      public ::testing::WithParamInterface<int>
{
  protected:
    static SchemeCase scheme()
    {
        switch (GetParam()) {
        case 0:
            return {"static7",
                    Scheme::staticScheme(pcm::WriteMode::Sets7)};
        case 1:
            return {"rrm", Scheme::rrmScheme()};
        default:
            return {"adaptive", Scheme::adaptiveRrmScheme()};
        }
    }
};

TEST_P(CkptResumePerScheme, ResumeFromEveryEpochIsByteIdentical)
{
    const SchemeCase sc = scheme();
    const fs::path ref_dir =
        freshDir(std::string("identity_ref_") + sc.label);
    const SystemConfig cfg =
        ckptConfig("lbm", sc.scheme, ref_dir, ref_dir / "rec.json",
                   /*faults=*/true);
    const std::string ref_record = referenceRun(cfg);

    const std::vector<fs::path> ckpts = epochCheckpoints(ref_dir);
    ASSERT_GE(ckpts.size(), 3u)
        << "window too short to publish three checkpoints";

    // "Killed after epoch k": a directory holding exactly the files a
    // run killed at that point would have left behind, for an early,
    // a middle, and the last epoch.
    const std::size_t picks[] = {1, ckpts.size() / 2 + 1, ckpts.size()};
    for (const std::size_t keep : picks) {
        const fs::path dir = freshDir(std::string("identity_") +
                                      sc.label + "_" +
                                      std::to_string(keep));
        for (std::size_t i = 0; i < keep; ++i)
            fs::copy_file(ckpts[i], dir / ckpts[i].filename());
        const auto [record, epoch] =
            resumeRun(cfg, dir, dir / "rec.json");
        EXPECT_GT(epoch, 0u) << "resume fell back to a cold start";
        EXPECT_EQ(record, ref_record)
            << sc.label << ": resume from epoch " << epoch
            << " diverged from the reference run";
    }
}

INSTANTIATE_TEST_SUITE_P(Schemes, CkptResumePerScheme,
                         ::testing::Values(0, 1, 2));

// ---------------------------------------------------------------------
// Corruption fallback
// ---------------------------------------------------------------------

TEST_F(CkptResume, FlippingOneByteInEachSectionInvalidatesTheFile)
{
    const fs::path dir = freshDir("flip_sections");
    const SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), dir, dir / "rec.json",
                   /*faults=*/true);
    referenceRun(cfg);
    const std::vector<fs::path> ckpts = epochCheckpoints(dir);
    ASSERT_GE(ckpts.size(), 1u);

    const std::vector<std::uint8_t> good = slurpBytes(ckpts.back());
    const ckpt::CkptReader reader(ckpts.back().string());

    // Walk the frames to find each payload, flip its middle byte, and
    // check the loader rejects the file every time.
    std::size_t offset = kHeaderSize;
    for (const std::uint32_t id : reader.sectionIds()) {
        const std::size_t size = reader.sectionSize(id);
        const std::size_t payload_at = offset + kSectionFrameSize;
        ASSERT_LE(payload_at + size, good.size());
        if (size > 0) {
            std::vector<std::uint8_t> bad = good;
            bad[payload_at + size / 2] ^= 0xFF;
            const fs::path bad_path = dir / "corrupt.rckpt.probe";
            writeBytes(bad_path, bad);
            const std::string why =
                ckpt::CkptReader::validateFile(bad_path.string());
            EXPECT_FALSE(why.empty())
                << "flip inside section " << ckpt::sectionName(id)
                << " was accepted";
        }
        offset = payload_at + size;
    }
}

TEST_F(CkptResume, CorruptNewestFallsBackToPreviousCheckpoint)
{
    const fs::path ref_dir = freshDir("fallback_ref");
    const SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), ref_dir,
                   ref_dir / "rec.json", /*faults=*/true);
    const std::string ref_record = referenceRun(cfg);
    const std::vector<fs::path> ckpts = epochCheckpoints(ref_dir);
    ASSERT_GE(ckpts.size(), 2u);

    // Newest checkpoint corrupted in place: resume must skip it with
    // a warning and restore the previous one — still byte-identical.
    const fs::path dir = freshDir("fallback_corrupt");
    for (const fs::path &p : ckpts)
        fs::copy_file(p, dir / p.filename());
    std::vector<std::uint8_t> bytes =
        slurpBytes(dir / ckpts.back().filename());
    bytes[bytes.size() / 2] ^= 0xFF;
    writeBytes(dir / ckpts.back().filename(), bytes);

    const auto [record, epoch] = resumeRun(cfg, dir, dir / "rec.json");
    const ckpt::CkptReader prev(ckpts[ckpts.size() - 2].string());
    EXPECT_EQ(epoch, prev.header().epochIndex);
    EXPECT_EQ(record, ref_record);
}

TEST_F(CkptResume, TruncatedNewestFallsBackToPreviousCheckpoint)
{
    const fs::path ref_dir = freshDir("truncate_ref");
    const SystemConfig cfg = ckptConfig(
        "lbm", Scheme::staticScheme(pcm::WriteMode::Sets7), ref_dir,
        ref_dir / "rec.json", /*faults=*/false);
    const std::string ref_record = referenceRun(cfg);
    const std::vector<fs::path> ckpts = epochCheckpoints(ref_dir);
    ASSERT_GE(ckpts.size(), 2u);

    const fs::path dir = freshDir("truncate");
    for (const fs::path &p : ckpts)
        fs::copy_file(p, dir / p.filename());
    const fs::path newest = dir / ckpts.back().filename();
    fs::resize_file(newest, fs::file_size(newest) / 2);

    const auto [record, epoch] = resumeRun(cfg, dir, dir / "rec.json");
    const ckpt::CkptReader prev(ckpts[ckpts.size() - 2].string());
    EXPECT_EQ(epoch, prev.header().epochIndex);
    EXPECT_EQ(record, ref_record);
}

TEST_F(CkptResume, AllCheckpointsCorruptMeansCleanColdStart)
{
    const fs::path ref_dir = freshDir("cold_ref");
    const SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), ref_dir,
                   ref_dir / "rec.json", /*faults=*/false);
    const std::string ref_record = referenceRun(cfg);
    const std::vector<fs::path> ckpts = epochCheckpoints(ref_dir);
    ASSERT_GE(ckpts.size(), 1u);

    const fs::path dir = freshDir("cold");
    std::vector<std::uint8_t> bytes = slurpBytes(ckpts.back());
    bytes[bytes.size() / 3] ^= 0xFF;
    writeBytes(dir / ckpts.back().filename(), bytes);

    const auto [record, epoch] = resumeRun(cfg, dir, dir / "rec.json");
    EXPECT_EQ(epoch, 0u); // cold start
    EXPECT_EQ(record, ref_record);
}

TEST_F(CkptResume, FingerprintMismatchIsRejected)
{
    const fs::path ref_dir = freshDir("fp_ref");
    const SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), ref_dir,
                   ref_dir / "rec.json", /*faults=*/false);
    referenceRun(cfg);
    ASSERT_GE(epochCheckpoints(ref_dir).size(), 1u);

    // Same checkpoint directory, different seed: a different run.
    // Resume must refuse the foreign checkpoints and start cold.
    SystemConfig other = cfg;
    other.seed = 2;
    const fs::path rec = ref_dir / "rec_other.json";
    const auto [record, epoch] = resumeRun(other, ref_dir, rec);
    (void)record;
    EXPECT_EQ(epoch, 0u);
}

// ---------------------------------------------------------------------
// SIGKILL mid-flight: a forked child is killed while simulating; the
// parent resumes from whatever the child managed to publish.
// ---------------------------------------------------------------------

TEST_F(CkptResume, KilledChildResumesByteIdentical)
{
    const fs::path ref_dir = freshDir("kill_ref");
    const SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), ref_dir,
                   ref_dir / "rec.json", /*faults=*/true);
    const std::string ref_record = referenceRun(cfg);
    const std::size_t total = epochCheckpoints(ref_dir).size();
    ASSERT_GE(total, 3u);

    // Kill after the 1st, 2nd, and 3rd published checkpoint.
    for (const std::size_t target : {std::size_t{1}, std::size_t{2},
                                     std::size_t{3}}) {
        const fs::path dir =
            freshDir("kill_" + std::to_string(target));
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0) << "fork failed";
        if (pid == 0) {
            // Child: simulate until killed. _exit on any outcome so
            // gtest never runs twice.
            try {
                SystemConfig child_cfg = cfg;
                child_cfg.checkpointDir = dir.string();
                child_cfg.obs.runRecordFile =
                    (dir / "rec.json").string();
                System system(std::move(child_cfg));
                system.run();
            } catch (...) {
            }
            ::_exit(0);
        }

        // Parent: wait for the target number of published checkpoints
        // (bounded), then SIGKILL — no destructors, no atexit, the
        // closest in-process approximation of a crash.
        for (int spin = 0; spin < 100000; ++spin) {
            if (epochCheckpoints(dir).size() >= target)
                break;
            int status = 0;
            if (::waitpid(pid, &status, WNOHANG) == pid)
                break; // finished before we could kill it
            ::usleep(200);
        }
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        ASSERT_GE(epochCheckpoints(dir).size(), 1u)
            << "child was killed before publishing anything";

        const auto [record, epoch] =
            resumeRun(cfg, dir, dir / "resumed.json");
        EXPECT_GT(epoch, 0u);
        EXPECT_EQ(record, ref_record)
            << "resume after SIGKILL at checkpoint " << target
            << " diverged";
    }
}

// ---------------------------------------------------------------------
// Graceful interrupt: emergency checkpoint + Runner statuses
// ---------------------------------------------------------------------

TEST_F(CkptResume, InterruptWritesValidEmergencyCheckpoint)
{
    const fs::path dir = freshDir("interrupt");
    SystemConfig cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), dir, dir / "rec.json",
                   /*faults=*/false);

    requestInterrupt();
    System system(std::move(cfg));
    EXPECT_THROW(system.run(), SimInterruptedError);
    clearInterruptRequest();

    // A -final.rckpt must exist and validate cleanly.
    std::vector<fs::path> finals;
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().filename().string().find("-final.rckpt") !=
            std::string::npos)
            finals.push_back(entry.path());
    }
    ASSERT_EQ(finals.size(), 1u);
    EXPECT_EQ(ckpt::CkptReader::validateFile(finals[0].string()), "");

    // An emergency checkpoint is best-effort (arbitrary quiesce
    // point), so no byte-identity claim — but the resumed run must
    // complete and produce a record.
    SystemConfig resume_cfg =
        ckptConfig("lbm", Scheme::rrmScheme(), dir,
                   dir / "resumed.json", /*faults=*/false);
    resume_cfg.resumeFromCheckpoint = true;
    System resumed(std::move(resume_cfg));
    const SimResults r = resumed.run();
    EXPECT_GT(r.totalInstructions, 0u);
    EXPECT_FALSE(slurp(dir / "resumed.json").empty());
}

TEST_F(CkptResume, RunnerCancelsCleanlyWhenInterruptedBeforeStart)
{
    run::RunPlan plan;
    {
        const fs::path dir = freshDir("runner_cancel");
        plan.add(ckptConfig("lbm",
                            Scheme::staticScheme(pcm::WriteMode::Sets7),
                            dir, dir / "rec.json", false));
    }
    requestInterrupt();
    run::RunnerOptions opts;
    opts.jobs = 1;
    const run::RunReport report = run::Runner(opts).execute(plan);
    clearInterruptRequest();
    ASSERT_EQ(report.runs.size(), 1u);
    EXPECT_EQ(report.runs[0].status, run::RunStatus::Cancelled);
    EXPECT_EQ(report.interruptedCount(), 0u);
}

TEST(RunStatusNames, InterruptedHasAName)
{
    EXPECT_EQ(
        std::string(run::runStatusName(run::RunStatus::Interrupted)),
        "interrupted");
}

} // namespace
} // namespace rrm::sys
