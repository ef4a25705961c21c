/**
 * @file
 * Tests for the logging / error-reporting primitives.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace rrm
{
namespace
{

/**
 * Captures warn()/inform() output for one test and restores the
 * default sink, severity filter, and warn-once state afterwards.
 */
class CapturedLog
{
  public:
    CapturedLog()
    {
        log_detail::setLogSink(
            [this](LogSeverity sev, const std::string &msg) {
                messages_.emplace_back(sev, msg);
            });
    }

    ~CapturedLog()
    {
        log_detail::setLogSink({});
        log_detail::setMinSeverity(LogSeverity::Info);
        log_detail::resetWarnOnce();
    }

    const std::vector<std::pair<LogSeverity, std::string>> &
    messages() const
    {
        return messages_;
    }

  private:
    std::vector<std::pair<LogSeverity, std::string>> messages_;
};

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
}

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("bug"), PanicError);
}

TEST(Logging, FatalMessageIsPrefixedAndConcatenated)
{
    try {
        fatal("value ", 42, " is ", "bad");
        FAIL() << "fatal() returned";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value 42 is bad");
    }
}

TEST(Logging, PanicMessageIsPrefixed)
{
    try {
        panic("x=", 1.5);
        FAIL() << "panic() returned";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "panic: x=1.5");
    }
}

TEST(Logging, WarnIncrementsCounter)
{
    log_detail::setQuiet(true);
    const auto before = log_detail::warnCount();
    warn("something odd: ", 7);
    warn("again");
    EXPECT_EQ(log_detail::warnCount(), before + 2);
    log_detail::setQuiet(false);
}

TEST(Logging, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(RRM_ASSERT(1 + 1 == 2, "math works"));
}

TEST(Logging, AssertPanicsOnFalse)
{
    EXPECT_THROW(RRM_ASSERT(false, "expected failure"), PanicError);
}

TEST(Logging, AssertMessageNamesCondition)
{
    try {
        RRM_ASSERT(2 < 1, "two below one");
        FAIL() << "assert passed";
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2 < 1"), std::string::npos);
        EXPECT_NE(msg.find("two below one"), std::string::npos);
    }
}

TEST(Logging, AssertMessageNamesExpressionFileAndDetail)
{
    try {
        RRM_ASSERT(2 + 2 == 5, "arithmetic is broken");
        FAIL() << "RRM_ASSERT did not throw";
    } catch (const PanicError &e) {
        const std::string msg = e.what();
        EXPECT_EQ(msg.rfind("panic: assertion '2 + 2 == 5' failed at ", 0),
                  0u)
            << msg;
        EXPECT_NE(msg.find("test_logging.cc:"), std::string::npos) << msg;
        EXPECT_NE(msg.find(": arithmetic is broken"), std::string::npos)
            << msg;
    }
}

TEST(Logging, AssertStreamsDetailArguments)
{
    const int got = 7;
    try {
        RRM_ASSERT(got == 3, "got ", got, " expected ", 3);
        FAIL() << "RRM_ASSERT did not throw";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("got 7 expected 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Logging, PassingAssertDoesNotCountAPanic)
{
    const auto before = log_detail::panicCount();
    int evaluations = 0;
    const auto holds = [&evaluations] {
        ++evaluations;
        return true;
    };
    RRM_ASSERT(holds(), "never shown");
    EXPECT_EQ(evaluations, 1);
    EXPECT_EQ(log_detail::panicCount(), before);
}

TEST(Logging, PanicCountCountsEveryFailedAssert)
{
    const auto before = log_detail::panicCount();
    EXPECT_THROW(RRM_ASSERT(false), PanicError);
    EXPECT_THROW(RRM_ASSERT(false, "second"), PanicError);
    EXPECT_THROW(panic("direct"), PanicError);
    EXPECT_EQ(log_detail::panicCount(), before + 3);
}

TEST(LoggingDeathTest, AbortOnPanicEnvAborts)
{
    // The variable is set in the death-test child only.
    EXPECT_DEATH(
        {
            ::setenv("RRM_ABORT_ON_PANIC", "1", 1);
            RRM_ASSERT(false, "fatal contract");
        },
        "fatal contract");
}

TEST(Logging, SinkReceivesWarnAndInform)
{
    CapturedLog log;
    inform("status ", 1);
    warn("trouble ", 2);

    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[0].first, LogSeverity::Info);
    EXPECT_EQ(log.messages()[0].second, "status 1");
    EXPECT_EQ(log.messages()[1].first, LogSeverity::Warn);
    EXPECT_EQ(log.messages()[1].second, "trouble 2");
}

TEST(Logging, MinSeverityFiltersBeforeTheSink)
{
    CapturedLog log;
    log_detail::setMinSeverity(LogSeverity::Warn);
    const auto before = log_detail::warnCount();
    inform("dropped");
    warn("kept");

    ASSERT_EQ(log.messages().size(), 1u);
    EXPECT_EQ(log.messages()[0].second, "kept");
    // The counter still counts warns even when they are filtered out.
    log_detail::setQuiet(true);
    warn("quiet but counted");
    log_detail::setQuiet(false);
    EXPECT_EQ(log_detail::warnCount(), before + 2);
}

TEST(Logging, WarnOnceEmitsOncePerCategory)
{
    CapturedLog log;
    warn_once("featureX", "approximate model");
    warn_once("featureX", "approximate model");
    warn_once("featureY", "other note");

    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[0].second, "featureX: approximate model");
    EXPECT_EQ(log.messages()[1].second, "featureY: other note");
}

TEST(Logging, ResetWarnOnceForgetsCategories)
{
    CapturedLog log;
    warn_once("cat", "first");
    log_detail::resetWarnOnce();
    warn_once("cat", "second");
    ASSERT_EQ(log.messages().size(), 2u);
    EXPECT_EQ(log.messages()[1].second, "cat: second");
}

TEST(Logging, EmptySinkRestoresDefaultWithoutCrashing)
{
    log_detail::setLogSink({});
    log_detail::setQuiet(true);
    EXPECT_NO_THROW(warn("to the default sink"));
    log_detail::setQuiet(false);
}

} // namespace
} // namespace rrm
