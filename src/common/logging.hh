/**
 * @file
 * gem5-style status and error reporting.
 *
 * Severity model (mirrors gem5's base/logging.hh):
 *  - panic():  an internal invariant was violated; a simulator bug.
 *              Aborts (throws PanicError so tests can assert on it).
 *  - fatal():  the user asked for something impossible (bad config).
 *              Throws FatalError.
 *  - warn():   something questionable happened but simulation continues.
 *  - inform(): plain status output.
 */

#ifndef RRM_COMMON_LOGGING_HH
#define RRM_COMMON_LOGGING_HH

#include <cstdint>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace rrm
{

/** Error thrown by fatal(): user-caused, unrecoverable condition. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** Error thrown by panic(): internal simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg)
    {}
};

/** Severity of a routed log message. */
enum class LogSeverity : int
{
    Info = 0, ///< inform(): plain status output
    Warn = 1, ///< warn(): questionable but survivable
};

/**
 * Pluggable destination for warn()/inform() messages. The message
 * has no trailing newline and no severity prefix; the sink decides
 * presentation. The default sink writes "info: ..." to stdout and
 * "warn: ..." to stderr, as the simulator always has.
 */
using LogSink = std::function<void(LogSeverity, const std::string &)>;

namespace log_detail
{

/** Concatenate a parameter pack into one message string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

void emitWarn(const std::string &msg);
void emitInform(const std::string &msg);

/** True if `category` has not warned before (and mark it). */
bool shouldWarnOnce(const std::string &category);

/** Forget every warn_once() category (tests). */
void resetWarnOnce();

/**
 * Count one panic, then abort() instead of letting panic() throw when
 * RRM_ABORT_ON_PANIC is set.
 */
void notePanic(const std::string &msg);

/** Count of warnings emitted so far (inspectable from tests). */
std::uint64_t warnCount();

/**
 * Count of panics (failed RRM_ASSERTs included) raised so far in this
 * process; System exports it as checks.totalViolations.
 */
std::uint64_t panicCount();

/** Silence / restore warn+inform output (used by tests and sweeps). */
void setQuiet(bool quiet);

/**
 * Install a log sink for warn()/inform() output; an empty function
 * restores the default stderr/stdout sink. setQuiet() and the
 * severity filter apply before the sink sees anything; warnCount()
 * counts every warn() call regardless.
 */
void setLogSink(LogSink sink);

/**
 * Drop messages below `min` before they reach the sink
 * (Warn silences inform(); warnCount() still counts warn() calls).
 */
void setMinSeverity(LogSeverity min);

} // namespace log_detail

/** Report an internal simulator bug and abort the simulation. */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    const std::string msg =
        "panic: " + log_detail::concat(std::forward<Args>(args)...);
    log_detail::notePanic(msg);
    throw PanicError(msg);
}

/** Report an unrecoverable user error (bad configuration, etc.). */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError(
        "fatal: " + log_detail::concat(std::forward<Args>(args)...));
}

/** Warn about a suspicious but survivable condition. */
template <typename... Args>
void
warn(Args &&...args)
{
    log_detail::emitWarn(log_detail::concat(std::forward<Args>(args)...));
}

/** Emit a normal status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    log_detail::emitInform(log_detail::concat(std::forward<Args>(args)...));
}

/**
 * Warn at most once per `category` for the process lifetime (e.g.
 * per-feature "this configuration is approximate" notes that would
 * otherwise flood a sweep). The category string is prepended to the
 * message.
 */
template <typename... Args>
void
warn_once(const std::string &category, Args &&...args)
{
    if (!log_detail::shouldWarnOnce(category))
        return;
    warn(category, ": ",
         log_detail::concat(std::forward<Args>(args)...));
}

/**
 * The simulator's one contract macro: panic() unless `cond` holds.
 * Always on, in every build type; the detail arguments are only
 * formatted on failure.
 */
#define RRM_ASSERT(cond, ...)                                               \
    do {                                                                    \
        if (!(cond)) {                                                      \
            ::rrm::panic("assertion '", #cond, "' failed at ", __FILE__,    \
                         ":", __LINE__, ": ", ##__VA_ARGS__);               \
        }                                                                   \
    } while (0)

} // namespace rrm

#endif // RRM_COMMON_LOGGING_HH
