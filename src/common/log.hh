/**
 * @file
 * Status/error reporting in the gem5 style: panic() for simulator bugs,
 * fatal() for user errors, warn()/inform() for non-fatal conditions.
 * A panic names the source location of the failed check; a fatal error
 * is one line that names the problem in the user's terms.
 */

#ifndef MTP_COMMON_LOG_HH
#define MTP_COMMON_LOG_HH

#include <sstream>
#include <string>

namespace mtp {

/** Verbosity levels for status messages. */
enum class LogLevel { Quiet, Warn, Inform, Debug };

/** Global verbosity; messages above this level are suppressed. */
LogLevel logLevel();

/** Set the global verbosity. */
void setLogLevel(LogLevel level);

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
/** Print "fatal: @p msg" as one stderr line and exit @p status. */
[[noreturn]] void fatalImpl(const std::string &msg, int status = 1);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
void debugImpl(const std::string &msg);

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

/**
 * Abort the simulation due to an internal simulator bug: a condition that
 * should never happen regardless of user input.
 */
#define MTP_PANIC(...) \
    ::mtp::detail::panicImpl(__FILE__, __LINE__, \
                             ::mtp::detail::concat(__VA_ARGS__))

/**
 * Terminate the simulation due to a user error (bad configuration,
 * invalid arguments) — not a simulator bug. Exits 1 after one line.
 */
#define MTP_FATAL(...) \
    ::mtp::detail::fatalImpl(::mtp::detail::concat(__VA_ARGS__))

/** Alert the user to suspicious but non-fatal behaviour. */
#define MTP_WARN(...) \
    ::mtp::detail::warnImpl(::mtp::detail::concat(__VA_ARGS__))

/** Provide normal operating status to the user. */
#define MTP_INFORM(...) \
    ::mtp::detail::informImpl(::mtp::detail::concat(__VA_ARGS__))

/** Development tracing; only shown at LogLevel::Debug. */
#define MTP_DEBUG(...) \
    ::mtp::detail::debugImpl(::mtp::detail::concat(__VA_ARGS__))

/** panic() unless @p cond holds. */
#define MTP_ASSERT(cond, ...) \
    do { \
        if (!(cond)) \
            MTP_PANIC("assertion '", #cond, "' failed: ", \
                      ::mtp::detail::concat(__VA_ARGS__)); \
    } while (0)

/**
 * MTP_SLOW_CHECKS gates O(N) consistency re-scans that cross-check the
 * simulator's incrementally-maintained counters (active-warp counts,
 * scheduler ready sets, drained()-style in-flight totals) against an
 * exhaustive walk of the underlying state. They run every cycle, so
 * they are enabled only in Debug builds (or with -DMTP_SLOW_CHECKS=1)
 * and compiled out of the default RelWithDebInfo build.
 */
#if !defined(MTP_SLOW_CHECKS) && !defined(NDEBUG)
#define MTP_SLOW_CHECKS 1
#endif

} // namespace mtp

#endif // MTP_COMMON_LOG_HH
