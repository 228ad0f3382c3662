#include "common/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace mtp {

namespace {

// The parallel driver logs from worker threads concurrently; keep the
// level a relaxed atomic and emit each message with one fwrite so lines
// from different threads never interleave (POSIX locks stream writes,
// and a single write is all-or-nothing even on other platforms).
std::atomic<LogLevel> globalLevel{LogLevel::Warn};

void
writeLine(const char *tag, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 16);
    line += tag;
    line += msg;
    line += '\n';
    std::fwrite(line.data(), 1, line.size(), stderr);
    std::fflush(stderr);
}

} // namespace

LogLevel
logLevel()
{
    return globalLevel.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    globalLevel.store(level, std::memory_order_relaxed);
}

namespace detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    writeLine("panic: ",
              msg + "\n  @ " + file + ":" + std::to_string(line));
    std::abort();
}

void
fatalImpl(const std::string &msg, int status)
{
    writeLine("fatal: ", msg);
    std::exit(status);
}

void
warnImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Warn)
        writeLine("warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Inform)
        writeLine("info: ", msg);
}

void
debugImpl(const std::string &msg)
{
    if (logLevel() >= LogLevel::Debug)
        writeLine("debug: ", msg);
}

} // namespace detail

} // namespace mtp
