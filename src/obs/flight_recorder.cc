#include "obs/flight_recorder.hh"

#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/json_writer.hh"
#include "obs/host_profiler.hh"

namespace mtp {
namespace obs {

namespace {

// Gauge pool. Slot lifecycle: kFree -CAS-> kClaimed (owner writes the
// name) -release-> kLive. Readers only look at kLive slots, so they
// never observe a half-written name; the name chars are relaxed
// atomics anyway so a release/re-acquire race is at worst a garbled
// diagnostic label, never a data race.
constexpr int kFree = 0, kClaimed = 1, kLive = 2;
constexpr int kGaugeNameLen = 48;

struct GaugeSlot
{
    std::atomic<int> state{kFree};
    std::atomic<char> name[kGaugeNameLen] = {};
    std::atomic<std::uint64_t> value{0};
};

GaugeSlot g_gauges[FlightRecorder::kGaugeSlots];

void
readGaugeName(const GaugeSlot &slot, char out[kGaugeNameLen])
{
    for (int i = 0; i < kGaugeNameLen; ++i)
        out[i] = slot.name[i].load(std::memory_order_relaxed);
    out[kGaugeNameLen - 1] = '\0';
}

} // namespace

std::atomic<std::uint64_t> FlightRecorder::beats_{0};

void
FlightRecorder::Gauge::set(std::uint64_t v) const
{
    if (idx_ >= 0)
        g_gauges[idx_].value.store(v, std::memory_order_relaxed);
}

void
FlightRecorder::Gauge::add(std::uint64_t delta) const
{
    if (idx_ >= 0)
        g_gauges[idx_].value.fetch_add(delta, std::memory_order_relaxed);
}

FlightRecorder::Gauge
FlightRecorder::acquireGauge(const std::string &name)
{
    for (int i = 0; i < kGaugeSlots; ++i) {
        int expected = kFree;
        if (!g_gauges[i].state.compare_exchange_strong(
                expected, kClaimed, std::memory_order_acquire))
            continue;
        GaugeSlot &slot = g_gauges[i];
        int len = static_cast<int>(name.size());
        if (len > kGaugeNameLen - 1)
            len = kGaugeNameLen - 1;
        for (int k = 0; k < len; ++k)
            slot.name[k].store(name[static_cast<std::size_t>(k)],
                               std::memory_order_relaxed);
        slot.name[len].store('\0', std::memory_order_relaxed);
        slot.value.store(0, std::memory_order_relaxed);
        slot.state.store(kLive, std::memory_order_release);
        return Gauge(i);
    }
    return Gauge(); // pool exhausted: inert handle
}

void
FlightRecorder::releaseGauge(Gauge &g)
{
    if (g.idx_ >= 0)
        g_gauges[g.idx_].state.store(kFree, std::memory_order_release);
    g.idx_ = -1;
}

void
FlightRecorder::dump(int fd)
{
    using detail::writeFd;
    using detail::writeFdU64;
    writeFd(fd, "  beats=");
    writeFdU64(fd, beats());
    writeFd(fd, "\n");
    for (int i = 0; i < kGaugeSlots; ++i) {
        if (g_gauges[i].state.load(std::memory_order_acquire) != kLive)
            continue;
        char name[kGaugeNameLen];
        readGaugeName(g_gauges[i], name);
        writeFd(fd, "  gauge ");
        writeFd(fd, name);
        writeFd(fd, "=");
        writeFdU64(fd,
                   g_gauges[i].value.load(std::memory_order_relaxed));
        writeFd(fd, "\n");
    }
}

void
FlightRecorder::dumpJsonl(std::FILE *f, const char *reason)
{
    std::string out;
    json::Writer(out, json::Layout::Compact)
        .beginObject()
        .field("type", "flight.dump")
        .field("reason", reason)
        .field("beats", beats())
        .endObject();
    out += '\n';
    for (int i = 0; i < kGaugeSlots; ++i) {
        if (g_gauges[i].state.load(std::memory_order_acquire) != kLive)
            continue;
        char name[kGaugeNameLen];
        readGaugeName(g_gauges[i], name);
        json::Writer(out, json::Layout::Compact)
            .beginObject()
            .field("type", "flight.gauge")
            .field("name", name)
            .field("value",
                   g_gauges[i].value.load(std::memory_order_relaxed))
            .endObject();
        out += '\n';
    }
    HostProfiler::Snapshot snap = HostProfiler::snapshot(true);
    for (const auto &t : snap.threads) {
        json::Writer w(out, json::Layout::Compact);
        w.beginObject().field("type", "flight.thread").field("name", t.name);
        w.key("events").beginArray();
        // Last few events are what matters for a hang; cap the line.
        std::size_t first =
            t.events.size() > 32 ? t.events.size() - 32 : 0;
        for (std::size_t k = first; k < t.events.size(); ++k)
            w.beginObject()
                .field("phase", toString(t.events[k].phase))
                .field("startNs", t.events[k].startNs)
                .field("durNs", t.events[k].durNs)
                .endObject();
        w.endArray().endObject();
        out += '\n';
    }
    std::fwrite(out.data(), 1, out.size(), f);
}

namespace {

void
crashHandler(int sig)
{
    using detail::writeFd;
    using detail::writeFdU64;
    writeFd(2, "\n=== mtp flight recorder: fatal signal ");
    writeFdU64(2, static_cast<std::uint64_t>(sig));
    writeFd(2, " ===\n");
    FlightRecorder::dump(2);
    HostProfiler::dumpLastEvents(2, 16);
    writeFd(2, "=== end flight recorder ===\n");
    signal(sig, SIG_DFL);
    raise(sig);
}

} // namespace

void
FlightRecorder::installCrashHandler()
{
    static std::atomic<bool> installed{false};
    if (installed.exchange(true))
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = crashHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_NODEFER; // re-raise from inside the handler
    sigaction(SIGSEGV, &sa, nullptr);
    sigaction(SIGBUS, &sa, nullptr);
    sigaction(SIGABRT, &sa, nullptr);
}

struct Watchdog::Impl
{
    std::thread thread;
    std::mutex mutex;
    std::condition_variable cv;
    bool stop = false;
};

Watchdog::Watchdog(double deadlineSec, std::string jsonlPath)
    : impl_(new Impl)
{
    if (deadlineSec <= 0)
        deadlineSec = 1e-3;
    impl_->thread = std::thread([this, deadlineSec,
                                 path = std::move(jsonlPath)]() {
        // Poll at a fraction of the deadline; fire only after the
        // beat counter has been frozen for one *full* deadline
        // window (frozenSince is re-anchored on every beat).
        auto poll = std::chrono::duration<double>(
            std::min(deadlineSec / 4.0, 0.2));
        std::uint64_t lastBeats = FlightRecorder::beats();
        auto frozenSince = std::chrono::steady_clock::now();
        std::unique_lock<std::mutex> lock(impl_->mutex);
        while (!impl_->stop) {
            impl_->cv.wait_for(lock, poll,
                               [this] { return impl_->stop; });
            if (impl_->stop)
                break;
            std::uint64_t now = FlightRecorder::beats();
            auto t = std::chrono::steady_clock::now();
            if (now != lastBeats) {
                lastBeats = now;
                frozenSince = t;
                continue;
            }
            double frozen =
                std::chrono::duration<double>(t - frozenSince).count();
            if (frozen < deadlineSec)
                continue;
            using detail::writeFd;
            writeFd(2, "\n=== mtp watchdog: no progress beats for ");
            detail::writeFdU64(
                2, static_cast<std::uint64_t>(frozen * 1000));
            writeFd(2, " ms ===\n");
            FlightRecorder::dump(2);
            HostProfiler::dumpLastEvents(2, 16);
            writeFd(2, "=== end watchdog dump ===\n");
            if (!path.empty()) {
                if (std::FILE *f = std::fopen(path.c_str(), "a")) {
                    FlightRecorder::dumpJsonl(f, "watchdog");
                    std::fclose(f);
                }
            }
            fired_.store(true, std::memory_order_release);
            break; // fire once
        }
    });
}

Watchdog::~Watchdog()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stop = true;
    }
    impl_->cv.notify_all();
    impl_->thread.join();
    delete impl_;
}

} // namespace obs
} // namespace mtp
