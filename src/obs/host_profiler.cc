#include "obs/host_profiler.hh"

#include <time.h>
#include <unistd.h>

#include <cstring>
#include <mutex>

#include "common/json_writer.hh"

namespace mtp {
namespace obs {

const char *
toString(HostPhase p)
{
    switch (p) {
      case HostPhase::KernelBuild: return "kernel_build";
      case HostPhase::CacheLookup: return "cache_lookup";
      case HostPhase::CacheInsert: return "cache_insert";
      case HostPhase::RunTask: return "run_task";
      case HostPhase::Dispatch: return "dispatch";
      case HostPhase::CoreTick: return "core_tick";
      case HostPhase::MemTick: return "mem_tick";
      case HostPhase::HorizonSkip: return "horizon_skip";
      case HostPhase::ExecWait: return "exec_wait";
      case HostPhase::Sample: return "sample";
      case HostPhase::Summarize: return "summarize";
    }
    return "?";
}

/**
 * Per-thread profiling state. Owner-only fields (the scope stack) are
 * plain; everything a cross-thread reader touches is atomic. States
 * are allocated on first use, published into a fixed slot table, and
 * never freed — a thread exiting or a new generation starting leaves
 * the old state readable forever, so snapshot() and the signal-time
 * dump can never chase a dangling pointer.
 */
struct HostProfiler::ThreadState
{
    // ---- cross-thread readable ------------------------------------
    std::atomic<std::uint64_t> activeNs{0};
    std::atomic<std::uint64_t> waitNs{0};
    std::atomic<std::uint64_t> phaseNs[kNumHostPhases] = {};
    std::atomic<std::uint64_t> phaseCount[kNumHostPhases] = {};

    // Name: written at most once, published via the release flag.
    char name[32] = {};
    std::atomic<bool> named{false};

    // Ring of completed scopes: 2 relaxed-atomic words per slot,
    // word0 = startNs, word1 = phase<<56 | durNs. head_ counts total
    // events ever recorded (slot = head % capacity).
    std::atomic<std::uint64_t> *ring = nullptr;
    std::uint32_t ringCap = 0;
    std::atomic<std::uint64_t> ringHead{0};

    std::uint64_t generation = 0;

    // ---- owner-only -----------------------------------------------
    static constexpr int kMaxDepth = 16;
    struct Frame
    {
        HostPhase phase;
        std::uint64_t startNs;
        std::uint64_t childNs; //!< spans of completed nested scopes
    };
    Frame stack[kMaxDepth];
    int depth = 0;
    int waitDepth = 0;

    void
    record(HostPhase p, std::uint64_t start, std::uint64_t dur)
    {
        if (!ringCap)
            return;
        std::uint64_t h = ringHead.load(std::memory_order_relaxed);
        std::atomic<std::uint64_t> *slot = ring + 2 * (h % ringCap);
        slot[0].store(start, std::memory_order_relaxed);
        slot[1].store((static_cast<std::uint64_t>(p) << 56) |
                          (dur & ((1ull << 56) - 1)),
                      std::memory_order_relaxed);
        ringHead.store(h + 1, std::memory_order_release);
    }
};

namespace {

// Registration table. Slots are published with a release store and
// only ever transition null -> non-null, so lock-free readers (the
// watchdog, the crash handler) can walk [0, threadCount) safely.
std::atomic<HostProfiler::ThreadState *>
    g_slots[HostProfiler::kMaxThreads] = {};
std::atomic<int> g_threadCount{0};

std::atomic<std::uint64_t> g_generation{0};
std::atomic<std::uint64_t> g_enabledAtNs{0};
std::atomic<std::uint32_t> g_ringCap{HostProfiler::kDefaultRingCapacity};

std::mutex g_registerMutex;

struct TlsRef
{
    HostProfiler::ThreadState *state = nullptr;
    std::uint64_t generation = 0;
};
thread_local TlsRef t_ref;

} // namespace

std::atomic<bool> HostProfiler::enabled_{false};

std::uint64_t
HostProfiler::nowNs()
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

void
HostProfiler::enable(std::uint32_t ringCapacity)
{
    std::lock_guard<std::mutex> lock(g_registerMutex);
    if (enabled_.load(std::memory_order_relaxed))
        return;
    g_ringCap.store(ringCapacity ? ringCapacity : 1,
                    std::memory_order_relaxed);
    // A new generation: threads re-register on their next scope, so
    // counters start from zero without touching (possibly still
    // in-use) prior states.
    g_generation.fetch_add(1, std::memory_order_relaxed);
    g_enabledAtNs.store(nowNs(), std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_release);
}

void
HostProfiler::disable()
{
    enabled_.store(false, std::memory_order_release);
}

std::uint64_t
HostProfiler::enabledAtNs()
{
    return g_enabledAtNs.load(std::memory_order_relaxed);
}

HostProfiler::ThreadState *
HostProfiler::threadState()
{
    std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
    if (t_ref.state && t_ref.generation == gen)
        return t_ref.state;

    std::lock_guard<std::mutex> lock(g_registerMutex);
    int idx = g_threadCount.load(std::memory_order_relaxed);
    if (idx >= kMaxThreads)
        return nullptr; // table full: profile without this thread
    auto *state = new ThreadState();
    state->generation = gen;
    std::uint32_t cap = g_ringCap.load(std::memory_order_relaxed);
    state->ring = new std::atomic<std::uint64_t>[2 * cap]();
    state->ringCap = cap;
    // Carry a prior name forward across generations: the thread is
    // the same even though its counters restarted.
    if (t_ref.state &&
        t_ref.state->named.load(std::memory_order_acquire)) {
        std::memcpy(state->name, t_ref.state->name, sizeof(state->name));
        state->named.store(true, std::memory_order_release);
    }
    g_slots[idx].store(state, std::memory_order_release);
    g_threadCount.store(idx + 1, std::memory_order_release);
    t_ref.state = state;
    t_ref.generation = gen;
    return state;
}

void
HostProfiler::nameThread(const char *name)
{
    ThreadState *state = threadState();
    if (!state || state->named.load(std::memory_order_acquire))
        return;
    std::strncpy(state->name, name, sizeof(state->name) - 1);
    state->named.store(true, std::memory_order_release);
}

void
HostScope::begin(HostPhase p)
{
    HostProfiler::ThreadState *ts = HostProfiler::threadState();
    if (!ts || ts->depth >= HostProfiler::ThreadState::kMaxDepth) {
        on_ = false;
        return;
    }
    ts->stack[ts->depth++] = {p, HostProfiler::nowNs(), 0};
    if (isWaitPhase(p))
        ++ts->waitDepth;
}

void
HostScope::end()
{
    HostProfiler::ThreadState *ts = HostProfiler::threadState();
    if (!ts || ts->depth == 0)
        return;
    auto &frame = ts->stack[--ts->depth];
    std::uint64_t end = HostProfiler::nowNs();
    std::uint64_t span = end - frame.startNs;
    std::uint64_t self = span > frame.childNs ? span - frame.childNs : 0;
    int p = static_cast<int>(frame.phase);
    ts->phaseNs[p].fetch_add(self, std::memory_order_relaxed);
    ts->phaseCount[p].fetch_add(1, std::memory_order_relaxed);
    if (ts->depth > 0)
        ts->stack[ts->depth - 1].childNs += span;
    else
        ts->activeNs.fetch_add(span, std::memory_order_relaxed);
    if (isWaitPhase(frame.phase)) {
        if (--ts->waitDepth == 0)
            ts->waitNs.fetch_add(span, std::memory_order_relaxed);
    }
    ts->record(frame.phase, frame.startNs, span);
}

HostProfiler::Snapshot
HostProfiler::snapshot(bool includeEvents)
{
    Snapshot snap;
    snap.enabledAtNs = enabledAtNs();
    snap.takenAtNs = nowNs();
    std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
    int count = g_threadCount.load(std::memory_order_acquire);
    int anon = 0;
    for (int i = 0; i < count; ++i) {
        ThreadState *ts = g_slots[i].load(std::memory_order_acquire);
        if (!ts || ts->generation != gen)
            continue;
        ThreadSnapshot out;
        if (ts->named.load(std::memory_order_acquire))
            out.name = ts->name;
        else
            out.name = "thread" + std::to_string(anon++);
        out.activeNs = ts->activeNs.load(std::memory_order_relaxed);
        out.waitNs = ts->waitNs.load(std::memory_order_relaxed);
        for (int p = 0; p < kNumHostPhases; ++p) {
            out.phaseNs[p] =
                ts->phaseNs[p].load(std::memory_order_relaxed);
            out.phaseCount[p] =
                ts->phaseCount[p].load(std::memory_order_relaxed);
        }
        if (includeEvents && ts->ringCap) {
            std::uint64_t head =
                ts->ringHead.load(std::memory_order_acquire);
            std::uint64_t n = std::min<std::uint64_t>(head, ts->ringCap);
            out.events.reserve(n);
            for (std::uint64_t k = head - n; k < head; ++k) {
                std::atomic<std::uint64_t> *slot =
                    ts->ring + 2 * (k % ts->ringCap);
                Event ev;
                ev.startNs = slot[0].load(std::memory_order_relaxed);
                std::uint64_t w = slot[1].load(std::memory_order_relaxed);
                unsigned p = static_cast<unsigned>(w >> 56);
                ev.phase = static_cast<HostPhase>(
                    p < static_cast<unsigned>(kNumHostPhases) ? p : 0);
                ev.durNs = w & ((1ull << 56) - 1);
                out.events.push_back(ev);
            }
        }
        snap.threads.push_back(std::move(out));
    }
    return snap;
}

namespace detail {

void
writeFd(int fd, const char *s)
{
    std::size_t len = std::strlen(s);
    while (len > 0) {
        ssize_t n = ::write(fd, s, len);
        if (n <= 0)
            return;
        s += n;
        len -= static_cast<std::size_t>(n);
    }
}

void
writeFdU64(int fd, std::uint64_t v)
{
    char buf[24];
    char *p = buf + sizeof(buf);
    *--p = '\0';
    do {
        *--p = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    writeFd(fd, p);
}

} // namespace detail

void
HostProfiler::dumpLastEvents(int fd, int perThread)
{
    using detail::writeFd;
    using detail::writeFdU64;
    std::uint64_t gen = g_generation.load(std::memory_order_relaxed);
    int count = g_threadCount.load(std::memory_order_acquire);
    for (int i = 0; i < count; ++i) {
        ThreadState *ts = g_slots[i].load(std::memory_order_acquire);
        if (!ts || ts->generation != gen)
            continue;
        writeFd(fd, "  thread ");
        writeFdU64(fd, static_cast<std::uint64_t>(i));
        if (ts->named.load(std::memory_order_acquire)) {
            writeFd(fd, " (");
            writeFd(fd, ts->name);
            writeFd(fd, ")");
        }
        writeFd(fd, " last events:\n");
        if (!ts->ringCap)
            continue;
        std::uint64_t head = ts->ringHead.load(std::memory_order_acquire);
        std::uint64_t n = head < ts->ringCap ? head : ts->ringCap;
        if (n > static_cast<std::uint64_t>(perThread))
            n = static_cast<std::uint64_t>(perThread);
        for (std::uint64_t k = head - n; k < head; ++k) {
            std::atomic<std::uint64_t> *slot =
                ts->ring + 2 * (k % ts->ringCap);
            std::uint64_t start = slot[0].load(std::memory_order_relaxed);
            std::uint64_t w = slot[1].load(std::memory_order_relaxed);
            unsigned p = static_cast<unsigned>(w >> 56);
            writeFd(fd, "    ");
            writeFd(fd, toString(static_cast<HostPhase>(
                             p < static_cast<unsigned>(kNumHostPhases)
                                 ? p
                                 : 0)));
            writeFd(fd, " start_ns=");
            writeFdU64(fd, start);
            writeFd(fd, " dur_ns=");
            writeFdU64(fd, w & ((1ull << 56) - 1));
            writeFd(fd, "\n");
        }
    }
}

void
writeHostProfileJsonl(
    std::FILE *f, const HostProfiler::Snapshot &snap,
    const std::vector<std::pair<std::string, double>> &counters)
{
    std::uint64_t wallNs = snap.takenAtNs > snap.enabledAtNs
                               ? snap.takenAtNs - snap.enabledAtNs
                               : 0;
    std::string out;
    json::Writer(out, json::Layout::Compact)
        .beginObject()
        .field("type", "host.meta")
        .field("enabledNs", snap.enabledAtNs)
        .field("wallNs", wallNs)
        .field("threads", snap.threads.size())
        .endObject();
    out += '\n';
    for (const auto &t : snap.threads) {
        json::Writer w(out, json::Layout::Compact);
        w.beginObject()
            .field("type", "host.thread")
            .field("name", t.name)
            .field("activeNs", t.activeNs)
            .field("waitNs", t.waitNs);
        w.key("phases").beginObject();
        for (int p = 0; p < kNumHostPhases; ++p) {
            if (!t.phaseCount[p])
                continue;
            w.key(toString(static_cast<HostPhase>(p)))
                .beginObject()
                .field("ns", t.phaseNs[p])
                .field("count", t.phaseCount[p])
                .endObject();
        }
        w.endObject().endObject();
        out += '\n';
    }
    for (const auto &[name, value] : counters) {
        json::Writer(out, json::Layout::Compact)
            .beginObject()
            .field("type", "host.counter")
            .field("name", name)
            .field("value", value)
            .endObject();
        out += '\n';
    }
    std::fwrite(out.data(), 1, out.size(), f);
}

} // namespace obs
} // namespace mtp
