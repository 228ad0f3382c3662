/**
 * @file
 * Host profiler unit + integration tests (DESIGN.md §12):
 *
 *  - the self-time accounting identity: per thread, phase self-times
 *    sum *exactly* to activeNs, and wait-class spans land in waitNs;
 *  - ring-buffer wraparound keeps the newest events;
 *  - scopes on the disabled path record nothing;
 *  - the host.* JSONL artifact parses line by line with the schema
 *    `mtp-report host` consumes;
 *  - a Chrome trace with merged host tracks (ObsConfig.hostProfile)
 *    validates and carries the host-thread pids and the host.simCycle
 *    clock-sync counter;
 *  - profiling is observer-only: simulated results are bit-identical
 *    with --host-profile on or off.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/host_profiler.hh"
#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/sink.hh"
#include "sim/gpu.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

using obs::HostPhase;
using obs::HostProfiler;
using obs::HostScope;

/** Burn wall-clock without sleeping (keeps the span in busy time). */
void
busyLoop(std::uint64_t ns)
{
    const std::uint64_t until = HostProfiler::nowNs() + ns;
    while (HostProfiler::nowNs() < until) {
    }
}

const HostProfiler::ThreadSnapshot *
findThread(const HostProfiler::Snapshot &snap, const std::string &name)
{
    for (const auto &t : snap.threads)
        if (t.name == name)
            return &t;
    return nullptr;
}

std::uint64_t
phaseNs(const HostProfiler::ThreadSnapshot &t, HostPhase p)
{
    return t.phaseNs[static_cast<int>(p)];
}

std::uint64_t
phaseCount(const HostProfiler::ThreadSnapshot &t, HostPhase p)
{
    return t.phaseCount[static_cast<int>(p)];
}

TEST(HostProfiler, NestedScopesObeySelfTimeIdentity)
{
    HostProfiler::disable();
    HostProfiler::enable();

    // All scopes closed before the snapshot, so the identity is exact:
    // the worker thread runs outer(RunTask){ self, mid(CoreTick){
    // self, inner(MemTick) }, wait(ExecWait) } and joins.
    std::thread worker([] {
        HostProfiler::nameThread("hp_nest");
        HostScope outer(HostPhase::RunTask);
        busyLoop(2'000'000);
        {
            HostScope mid(HostPhase::CoreTick);
            busyLoop(2'000'000);
            {
                HostScope inner(HostPhase::MemTick);
                busyLoop(2'000'000);
            }
        }
        {
            HostScope wait(HostPhase::ExecWait);
            busyLoop(1'000'000);
        }
    });
    worker.join();

    HostProfiler::Snapshot snap = HostProfiler::snapshot(true);
    const HostProfiler::ThreadSnapshot *t = findThread(snap, "hp_nest");
    ASSERT_NE(t, nullptr);

    // Phase rows are *self* time and must sum to activeNs exactly.
    std::uint64_t sum = 0;
    for (int p = 0; p < obs::kNumHostPhases; ++p)
        sum += t->phaseNs[p];
    EXPECT_EQ(sum, t->activeNs);

    // Only the outermost scope accrues activeNs, so the RunTask span
    // (self + all children) is the whole active window.
    EXPECT_GE(t->activeNs, 7'000'000u);
    EXPECT_EQ(phaseCount(*t, HostPhase::RunTask), 1u);
    EXPECT_EQ(phaseCount(*t, HostPhase::CoreTick), 1u);
    EXPECT_EQ(phaseCount(*t, HostPhase::MemTick), 1u);

    // Each scope's self time covers its own busy loop but not its
    // children's.
    EXPECT_GE(phaseNs(*t, HostPhase::RunTask), 2'000'000u);
    EXPECT_GE(phaseNs(*t, HostPhase::CoreTick), 2'000'000u);
    EXPECT_GE(phaseNs(*t, HostPhase::MemTick), 2'000'000u);
    // Exactly: CoreTick's self time is its span minus its one child's
    // (MemTick) span, both read back from the event ring — so MemTick's
    // time is never double-counted into CoreTick, however long the
    // host stalled either scope.
    std::uint64_t coreSpan = 0;
    std::uint64_t memSpan = 0;
    for (const HostProfiler::Event &e : t->events) {
        if (e.phase == HostPhase::CoreTick)
            coreSpan = e.durNs;
        else if (e.phase == HostPhase::MemTick)
            memSpan = e.durNs;
    }
    ASSERT_GE(coreSpan, memSpan);
    ASSERT_GE(memSpan, 2'000'000u);
    EXPECT_EQ(phaseNs(*t, HostPhase::CoreTick), coreSpan - memSpan);

    // Wait-class spans accrue to waitNs regardless of nesting.
    EXPECT_EQ(t->waitNs, phaseNs(*t, HostPhase::ExecWait));
    EXPECT_GE(t->waitNs, 1'000'000u);

    HostProfiler::disable();
}

TEST(HostProfiler, RingBufferWrapsKeepingNewestEvents)
{
    constexpr std::uint32_t kCap = 8;
    HostProfiler::disable();
    HostProfiler::enable(kCap);

    // 40 Dispatch scopes followed by kCap Sample scopes: after
    // wraparound the ring must hold exactly the kCap newest events,
    // i.e. only Sample, oldest-first.
    std::thread worker([] {
        HostProfiler::nameThread("hp_ring");
        for (int i = 0; i < 40; ++i)
            HostScope scope(HostPhase::Dispatch);
        for (std::uint32_t i = 0; i < kCap; ++i)
            HostScope scope(HostPhase::Sample);
    });
    worker.join();

    HostProfiler::Snapshot snap =
        HostProfiler::snapshot(/*includeEvents=*/true);
    const HostProfiler::ThreadSnapshot *t = findThread(snap, "hp_ring");
    ASSERT_NE(t, nullptr);
    ASSERT_EQ(t->events.size(), kCap);
    for (std::size_t i = 0; i < t->events.size(); ++i) {
        EXPECT_EQ(t->events[i].phase, HostPhase::Sample) << "slot " << i;
        if (i) {
            EXPECT_GE(t->events[i].startNs, t->events[i - 1].startNs);
        }
    }
    // The accumulators still saw everything the ring forgot.
    EXPECT_EQ(phaseCount(*t, HostPhase::Dispatch), 40u);
    EXPECT_EQ(phaseCount(*t, HostPhase::Sample), kCap);

    HostProfiler::disable();
}

TEST(HostProfiler, DisabledScopesRecordNothing)
{
    HostProfiler::disable();
    ASSERT_FALSE(HostProfiler::enabled());

    std::thread worker([] {
        HostProfiler::nameThread("hp_disabled");
        for (int i = 0; i < 100; ++i) {
            HostScope scope(HostPhase::CoreTick);
            HostScope hot(HostPhase::MemTick, HostProfiler::enabled());
        }
    });
    worker.join();

    // A fresh enable starts a new generation; the disabled-path scopes
    // (and the nameThread call) never registered the thread.
    HostProfiler::enable();
    HostProfiler::Snapshot snap = HostProfiler::snapshot(true);
    EXPECT_EQ(findThread(snap, "hp_disabled"), nullptr);
    HostProfiler::disable();
}

TEST(HostProfiler, JsonlArtifactParsesWithReportSchema)
{
    HostProfiler::disable();
    HostProfiler::enable();
    std::thread worker([] {
        HostProfiler::nameThread("hp_jsonl");
        HostScope outer(HostPhase::RunTask);
        busyLoop(500'000);
        HostScope inner(HostPhase::Summarize);
        busyLoop(500'000);
    });
    worker.join();
    HostProfiler::Snapshot snap = HostProfiler::snapshot();

    const std::string path = "host_profiler_test.host.jsonl";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    obs::writeHostProfileJsonl(f, snap,
                               {{"host.cache.hits", 3.0},
                                {"host.runsPerSec", 12.5}});
    std::fclose(f);

    std::ifstream in(path);
    std::string line;
    unsigned metas = 0, threadLines = 0, counters = 0;
    bool sawJsonlThread = false;
    while (std::getline(in, line)) {
        obs::JsonValue doc;
        std::string error;
        ASSERT_TRUE(obs::parseJson(line, doc, &error)) << error;
        const obs::JsonValue *type = doc.find("type");
        ASSERT_NE(type, nullptr);
        if (type->str == "host.meta") {
            ++metas;
            EXPECT_NE(doc.find("wallNs"), nullptr);
            EXPECT_NE(doc.find("threads"), nullptr);
        } else if (type->str == "host.thread") {
            ++threadLines;
            const obs::JsonValue *name = doc.find("name");
            ASSERT_NE(name, nullptr);
            if (name->str == "hp_jsonl") {
                sawJsonlThread = true;
                const obs::JsonValue *phases = doc.find("phases");
                ASSERT_NE(phases, nullptr);
                EXPECT_TRUE(phases->isObject());
                const obs::JsonValue *run = phases->find("run_task");
                ASSERT_NE(run, nullptr);
                EXPECT_NE(run->find("ns"), nullptr);
                EXPECT_NE(run->find("count"), nullptr);
            }
        } else if (type->str == "host.counter") {
            ++counters;
        }
    }
    EXPECT_EQ(metas, 1u);
    EXPECT_EQ(threadLines, snap.threads.size());
    EXPECT_TRUE(sawJsonlThread);
    EXPECT_EQ(counters, 2u);
    std::remove(path.c_str());
    HostProfiler::disable();
}

TEST(HostProfiler, MergedChromeTraceValidatesWithHostTracks)
{
    HostProfiler::disable();

    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    KernelDesc kernel = test::tinyStreamKernel(2, 4, 8, 1);
    RunResult plain = simulate(cfg, kernel);

    const std::string path = "host_profiler_test.trace.json";
    obs::ObsConfig ocfg;
    ocfg.samplePeriod = 137;
    ocfg.chromePath = path;
    ocfg.hostProfile = true;
    RunResult traced = simulate(cfg, kernel, ocfg);
    HostProfiler::disable();

    // Host profiling is observer-only.
    std::ostringstream a, b;
    plain.stats.dumpText(a);
    traced.stats.dumpText(b);
    EXPECT_EQ(a.str(), b.str());

    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::string err;
    ASSERT_TRUE(obs::validateChromeTrace(ss.str(), &err)) << err;

    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(ss.str(), doc, nullptr));
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // The merged trace must carry sim tracks (small pids), at least
    // one host-thread track (pid >= trackForHostThread(0)) with 'X'
    // spans named after host phases, and the host.simCycle clock-sync
    // counter on its dedicated track.
    bool sawSimEvent = false, sawHostSpan = false, sawClockSync = false;
    bool sawHostTrackName = false;
    for (const auto &ev : events->array) {
        const obs::JsonValue *pid = ev.find("pid");
        const obs::JsonValue *ph = ev.find("ph");
        const obs::JsonValue *name = ev.find("name");
        if (!pid || !ph || !name)
            continue;
        int p = static_cast<int>(pid->number);
        if (p < obs::trackHostClock && ph->str != "M")
            sawSimEvent = true;
        if (p >= obs::trackForHostThread(0) && ph->str == "X")
            sawHostSpan = true;
        if (p == obs::trackHostClock && name->str == "host.simCycle" &&
            ph->str == "C")
            sawClockSync = true;
        if (ph->str == "M" && name->str == "process_name") {
            const obs::JsonValue *args = ev.find("args");
            const obs::JsonValue *n = args ? args->find("name") : nullptr;
            if (n && n->str.rfind("host: ", 0) == 0)
                sawHostTrackName = true;
        }
    }
    EXPECT_TRUE(sawSimEvent);
    EXPECT_TRUE(sawHostSpan);
    EXPECT_TRUE(sawClockSync);
    EXPECT_TRUE(sawHostTrackName);
    std::remove(path.c_str());
}

TEST(HostProfiler, ProfilingNeverPerturbsSimResults)
{
    HostProfiler::disable();
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = true;
    KernelDesc kernel = test::tinyStreamKernel(2, 6, 4);

    RunResult off = simulate(cfg, kernel);
    obs::ObsConfig ocfg;
    ocfg.hostProfile = true;
    RunResult on = simulate(cfg, kernel, ocfg);
    HostProfiler::disable();

    std::ostringstream a, b;
    off.stats.dumpText(a);
    on.stats.dumpText(b);
    EXPECT_EQ(a.str(), b.str());
}

} // namespace
} // namespace mtp
