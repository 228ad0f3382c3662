/**
 * @file
 * Flight recorder + watchdog tests (DESIGN.md §12):
 *
 *  - gauge pool lifecycle: acquire/set/add, JSONL dump, release makes
 *    the handle inert and frees the slot;
 *  - the watchdog fires on a genuinely stalled executor worker (no
 *    progress beats for a full deadline window) and leaves a parseable
 *    JSONL artifact;
 *  - it never false-fires while the engine keeps beating, even over
 *    several deadline windows of wall-clock;
 *  - the naive oracle loop beats like the queued loop, so a healthy
 *    fastForward=0 run never looks hung.
 *
 * Timing margins are generous on purpose: the watchdog tests run
 * under TSan in the host-obs CI job, where every sleep and wake is
 * slower. The fire test waits up to ~20 s for a 0.25 s deadline; the
 * no-false-fire test beats at 10x the deadline poll rate.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "driver/parallel_executor.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

using obs::FlightRecorder;

TEST(FlightRecorder, BeatsAreMonotonic)
{
    std::uint64_t b0 = FlightRecorder::beats();
    FlightRecorder::beat();
    FlightRecorder::beat();
    EXPECT_EQ(FlightRecorder::beats(), b0 + 2);
}

TEST(FlightRecorder, NaiveRunBeatsEvery128Cycles)
{
    // The oracle steps every cycle and beats at each multiple of 128,
    // as the queued loop does at the ones it steps.
    SimConfig cfg = test::tinyConfig();
    cfg.fastForward = false;
    std::uint64_t b0 = FlightRecorder::beats();
    RunResult r = simulate(cfg, test::tinyStreamKernel());
    ASSERT_GT(r.cycles, 128u);
    EXPECT_EQ(FlightRecorder::beats() - b0, (r.cycles + 127) / 128);
}

TEST(FlightRecorder, GaugeLifecycleAndJsonlDump)
{
    FlightRecorder::Gauge g =
        FlightRecorder::acquireGauge("test.run0.cycle");
    ASSERT_TRUE(g.valid());
    g.set(7);
    g.add(5);

    const std::string path = "flight_recorder_test.jsonl";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    FlightRecorder::dumpJsonl(f, "unit");
    std::fclose(f);

    std::ifstream in(path);
    std::string line;
    bool sawDump = false, sawGauge = false;
    while (std::getline(in, line)) {
        obs::JsonValue doc;
        std::string error;
        ASSERT_TRUE(obs::parseJson(line, doc, &error)) << error;
        const obs::JsonValue *type = doc.find("type");
        ASSERT_NE(type, nullptr);
        if (type->str == "flight.dump") {
            sawDump = true;
            const obs::JsonValue *reason = doc.find("reason");
            ASSERT_NE(reason, nullptr);
            EXPECT_EQ(reason->str, "unit");
            EXPECT_NE(doc.find("beats"), nullptr);
        } else if (type->str == "flight.gauge") {
            const obs::JsonValue *name = doc.find("name");
            if (name && name->str == "test.run0.cycle") {
                sawGauge = true;
                const obs::JsonValue *value = doc.find("value");
                ASSERT_NE(value, nullptr);
                EXPECT_EQ(value->number, 12.0);
            }
        }
    }
    EXPECT_TRUE(sawDump);
    EXPECT_TRUE(sawGauge);
    std::remove(path.c_str());

    // Release: the handle goes inert (set() is a no-op, not a crash)
    // and the slot is reusable.
    FlightRecorder::releaseGauge(g);
    EXPECT_FALSE(g.valid());
    g.set(99);
    FlightRecorder::Gauge g2 = FlightRecorder::acquireGauge("test.reuse");
    EXPECT_TRUE(g2.valid());
    FlightRecorder::releaseGauge(g2);
}

TEST(Watchdog, FiresOnStalledWorkerAndDumpsJsonl)
{
    const std::string path = "flight_watchdog_test.jsonl";
    std::remove(path.c_str());

    // A worker wedged inside a task: the executor's per-task beat
    // never happens, so the global beat counter freezes — exactly the
    // hang signature the watchdog exists to catch.
    driver::ParallelExecutor exec(2);
    std::atomic<bool> release{false};
    auto stalled = exec.submit([&release] {
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return 0;
    });

    obs::Watchdog dog(0.25, path);
    for (int i = 0; i < 2000 && !dog.fired(); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_TRUE(dog.fired());

    release.store(true, std::memory_order_release);
    stalled.get();

    // The artifact must hold a parseable flight.dump attributed to the
    // watchdog (not a crash), plus the gauge/thread context lines.
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string line;
    bool sawWatchdogDump = false;
    while (std::getline(in, line)) {
        obs::JsonValue doc;
        std::string error;
        ASSERT_TRUE(obs::parseJson(line, doc, &error)) << error;
        const obs::JsonValue *type = doc.find("type");
        const obs::JsonValue *reason = doc.find("reason");
        if (type && type->str == "flight.dump" && reason &&
            reason->str == "watchdog")
            sawWatchdogDump = true;
    }
    EXPECT_TRUE(sawWatchdogDump);
    std::remove(path.c_str());
}

TEST(Watchdog, DoesNotFireWhileEngineBeats)
{
    // Beat every 50 ms against a 0.6 s deadline for ~1.5 s: the frozen
    // window re-anchors on every beat and never approaches the
    // deadline, so a healthy engine must not trip the dump.
    obs::Watchdog dog(0.6);
    for (int i = 0; i < 30; ++i) {
        FlightRecorder::beat();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_FALSE(dog.fired());
}

} // namespace
} // namespace mtp
