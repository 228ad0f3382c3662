/**
 * @file
 * Sink output formats: the CSV time series, the JSONL record stream
 * (every line must parse as one JSON object), the Chrome trace-event
 * file (must validate against the schema checker), per-run path
 * derivation and the TraceRecorder's event/histogram plumbing.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/observer.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/trace.hh"

namespace mtp {
namespace obs {
namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** A unique scratch path under the test binary's working directory. */
std::string
scratchPath(const std::string &name)
{
    return "obs_sink_test_" + name;
}

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line))
        out.push_back(line);
    return out;
}

TEST(CsvTimeSeriesSink, HeaderAndRows)
{
    std::string path = scratchPath("ts.csv");
    {
        CsvTimeSeriesSink sink(path);
        sink.sampleSchema({{"core0.ipc", 0}, {"dram0.blp", 1000}});
        sink.sample(100, {0.5, 3.0});
        sink.sample(200, {0.25, 0.0});
        sink.close();
    }
    auto rows = lines(slurp(path));
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], "cycle,core0.ipc,dram0.blp");
    EXPECT_EQ(rows[1], "100,0.5,3");
    EXPECT_EQ(rows[2], "200,0.25,0");
    std::remove(path.c_str());
}

TEST(JsonlSink, EveryLineIsOneJsonObject)
{
    std::string path = scratchPath("events.jsonl");
    {
        JsonlSink sink(path);
        sink.sampleSchema({{"a", 0}, {"b", 2000}});
        sink.sample(100, {1.5, 2.0});

        TraceEvent ev;
        ev.name = "req:mrq_enq";
        ev.ph = 'i';
        ev.ts = 42;
        ev.pid = trackForCore(1);
        ev.sargs.emplace_back("addr", "0x1000");
        sink.event(ev);

        Histogram h(0.0, 10.0, 2);
        h.sample(3.0);
        sink.histogram("latency.total", h);
        sink.close();
    }
    auto rows = lines(slurp(path));
    ASSERT_EQ(rows.size(), 4u);
    for (const auto &row : rows) {
        JsonValue v;
        std::string err;
        ASSERT_TRUE(parseJson(row, v, &err)) << row << ": " << err;
        ASSERT_TRUE(v.isObject()) << row;
        ASSERT_NE(v.find("t"), nullptr) << row;
    }

    JsonValue schema, sample, event, hist;
    ASSERT_TRUE(parseJson(rows[0], schema, nullptr));
    EXPECT_EQ(schema.find("t")->str, "schema");
    ASSERT_TRUE(parseJson(rows[1], sample, nullptr));
    EXPECT_EQ(sample.find("t")->str, "sample");
    EXPECT_DOUBLE_EQ(sample.find("cycle")->number, 100.0);
    EXPECT_DOUBLE_EQ(sample.find("v")->find("a")->number, 1.5);
    ASSERT_TRUE(parseJson(rows[2], event, nullptr));
    EXPECT_EQ(event.find("name")->str, "req:mrq_enq");
    EXPECT_EQ(event.find("args")->find("addr")->str, "0x1000");
    ASSERT_TRUE(parseJson(rows[3], hist, nullptr));
    EXPECT_EQ(hist.find("name")->str, "latency.total");
    EXPECT_DOUBLE_EQ(hist.find("count")->number, 1.0);
    std::remove(path.c_str());
}

TEST(ChromeTraceSink, OutputValidatesAgainstSchema)
{
    std::string path = scratchPath("trace.json");
    {
        ChromeTraceSink sink(path);

        TraceEvent meta;
        meta.name = "process_name";
        meta.ph = 'M';
        meta.pid = trackForCore(0);
        meta.sargs.emplace_back("name", "core0");
        sink.event(meta);

        TraceEvent span;
        span.name = "mem:load";
        span.ph = 'X';
        span.ts = 10;
        span.dur = 90;
        span.pid = trackForCore(0);
        span.sargs.emplace_back("addr", "0x80");
        sink.event(span);

        sink.sampleSchema({{"core0.ipc", trackForCore(0)},
                           {"dram1.blp", trackForChannel(1)}});
        sink.sample(100, {0.5, 2.0});
        sink.close();
    }
    std::string text = slurp(path);
    std::string err;
    EXPECT_TRUE(validateChromeTrace(text, &err)) << err;

    // Samples fan out to one counter event per column, on the
    // column's own track.
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, doc, nullptr));
    const JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->array.size(), 4u);
    EXPECT_EQ(events->array[2].find("name")->str, "core0.ipc");
    EXPECT_DOUBLE_EQ(events->array[2].find("pid")->number,
                     trackForCore(0));
    EXPECT_EQ(events->array[3].find("name")->str, "dram1.blp");
    EXPECT_DOUBLE_EQ(events->array[3].find("pid")->number,
                     trackForChannel(1));
    EXPECT_DOUBLE_EQ(
        events->array[3].find("args")->find("value")->number, 2.0);
    std::remove(path.c_str());
}

TEST(ChromeTraceSink, EmptyTraceIsValid)
{
    std::string path = scratchPath("empty.json");
    {
        ChromeTraceSink sink(path);
        sink.close();
    }
    std::string err;
    EXPECT_TRUE(validateChromeTrace(slurp(path), &err)) << err;
    std::remove(path.c_str());
}

TEST(TraceRecorder, LoadLifecycleFeedsHistograms)
{
    TraceRecorder rec(/*lifecycle=*/true, /*throttle=*/true);
    CaptureSink cap;
    rec.addSink(&cap);

    const Addr addr = 0x1000;
    rec.stage(Stage::MrqEnqueue, addr, 0, 0, 0, 10);
    rec.stage(Stage::IcntInject, addr, 0, 0, 0, 18);
    rec.stage(Stage::DramEnqueue, addr, 0, 0, 0, 22);
    rec.stage(Stage::DramSchedule, addr, 0, 0, 0, 40);
    rec.stage(Stage::DramDone, addr, 0, 0, 0, 70);
    rec.stage(Stage::Return, addr, 0, 0, 0, 95);

    EXPECT_EQ(rec.completedRequests(), 1u);
    EXPECT_DOUBLE_EQ(rec.histMrqWait().mean(), 8.0);
    EXPECT_DOUBLE_EQ(rec.histIcntReq().mean(), 4.0);
    EXPECT_DOUBLE_EQ(rec.histDramQueue().mean(), 18.0);
    EXPECT_DOUBLE_EQ(rec.histDramService().mean(), 30.0);
    EXPECT_DOUBLE_EQ(rec.histIcntResp().mean(), 25.0);
    EXPECT_DOUBLE_EQ(rec.histTotal().mean(), 85.0);

    // 6 instants plus two 'X' spans (dram service + full round trip).
    unsigned spans = 0;
    for (const auto &ev : cap.events)
        if (ev.ph == 'X')
            ++spans;
    EXPECT_EQ(cap.events.size(), 8u);
    EXPECT_EQ(spans, 2u);

    // A later sharer of the same finalized address is a no-op.
    rec.stage(Stage::Return, addr, 0, 1, 0, 99);
    EXPECT_EQ(rec.completedRequests(), 1u);

    rec.finish();
    ASSERT_EQ(cap.histograms.size(), 6u);
    EXPECT_EQ(cap.histograms[0].first, "latency.mrqWait");
    EXPECT_EQ(cap.histograms[5].first, "latency.total");
    rec.finish(); // idempotent
    EXPECT_EQ(cap.histograms.size(), 6u);
}

TEST(TraceRecorder, StoreCompletesAtController)
{
    TraceRecorder rec(/*lifecycle=*/true, /*throttle=*/false);
    const Addr addr = 0x2000;
    rec.stage(Stage::MrqEnqueue, addr, 1, 0, 0, 5);
    rec.stage(Stage::DramSchedule, addr, 1, 0, 0, 20);
    rec.stage(Stage::DramDone, addr, 1, 0, 0, 50);
    EXPECT_EQ(rec.completedRequests(), 1u);
    EXPECT_DOUBLE_EQ(rec.histTotal().mean(), 45.0);
    EXPECT_EQ(rec.histIcntResp().count(), 0u); // stores send no reply
}

/**
 * Two cores' loads of one block, interleaved: core 1's request reaches
 * the controller after core 0's was scheduled, so the channel serves
 * each one. Each request keeps its own stamps, so no span wraps, and
 * each return closes its own core's lifecycle.
 */
TEST(TraceRecorder, InterleavedCoresKeepTheirOwnStamps)
{
    TraceRecorder rec(/*lifecycle=*/true, /*throttle=*/false);
    CaptureSink cap;
    rec.addSink(&cap);

    const Addr addr = 0x3000;
    rec.stage(Stage::MrqEnqueue, addr, 0, 0, 0, 10);
    rec.stage(Stage::MrqEnqueue, addr, 0, 1, 0, 12);
    rec.stage(Stage::IcntInject, addr, 0, 0, 0, 14);
    rec.stage(Stage::IcntInject, addr, 0, 1, 0, 15);
    rec.stage(Stage::DramEnqueue, addr, 0, 0, 0, 20);
    rec.stage(Stage::DramSchedule, addr, 0, 0, 0, 25);
    rec.stage(Stage::DramEnqueue, addr, 0, 1, 0, 26);
    rec.stage(Stage::DramDone, addr, 0, 0, 0, 50);
    rec.stage(Stage::DramSchedule, addr, 0, 1, 0, 55);
    rec.stage(Stage::Return, addr, 0, 0, 0, 60);
    rec.stage(Stage::DramDone, addr, 0, 1, 0, 80);
    rec.stage(Stage::Return, addr, 0, 1, 0, 90);

    // Core 0: 4, 6, 5, 25, 10 and 50 cycles; core 1: 3, 11, 29, 25, 10
    // and 78.
    EXPECT_EQ(rec.completedRequests(), 2u);
    EXPECT_DOUBLE_EQ(rec.histMrqWait().mean(), 3.5);
    EXPECT_DOUBLE_EQ(rec.histIcntReq().mean(), 8.5);
    EXPECT_DOUBLE_EQ(rec.histDramQueue().mean(), 17.0);
    EXPECT_DOUBLE_EQ(rec.histDramService().mean(), 25.0);
    EXPECT_DOUBLE_EQ(rec.histIcntResp().mean(), 10.0);
    EXPECT_DOUBLE_EQ(rec.histTotal().mean(), 64.0);
    EXPECT_DOUBLE_EQ(rec.histDramQueue().maxValue(), 29.0);

    std::vector<int> lifecycles;
    for (const auto &ev : cap.events)
        if (ev.name == "mem:load")
            lifecycles.push_back(ev.pid);
    EXPECT_EQ(lifecycles,
              (std::vector<int>{trackForCore(0), trackForCore(1)}));
}

/**
 * Core 1's store merges into core 0's queued store: its trip ends at
 * the merge. Core 0's next store, issued meanwhile, is a request of
 * its own.
 */
TEST(TraceRecorder, MergedStoreEndsWhereItJoins)
{
    TraceRecorder rec(/*lifecycle=*/true, /*throttle=*/false);
    const Addr addr = 0x4000;
    rec.stage(Stage::MrqEnqueue, addr, 1, 0, 0, 10);
    rec.stage(Stage::MrqEnqueue, addr, 1, 1, 0, 11);
    rec.stage(Stage::IcntInject, addr, 1, 0, 0, 12);
    rec.stage(Stage::IcntInject, addr, 1, 1, 0, 14);
    rec.stage(Stage::DramEnqueue, addr, 1, 0, 0, 20);
    rec.merged(addr, 1, 1, 0, 23);
    EXPECT_EQ(rec.completedRequests(), 1u);
    EXPECT_DOUBLE_EQ(rec.histTotal().mean(), 12.0); // 23 - 11
    EXPECT_DOUBLE_EQ(rec.histIcntReq().mean(), 9.0); // 23 - 14

    rec.stage(Stage::MrqEnqueue, addr, 1, 0, 0, 24);
    rec.stage(Stage::DramSchedule, addr, 1, 0, 0, 30);
    rec.stage(Stage::IcntInject, addr, 1, 0, 0, 31);
    rec.stage(Stage::DramEnqueue, addr, 1, 0, 0, 40);
    rec.stage(Stage::DramDone, addr, 1, 0, 0, 60);
    rec.stage(Stage::DramSchedule, addr, 1, 0, 0, 61);
    rec.stage(Stage::DramDone, addr, 1, 0, 0, 90);
    EXPECT_EQ(rec.completedRequests(), 3u);
    EXPECT_DOUBLE_EQ(rec.histTotal().maxValue(), 66.0); // 90 - 24
    EXPECT_EQ(rec.histDramService().count(), 2u);
    EXPECT_DOUBLE_EQ(rec.histDramQueue().maxValue(), 21.0); // 61 - 40
}

TEST(TraceRecorder, DisabledStreamsEmitNothing)
{
    TraceRecorder rec(/*lifecycle=*/false, /*throttle=*/true);
    CaptureSink cap;
    rec.addSink(&cap);
    rec.stage(Stage::MrqEnqueue, 0x1000, 0, 0, 0, 1);
    rec.pref(PrefEvent::Issued, 0x1000, 0, 1);
    rec.coalesce(0, 0x1000, 0, 2, 1);
    EXPECT_TRUE(cap.events.empty());
    rec.throttleUpdate(0, 100, 1, 2, 3, 4, 0.5, 2);
    ASSERT_EQ(cap.events.size(), 1u);
    EXPECT_EQ(cap.events[0].name, "throttle:update");
    rec.finish(); // lifecycle off: no histogram records either
    EXPECT_TRUE(cap.histograms.empty());
}

TEST(PerRunPath, InsertsTagBeforeExtension)
{
    EXPECT_EQ(perRunPath("trace.json", "mp"), "trace.mp.json");
    EXPECT_EQ(perRunPath("out/trace.json", "mp"), "out/trace.mp.json");
    EXPECT_EQ(perRunPath("out.d/trace", "mp"), "out.d/trace.mp");
    EXPECT_EQ(perRunPath("trace", "mp"), "trace.mp");
    EXPECT_EQ(perRunPath("trace.json", ""), "trace.json");
    EXPECT_EQ(perRunPath("", "mp"), "");
}

/**
 * Regression: two different kernels sharing a name (e.g. the same
 * benchmark with and without a SW-prefetch transform) used to resolve
 * to the same per-run path and silently overwrite each other's output.
 * Duplicated names now get a content-fingerprint suffix.
 */
TEST(UniqueRunTags, DisambiguatesDuplicateNames)
{
    std::vector<std::string> names = {"mp", "stream", "mp"};
    std::vector<std::uint64_t> fps = {0x1111, 0x2222, 0xabcdef01234567ffull};
    std::vector<std::string> tags = uniqueRunTags(names, fps);
    ASSERT_EQ(tags.size(), 3u);
    // Unique names pass through untouched.
    EXPECT_EQ(tags[1], "stream");
    // Duplicates keep the name as a prefix but must differ.
    EXPECT_EQ(tags[0], "mp-0000000000001111");
    EXPECT_EQ(tags[2], "mp-abcdef01234567ff");
    EXPECT_NE(perRunPath("trace.json", tags[0]),
              perRunPath("trace.json", tags[2]));
}

TEST(UniqueRunTags, IdenticalRunsKeepIdenticalTags)
{
    // Same name AND same fingerprint is the same run submitted twice;
    // it would hit the run cache, so the tags may legitimately match.
    std::vector<std::string> names = {"mp", "mp"};
    std::vector<std::uint64_t> fps = {7, 7};
    std::vector<std::string> tags = uniqueRunTags(names, fps);
    EXPECT_EQ(tags[0], tags[1]);
}

} // namespace
} // namespace obs
} // namespace mtp
