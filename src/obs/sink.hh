/**
 * @file
 * Pluggable observability sinks. Producers (the periodic Sampler and
 * the lifecycle TraceRecorder) emit two kinds of records:
 *
 *  - discrete trace events (request lifecycle stages, prefetch
 *    outcomes, throttle decisions), modelled on the Chrome trace-event
 *    format so one record maps onto Perfetto phases directly;
 *  - periodic samples: one row of probe values per sample boundary.
 *
 * Three concrete sinks cover the tooling paths: CSV time series for
 * spreadsheets/plotting, JSONL for ad-hoc scripting, and Chrome
 * trace-event JSON loadable in Perfetto / chrome://tracing (one track
 * per core and per DRAM channel, selected by the record's pid).
 */

#ifndef MTP_OBS_SINK_HH
#define MTP_OBS_SINK_HH

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtp {
namespace obs {

/** Track (Perfetto "process") ids: one per core, one per channel. */
constexpr int trackForCore(CoreId core)
{
    return static_cast<int>(core);
}
constexpr int trackForChannel(unsigned channel)
{
    return 1000 + static_cast<int>(channel);
}
constexpr int trackGlobal = 2000;

/**
 * Host-thread tracks (DESIGN.md §12): one per profiled host thread,
 * plus a clock-sync track carrying `host.simCycle` counter samples
 * that correlate the host-time tracks (real microseconds since the
 * profiling window opened) with the sim tracks (one microsecond per
 * simulated cycle).
 */
constexpr int trackForHostThread(int thread)
{
    return 3000 + thread;
}
constexpr int trackHostClock = 2999;

/** One discrete trace record (Chrome trace-event phases). */
struct TraceEvent
{
    std::string name;
    char ph = 'i'; //!< 'i' instant, 'X' complete, 'C' counter, 'M' meta
    Cycle ts = 0;  //!< core cycle (exported as microseconds 1:1)
    Cycle dur = 0; //!< duration in cycles, 'X' only
    int pid = trackGlobal;
    int tid = 0;
    std::vector<std::pair<std::string, double>> args;
    std::vector<std::pair<std::string, std::string>> sargs;
};

/** One column of the periodic sample row. */
struct SampleColumn
{
    std::string name;
    int pid = trackGlobal; //!< track the value belongs to
};

/** Abstract sink; implementations may ignore record kinds. */
class EventSink
{
  public:
    virtual ~EventSink() = default;

    /** A discrete trace event. */
    virtual void
    event(const TraceEvent &ev)
    {
        (void)ev;
    }

    /** The sample schema, sent once before the first sample() call. */
    virtual void
    sampleSchema(const std::vector<SampleColumn> &columns)
    {
        (void)columns;
    }

    /** One sample row; values align with the schema columns. */
    virtual void
    sample(Cycle cycle, const std::vector<double> &values)
    {
        (void)cycle;
        (void)values;
    }

    /** A finished latency-breakdown histogram (end of run). */
    virtual void
    histogram(const std::string &name, const Histogram &h)
    {
        (void)name;
        (void)h;
    }

    /** Flush and finalize the output; idempotent. */
    virtual void close() {}
};

/** Periodic samples as CSV: "cycle,<probe>,<probe>,..." rows. */
class CsvTimeSeriesSink : public EventSink
{
  public:
    explicit CsvTimeSeriesSink(const std::string &path);
    ~CsvTimeSeriesSink() override;

    void sampleSchema(const std::vector<SampleColumn> &columns) override;
    void sample(Cycle cycle, const std::vector<double> &values) override;
    void close() override;

  private:
    std::FILE *file_ = nullptr;
};

/** Every record as one JSON object per line. */
class JsonlSink : public EventSink
{
  public:
    /** Open @p path for writing. */
    explicit JsonlSink(const std::string &path);

    ~JsonlSink() override;

    void event(const TraceEvent &ev) override;
    void sampleSchema(const std::vector<SampleColumn> &columns) override;
    void sample(Cycle cycle, const std::vector<double> &values) override;
    void histogram(const std::string &name, const Histogram &h) override;
    void close() override;

  private:
    void writeLine(const std::string &line);

    std::FILE *file_ = nullptr;
    std::vector<std::string> columns_;
};

/**
 * Chrome trace-event JSON ({"traceEvents": [...]}). Trace events map
 * 1:1; sample rows become one counter ('C') event per column on the
 * column's track. Cycle timestamps are exported as microseconds 1:1,
 * so one Perfetto microsecond is one core cycle.
 */
class ChromeTraceSink : public EventSink
{
  public:
    explicit ChromeTraceSink(const std::string &path);
    ~ChromeTraceSink() override;

    void event(const TraceEvent &ev) override;
    void sampleSchema(const std::vector<SampleColumn> &columns) override;
    void sample(Cycle cycle, const std::vector<double> &values) override;
    void close() override;

  private:
    void emit(const std::string &record);

    std::FILE *file_ = nullptr;
    bool first_ = true;
    std::vector<SampleColumn> columns_;
};

/** In-memory sink for tests and programmatic consumers. */
class CaptureSink : public EventSink
{
  public:
    struct SampleRow
    {
        Cycle cycle;
        std::vector<double> values;
    };

    void
    event(const TraceEvent &ev) override
    {
        events.push_back(ev);
    }

    void
    sampleSchema(const std::vector<SampleColumn> &columns) override
    {
        schema = columns;
    }

    void
    sample(Cycle cycle, const std::vector<double> &values) override
    {
        samples.push_back({cycle, values});
    }

    void
    histogram(const std::string &name, const Histogram &h) override
    {
        histograms.emplace_back(name, &h);
    }

    /** Index of column @p name in the schema, or -1. */
    int column(const std::string &name) const;

    std::vector<TraceEvent> events;
    std::vector<SampleColumn> schema;
    std::vector<SampleRow> samples;
    std::vector<std::pair<std::string, const Histogram *>> histograms;
};

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_SINK_HH
