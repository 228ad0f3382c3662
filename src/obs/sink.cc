#include "obs/sink.hh"

#include "common/log.hh"

namespace mtp {
namespace obs {

namespace {

std::FILE *
openOrDie(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        MTP_FATAL("cannot open trace output '", path, "'");
    return f;
}

void
flush(std::FILE *f, std::string &buf)
{
    std::fwrite(buf.data(), 1, buf.size(), f);
    buf.clear();
}

/** Write the Chrome trace-event members of @p ev (no braces). */
void
writeEvent(json::Writer &w, const TraceEvent &ev)
{
    w.field("name", ev.name)
        .field("ph", std::string_view(&ev.ph, 1))
        .field("pid", ev.pid)
        .field("tid", ev.tid);
    if (ev.ph != 'M')
        w.field("ts", ev.ts);
    if (ev.ph == 'X')
        w.field("dur", ev.dur);
    if (ev.args.empty() && ev.sargs.empty())
        return;
    w.key("args").beginObject();
    for (const auto &[key, value] : ev.args)
        w.field(key, value);
    for (const auto &[key, value] : ev.sargs)
        w.field(key, value);
    w.endObject();
}

} // namespace

// --- CsvTimeSeriesSink ---------------------------------------------------

CsvTimeSeriesSink::CsvTimeSeriesSink(const std::string &path)
    : file_(openOrDie(path))
{
}

CsvTimeSeriesSink::~CsvTimeSeriesSink()
{
    close();
}

void
CsvTimeSeriesSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    std::string header = "cycle";
    for (const auto &col : columns) {
        header += ',';
        header += col.name;
    }
    header += '\n';
    std::fwrite(header.data(), 1, header.size(), file_);
}

void
CsvTimeSeriesSink::sample(Cycle cycle, const std::vector<double> &values)
{
    std::string row = std::to_string(cycle);
    for (double v : values) {
        row += ',';
        json::appendNumber(row, v);
    }
    row += '\n';
    std::fwrite(row.data(), 1, row.size(), file_);
}

void
CsvTimeSeriesSink::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --- JsonlSink -----------------------------------------------------------

JsonlSink::JsonlSink(const std::string &path) : file_(openOrDie(path))
{
}

JsonlSink::~JsonlSink()
{
    close();
}

void
JsonlSink::endLine()
{
    buf_ += '\n';
    flush(file_, buf_);
}

void
JsonlSink::event(const TraceEvent &ev)
{
    json::Writer w(buf_, json::Layout::Compact);
    w.beginObject().field("t", "event");
    writeEvent(w, ev);
    w.endObject();
    endLine();
}

void
JsonlSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    columns_.clear();
    for (const auto &col : columns)
        columns_.push_back(col.name);
    json::Writer(buf_, json::Layout::Compact)
        .beginObject()
        .field("t", "schema")
        .field("columns", columns_)
        .endObject();
    endLine();
}

void
JsonlSink::sample(Cycle cycle, const std::vector<double> &values)
{
    json::Writer w(buf_, json::Layout::Compact);
    w.beginObject().field("t", "sample").field("cycle", cycle);
    w.key("v").beginObject();
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i < columns_.size())
            w.key(columns_[i]);
        else
            w.key("col" + std::to_string(i));
        w.value(values[i]);
    }
    w.endObject().endObject();
    endLine();
}

void
JsonlSink::histogram(const std::string &name, const Histogram &h)
{
    json::Writer w(buf_, json::Layout::Compact);
    w.beginObject()
        .field("t", "hist")
        .field("name", name)
        .field("count", h.count())
        .field("mean", h.mean())
        .field("min", h.minValue())
        .field("max", h.maxValue())
        .field("underflow", h.underflow())
        .field("overflow", h.overflow());
    w.key("buckets").beginArray();
    for (unsigned i = 0; i < h.buckets(); ++i)
        w.value(h.bucketCount(i));
    w.endArray().endObject();
    endLine();
}

void
JsonlSink::close()
{
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

// --- ChromeTraceSink -----------------------------------------------------

ChromeTraceSink::ChromeTraceSink(const std::string &path)
    : file_(openOrDie(path))
{
    w_.beginObject().field("displayTimeUnit", "ns");
    w_.key("traceEvents").beginArray();
}

ChromeTraceSink::~ChromeTraceSink()
{
    close();
}

void
ChromeTraceSink::event(const TraceEvent &ev)
{
    w_.beginObject(json::Layout::Compact);
    writeEvent(w_, ev);
    w_.endObject();
    flush(file_, buf_);
}

void
ChromeTraceSink::sampleSchema(const std::vector<SampleColumn> &columns)
{
    columns_ = columns;
}

void
ChromeTraceSink::sample(Cycle cycle, const std::vector<double> &values)
{
    // One counter event per column, on the column's track.
    for (std::size_t i = 0; i < values.size() && i < columns_.size();
         ++i) {
        TraceEvent ev;
        ev.name = columns_[i].name;
        ev.ph = 'C';
        ev.ts = cycle;
        ev.pid = columns_[i].pid;
        ev.args.emplace_back("value", values[i]);
        event(ev);
    }
}

void
ChromeTraceSink::close()
{
    if (!file_)
        return;
    w_.endArray().endObject();
    buf_ += '\n';
    flush(file_, buf_);
    std::fclose(file_);
    file_ = nullptr;
}

// --- CaptureSink ---------------------------------------------------------

int
CaptureSink::column(const std::string &name) const
{
    for (std::size_t i = 0; i < schema.size(); ++i) {
        if (schema[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

} // namespace obs
} // namespace mtp
