#include "bench/campaign.hh"

#include <cstdio>

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {

const std::vector<CampaignSpec> &
campaignSpecs()
{
    static const std::vector<CampaignSpec> specs = {
        specTab02Config(),
        specTab03Characteristics(),
        specTab04Nonmem(),
        specTab06Cost(),
        specFig07Mtaml(),
        specFig08Latency(),
        specFig10Swp(),
        specFig11SwpThrottle(),
        specFig12EarlyBw(),
        specFig13HwBaselines(),
        specFig14MthwpAblation(),
        specFig15HwThrottle(),
        specFig16PcacheSize(),
        specFig17Distance(),
        specFig18Cores(),
        specAblDegree(),
        specAblLocality(),
        specAblThrottleMetrics(),
    };
    return specs;
}

const CampaignSpec *
findSpec(const std::string &name)
{
    for (const auto &spec : campaignSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

// --- run matrices --------------------------------------------------------

RunMatrix::RunMatrix(Runner &runner, const Options &opts,
                     const std::vector<std::string> &fallback,
                     std::vector<Column> columns)
    : columns_(std::move(columns))
{
    for (const std::string &name : selectBenchmarks(opts, fallback)) {
        Workload w = Suite::get(name, opts.scaleDiv);
        baselines_.push_back(runner.submit(baseConfig(opts), w.kernel));
        std::vector<std::shared_future<RunResult>> row;
        for (const Column &col : columns_)
            row.push_back(runner.submit(
                col.cfg, col.sw == SwPrefKind::None ? w.kernel
                                                    : w.variant(col.sw)));
        runs_.push_back(std::move(row));
        workloads_.push_back(std::move(w));
    }
}

const RunResult &
RunMatrix::baseline(std::size_t b) const
{
    return baselines_[b].get();
}

const RunResult &
RunMatrix::run(std::size_t b, std::size_t c) const
{
    return runs_[b][c].get();
}

double
RunMatrix::speedup(std::size_t b, std::size_t c) const
{
    return static_cast<double>(baseline(b).cycles) / run(b, c).cycles;
}

std::vector<double>
RunMatrix::speedups(std::size_t c) const
{
    std::vector<double> out;
    for (std::size_t b = 0; b < size(); ++b)
        out.push_back(speedup(b, c));
    return out;
}

void
RunMatrix::speedupTable(FigureResult &out, const std::string &name,
                        bool typeColumn, std::size_t first,
                        std::size_t last) const
{
    last = std::min(last, columns_.size());
    Table t;
    t.name = name;
    t.columns = {"bench"};
    if (typeColumn)
        t.columns.push_back("type");
    for (std::size_t c = first; c < last; ++c)
        t.columns.push_back(columns_[c].name);
    for (std::size_t b = 0; b < size(); ++b) {
        std::vector<Cell> row = {Cell::str(workloads_[b].info.name)};
        if (typeColumn)
            row.push_back(Cell::str(toString(workloads_[b].info.type)));
        for (std::size_t c = first; c < last; ++c)
            row.push_back(Cell::number(speedup(b, c)));
        t.addRow(std::move(row));
    }
    std::vector<Cell> gm = {Cell::str("geomean")};
    if (typeColumn)
        gm.push_back(Cell::str(""));
    for (std::size_t c = first; c < last; ++c) {
        double g = geomean(speedups(c));
        gm.push_back(Cell::number(g));
        if (!columns_[c].metric.empty())
            out.metric("geomean." + columns_[c].metric, g);
    }
    t.addRow(std::move(gm));
    out.tables.push_back(std::move(t));
}

// --- human rendering ----------------------------------------------------

namespace {

std::string
formatCell(const Cell &c)
{
    if (c.kind == Cell::Kind::Text)
        return c.text;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", c.prec, c.num);
    return buf;
}

} // namespace

void
renderFigure(std::FILE *out, const CampaignSpec &spec,
             const FigureResult &result)
{
    std::fprintf(out, "\n== %s — %s [%s] ==\n", spec.anchor.c_str(),
                 spec.title.c_str(), spec.name.c_str());
    for (const Table &t : result.tables) {
        if (result.tables.size() > 1 && !t.name.empty())
            std::fprintf(out, "\n-- %s --\n", t.name.c_str());
        else
            std::fprintf(out, "\n");

        const std::size_t cols = t.columns.size();
        std::vector<std::size_t> width(cols);
        std::vector<bool> numeric(cols, false);
        for (std::size_t c = 0; c < cols; ++c)
            width[c] = t.columns[c].size();
        for (const auto &row : t.rows) {
            for (std::size_t c = 0; c < cols && c < row.size(); ++c) {
                width[c] = std::max(width[c], formatCell(row[c]).size());
                if (row[c].kind == Cell::Kind::Number)
                    numeric[c] = true;
            }
        }
        auto printRow = [&](const std::vector<std::string> &cells,
                            const std::vector<bool> &right) {
            for (std::size_t c = 0; c < cells.size(); ++c) {
                int w = static_cast<int>(width[c]);
                std::fprintf(out, "%s%*s", c ? "  " : "",
                             right[c] ? w : -w, cells[c].c_str());
            }
            std::fprintf(out, "\n");
        };
        printRow(t.columns, numeric);
        for (const auto &row : t.rows) {
            std::vector<std::string> cells;
            std::vector<bool> right;
            for (std::size_t c = 0; c < cols && c < row.size(); ++c) {
                cells.push_back(formatCell(row[c]));
                right.push_back(row[c].kind == Cell::Kind::Number);
            }
            printRow(cells, right);
        }
    }
    if (!result.summary.empty()) {
        std::fprintf(out, "\nsummary:\n");
        for (const auto &[name, value] : result.summary)
            std::fprintf(out, "  %-28s %.4f\n", name.c_str(), value);
    }
    for (const auto &note : result.notes)
        std::fprintf(out, "# %s\n", note.c_str());
}

// --- provenance ---------------------------------------------------------

Provenance
collectProvenance(const Options &opts)
{
    return collectProvenance(opts.scaleDiv, opts.throttlePeriod,
                             opts.overrides, opts.benchmarks);
}

// --- live progress ------------------------------------------------------

void
CampaignProgress::bind(const Runner *runner, Cycle period)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runner_ = runner;
    period_ = period;
}

void
CampaignProgress::beginFigure(std::size_t index, std::size_t total,
                              const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    figIndex_ = index;
    figTotal_ = total;
    figure_ = name;
    figStart_ = std::chrono::steady_clock::now();
    if (runner_) {
        figStartMisses_ = runner_->cacheMisses();
        figStartExecuted_ = runner_->executed();
    }
}

void
CampaignProgress::finish()
{
    std::lock_guard<std::mutex> lock(mutex_);
    runner_ = nullptr;
}

CampaignProgress::View
CampaignProgress::view() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    View v;
    v.active = runner_ != nullptr;
    v.figIndex = figIndex_;
    v.figTotal = figTotal_;
    v.figure = figure_;
    v.samplePeriod = period_;
    v.samples = samples_.load(std::memory_order_relaxed);
    if (runner_) {
        v.figSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - figStart_)
                .count();
        v.hits = runner_->cacheHits();
        v.misses = runner_->cacheMisses();
        v.executed = runner_->executed();
        v.figStartMisses = figStartMisses_;
        v.figStartExecuted = figStartExecuted_;
    }
    return v;
}

// --- campaign execution -------------------------------------------------

CampaignResult
runCampaign(const Options &opts, const std::vector<std::string> &only,
            CampaignProgress *progress,
            const std::function<void(const FigureRun &)> &onFigure)
{
    // Every name is checked before the first figure simulates.
    checkBenchmarks(opts.benchmarks);
    std::vector<const CampaignSpec *> selected;
    if (only.empty()) {
        for (const auto &spec : campaignSpecs())
            selected.push_back(&spec);
    } else {
        for (const auto &name : only) {
            const CampaignSpec *spec = findSpec(name);
            if (!spec)
                cli::fail("unknown campaign figure '" + name +
                          "' (mtp-campaign --list prints them)");
            selected.push_back(spec);
        }
    }

    CampaignResult res;
    res.provenance = collectProvenance(opts);

    Runner runner(opts);
    res.jobs = runner.jobs();
    Cycle period =
        opts.samplePeriod ? opts.samplePeriod : opts.throttlePeriod;
    if (progress) {
        obs::ObsConfig defaults;
        defaults.samplePeriod = period;
        defaults.forwardSink = progress;
        runner.setObsDefaults(defaults);
        progress->bind(&runner, period);
    }

    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const CampaignSpec *spec = selected[i];
        if (progress)
            progress->beginFigure(i, selected.size(), spec->name);
        // Each miss created one cache entry: the figure's own runs are
        // the entries from here on.
        std::size_t firstRun = runner.cacheMisses();
        auto f0 = std::chrono::steady_clock::now();

        FigureRun fr;
        fr.spec = spec;
        fr.result = spec->run(runner, opts);
        fr.wallSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - f0)
                             .count();
        fr.fingerprints = runner.fingerprints(firstRun);
        if (onFigure)
            onFigure(fr);
        res.figures.push_back(std::move(fr));
    }
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    res.runsExecuted = runner.cacheMisses();
    res.cacheHits = runner.cacheHits();
    res.cacheMisses = runner.cacheMisses();
    res.hostCounters = runner.hostCounters();
    res.runsPerSec = res.wallSeconds > 0.0
                         ? static_cast<double>(res.runsExecuted) /
                               res.wallSeconds
                         : 0.0;
    if (progress)
        progress->finish();
    return res;
}

// --- JSON emission ------------------------------------------------------

void
writeJsonValue(std::string &out, const obs::JsonValue &v, int indent)
{
    json::Writer w(out, json::Layout::Pretty, indent);
    v.write(w);
}

namespace {

void
writeTable(json::Writer &w, const Table &t)
{
    w.beginObject().field("name", t.name).field("columns", t.columns);
    w.key("rows").beginArray();
    for (const auto &row : t.rows) {
        // One line per row, keyed by column name.
        w.beginObject(json::Layout::Inline);
        for (std::size_t c = 0; c < row.size() && c < t.columns.size();
             ++c) {
            w.key(t.columns[c]);
            if (row[c].kind == Cell::Kind::Number)
                w.value(row[c].num);
            else
                w.value(row[c].text);
        }
        w.endObject();
    }
    w.endArray().endObject();
}

void
writeFigure(json::Writer &w, const FigureRun &f)
{
    const FigureResult &r = f.result;
    w.beginObject()
        .field("name", f.spec->name)
        .field("title", f.spec->title)
        .field("anchor", f.spec->anchor)
        .field("volatile", false)
        .field("runs", f.fingerprints.size())
        .field("fingerprints", f.fingerprints);
    w.key("tables").beginArray();
    for (const Table &t : r.tables)
        writeTable(w, t);
    w.endArray();
    w.key("summary").beginObject();
    for (const auto &[name, value] : r.summary)
        w.field(name, value);
    w.endObject();
    w.field("notes", r.notes).endObject();
}

} // namespace

void
writeManifest(std::ostream &os, const CampaignResult &res,
              bool includeSession)
{
    std::string out;
    json::Writer w(out);
    w.beginObject().field("schema", "mtp-campaign-v1");
    appendProvenance(w, res.provenance);
    if (includeSession) {
        w.key("session")
            .beginObject()
            .field("jobs", res.jobs)
            .field("wallSeconds", res.wallSeconds)
            .field("runsExecuted", res.runsExecuted)
            .field("cacheHits", res.cacheHits)
            .field("cacheMisses", res.cacheMisses)
            .field("runsPerSec", res.runsPerSec);
        w.key("figureWallSeconds").beginObject();
        for (const auto &f : res.figures)
            w.field(f.spec->name, f.wallSeconds);
        for (const auto &f : res.rawFigures)
            w.field(f.name, f.wallSeconds);
        w.endObject().endObject();
    }
    w.key("figures").beginArray();
    for (const auto &f : res.figures)
        writeFigure(w, f);
    for (const auto &f : res.rawFigures) {
        w.beginObject()
            .field("name", f.name)
            .field("title", f.title)
            .field("anchor", f.anchor)
            .field("volatile", true)
            .key("raw");
        f.raw.write(w);
        w.endObject();
    }
    w.endArray().endObject();
    out += '\n';
    os << out;
}

} // namespace bench
} // namespace mtp
