#include "bench/campaign.hh"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <unistd.h>

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
    res.steals = runner.steals();
    res.cacheEvictions = runner.cacheEvictions();
    res.executorThreads = runner.jobs();
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

namespace {

// Short local names for the shared emit helpers (bench/provenance.hh).
void
appendIndent(std::string &out, int indent)
{
    appendJsonIndent(out, indent);
}

void
appendString(std::string &out, const std::string &s)
{
    appendJsonString(out, s);
}

} // namespace

void
writeJsonValue(std::string &out, const obs::JsonValue &v, int indent)
{
    using Kind = obs::JsonValue::Kind;
    switch (v.kind) {
    case Kind::Null:
        out += "null";
        break;
    case Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
    case Kind::Number:
        appendJsonNumber(out, v.number);
        break;
    case Kind::String:
        appendString(out, v.str);
        break;
    case Kind::Array: {
        if (v.array.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            appendIndent(out, indent + 1);
            writeJsonValue(out, v.array[i], indent + 1);
            if (i + 1 < v.array.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += ']';
        break;
    }
    case Kind::Object: {
        if (v.object.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        std::size_t i = 0;
        for (const auto &[key, value] : v.object) {
            appendIndent(out, indent + 1);
            appendString(out, key);
            out += ": ";
            writeJsonValue(out, value, indent + 1);
            if (++i < v.object.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent);
        out += '}';
        break;
    }
    }
}

namespace {

void
appendStringArray(std::string &out, const std::vector<std::string> &v,
                  int indent)
{
    if (v.empty()) {
        out += "[]";
        return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
        appendIndent(out, indent + 1);
        appendString(out, v[i]);
        if (i + 1 < v.size())
            out += ',';
        out += '\n';
    }
    appendIndent(out, indent);
    out += ']';
}

void
appendTableJson(std::string &out, const Table &t, int indent)
{
    appendIndent(out, indent);
    out += "{\n";
    appendIndent(out, indent + 1);
    out += "\"name\": ";
    appendString(out, t.name);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"columns\": ";
    appendStringArray(out, t.columns, indent + 1);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"rows\": [";
    if (t.rows.empty()) {
        out += "]\n";
    } else {
        out += '\n';
        for (std::size_t r = 0; r < t.rows.size(); ++r) {
            const auto &row = t.rows[r];
            appendIndent(out, indent + 2);
            out += '{';
            for (std::size_t c = 0;
                 c < row.size() && c < t.columns.size(); ++c) {
                if (c)
                    out += ", ";
                appendString(out, t.columns[c]);
                out += ": ";
                if (row[c].kind == Cell::Kind::Number)
                    appendJsonNumber(out, row[c].num);
                else
                    appendString(out, row[c].text);
            }
            out += '}';
            if (r + 1 < t.rows.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent + 1);
        out += "]\n";
    }
    appendIndent(out, indent);
    out += '}';
}

void
appendFigureJson(std::string &out, const CampaignSpec &spec,
                 const FigureResult &r,
                 const std::vector<std::string> &fingerprints,
                 int indent)
{
    appendIndent(out, indent);
    out += "{\n";
    appendIndent(out, indent + 1);
    out += "\"name\": ";
    appendString(out, spec.name);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"title\": ";
    appendString(out, spec.title);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"anchor\": ";
    appendString(out, spec.anchor);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"volatile\": false,\n";
    appendIndent(out, indent + 1);
    out += "\"runs\": ";
    out += std::to_string(fingerprints.size());
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"fingerprints\": ";
    appendStringArray(out, fingerprints, indent + 1);
    out += ",\n";
    appendIndent(out, indent + 1);
    out += "\"tables\": [";
    if (r.tables.empty()) {
        out += "],\n";
    } else {
        out += '\n';
        for (std::size_t i = 0; i < r.tables.size(); ++i) {
            appendTableJson(out, r.tables[i], indent + 2);
            if (i + 1 < r.tables.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent + 1);
        out += "],\n";
    }
    appendIndent(out, indent + 1);
    out += "\"summary\": {";
    if (r.summary.empty()) {
        out += "},\n";
    } else {
        out += '\n';
        for (std::size_t i = 0; i < r.summary.size(); ++i) {
            appendIndent(out, indent + 2);
            appendString(out, r.summary[i].first);
            out += ": ";
            appendJsonNumber(out, r.summary[i].second);
            if (i + 1 < r.summary.size())
                out += ',';
            out += '\n';
        }
        appendIndent(out, indent + 1);
        out += "},\n";
    }
    appendIndent(out, indent + 1);
    out += "\"notes\": ";
    appendStringArray(out, r.notes, indent + 1);
    out += '\n';
    appendIndent(out, indent);
    out += '}';
}

} // namespace

void
writeManifest(std::ostream &os, const CampaignResult &res,
              bool includeSession)
{
    std::string out;
    out += "{\n";
    appendIndent(out, 1);
    out += "\"schema\": \"mtp-campaign-v1\",\n";
    appendProvenance(out, res.provenance, 1);
    out += ",\n";
    if (includeSession) {
        appendIndent(out, 1);
        out += "\"session\": {\n";
        appendIndent(out, 2);
        out += "\"jobs\": " + std::to_string(res.jobs) + ",\n";
        appendIndent(out, 2);
        out += "\"wallSeconds\": ";
        appendJsonNumber(out, res.wallSeconds);
        out += ",\n";
        appendIndent(out, 2);
        out +=
            "\"runsExecuted\": " + std::to_string(res.runsExecuted) +
            ",\n";
        appendIndent(out, 2);
        out += "\"cacheHits\": " + std::to_string(res.cacheHits) +
               ",\n";
        appendIndent(out, 2);
        out += "\"cacheMisses\": " + std::to_string(res.cacheMisses) +
               ",\n";
        appendIndent(out, 2);
        out += "\"cacheEvictions\": " +
               std::to_string(res.cacheEvictions) + ",\n";
        appendIndent(out, 2);
        out += "\"steals\": " + std::to_string(res.steals) + ",\n";
        appendIndent(out, 2);
        out += "\"executorThreads\": " +
               std::to_string(res.executorThreads) + ",\n";
        appendIndent(out, 2);
        out += "\"runsPerSec\": ";
        appendJsonNumber(out, res.runsPerSec);
        out += ",\n";
        appendIndent(out, 2);
        out += "\"figureWallSeconds\": {";
        std::size_t entries =
            res.figures.size() + res.rawFigures.size();
        if (entries == 0) {
            out += "}\n";
        } else {
            out += '\n';
            std::size_t i = 0;
            auto one = [&](const std::string &name, double secs) {
                appendIndent(out, 3);
                appendString(out, name);
                out += ": ";
                appendJsonNumber(out, secs);
                if (++i < entries)
                    out += ',';
                out += '\n';
            };
            for (const auto &f : res.figures)
                one(f.spec->name, f.wallSeconds);
            for (const auto &f : res.rawFigures)
                one(f.name, f.wallSeconds);
            appendIndent(out, 2);
            out += "}\n";
        }
        appendIndent(out, 1);
        out += "},\n";
    }
    appendIndent(out, 1);
    out += "\"figures\": [";
    std::size_t total = res.figures.size() + res.rawFigures.size();
    if (total == 0) {
        out += "]\n";
    } else {
        out += '\n';
        std::size_t i = 0;
        for (const auto &f : res.figures) {
            appendFigureJson(out, *f.spec, f.result, f.fingerprints, 2);
            if (++i < total)
                out += ',';
            out += '\n';
        }
        for (const auto &f : res.rawFigures) {
            appendIndent(out, 2);
            out += "{\n";
            appendIndent(out, 3);
            out += "\"name\": ";
            appendString(out, f.name);
            out += ",\n";
            appendIndent(out, 3);
            out += "\"title\": ";
            appendString(out, f.title);
            out += ",\n";
            appendIndent(out, 3);
            out += "\"anchor\": ";
            appendString(out, f.anchor);
            out += ",\n";
            appendIndent(out, 3);
            out += "\"volatile\": true,\n";
            appendIndent(out, 3);
            out += "\"raw\": ";
            writeJsonValue(out, f.raw, 3);
            out += '\n';
            appendIndent(out, 2);
            out += '}';
            if (++i < total)
                out += ',';
            out += '\n';
        }
        appendIndent(out, 1);
        out += "]\n";
    }
    out += "}\n";
    os << out;
}

} // namespace bench
} // namespace mtp
