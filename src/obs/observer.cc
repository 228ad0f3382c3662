#include "obs/observer.hh"

#include <cstdio>

#include "common/log.hh"
#include "obs/host_profiler.hh"

namespace mtp {
namespace obs {

Observer::Observer(const ObsConfig &cfg) : cfg_(cfg)
{
    if (cfg_.hostProfile) {
        HostProfiler::enable();
        hostStartNs_ = HostProfiler::nowNs();
    }
    if (cfg_.wantsTracer())
        tracer_ = std::make_unique<TraceRecorder>(cfg_.wantsLifecycle(),
                                                  true);

    if (!cfg_.timeSeriesCsv.empty()) {
        addSink(std::make_unique<CsvTimeSeriesSink>(cfg_.timeSeriesCsv),
                /*forSampler=*/true, /*forTracer=*/false);
    }
    if (!cfg_.jsonlPath.empty()) {
        addSink(std::make_unique<JsonlSink>(cfg_.jsonlPath),
                /*forSampler=*/true, /*forTracer=*/true);
    }
    if (!cfg_.chromePath.empty()) {
        addSink(std::make_unique<ChromeTraceSink>(cfg_.chromePath),
                /*forSampler=*/true, /*forTracer=*/true);
    }
    if (cfg_.forwardSink) {
        // Borrowed: joins the sampler only, stays out of all_ so
        // finish() never close()s it (it outlives this run).
        sampler_.addSink(cfg_.forwardSink);
    }
}

Observer::~Observer()
{
    finish();
}

void
Observer::addSink(std::unique_ptr<EventSink> sink, bool forSampler,
                  bool forTracer)
{
    EventSink *raw = sink.get();
    owned_.push_back(std::move(sink));
    all_.push_back(raw);
    if (forSampler)
        sampler_.addSink(raw);
    if (forTracer && tracer_)
        tracer_->addSink(raw);
}

CaptureSink *
Observer::addCapture()
{
    auto sink = std::make_unique<CaptureSink>();
    CaptureSink *raw = sink.get();
    addSink(std::move(sink), /*forSampler=*/true, /*forTracer=*/true);
    return raw;
}

void
Observer::declareTrack(int pid, const std::string &name)
{
    TraceEvent ev;
    ev.name = "process_name";
    ev.ph = 'M';
    ev.pid = pid;
    ev.sargs.emplace_back("name", name);
    for (auto *sink : all_)
        sink->event(ev);
}

void
Observer::recordHostSync(Cycle simCycle)
{
    if (!cfg_.hostProfile)
        return;
    hostSync_.emplace_back(HostProfiler::nowNs(), simCycle);
}

void
Observer::emitHostTracks()
{
    HostProfiler::Snapshot snap =
        HostProfiler::snapshot(/*includeEvents=*/true);

    // Clock-sync track: host.simCycle counter samples place the sim
    // timeline on the host timeline (both in this run's window).
    declareTrack(trackHostClock, "host clock sync");
    for (const auto &[hostNs, cycle] : hostSync_) {
        if (hostNs < hostStartNs_)
            continue;
        TraceEvent ev;
        ev.name = "host.simCycle";
        ev.ph = 'C';
        ev.ts = (hostNs - hostStartNs_) / 1000;
        ev.pid = trackHostClock;
        ev.args.emplace_back("cycle", static_cast<double>(cycle));
        for (auto *sink : all_)
            sink->event(ev);
    }

    int index = 0;
    for (const auto &t : snap.threads) {
        int pid = trackForHostThread(index++);
        declareTrack(pid, "host: " + t.name);
        for (const auto &e : t.events) {
            // Window to this run: the profiler is process-global and
            // its rings may hold events from before this observer.
            if (e.startNs < hostStartNs_)
                continue;
            TraceEvent ev;
            ev.name = toString(e.phase);
            ev.ph = 'X';
            ev.ts = (e.startNs - hostStartNs_) / 1000;
            ev.dur = e.durNs / 1000;
            ev.pid = pid;
            for (auto *sink : all_)
                sink->event(ev);
        }
    }
}

void
Observer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (tracer_)
        tracer_->finish();
    if (cfg_.hostProfile && !all_.empty())
        emitHostTracks();
    for (auto *sink : all_)
        sink->close();
}

std::string
perRunPath(const std::string &base, const std::string &runTag)
{
    if (base.empty() || runTag.empty())
        return base;
    auto slash = base.find_last_of('/');
    auto dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash)) {
        return base + "." + runTag;
    }
    return base.substr(0, dot) + "." + runTag + base.substr(dot);
}

std::vector<std::string>
uniqueRunTags(const std::vector<std::string> &names,
              const std::vector<std::uint64_t> &fingerprints)
{
    MTP_ASSERT(names.size() == fingerprints.size(),
               "uniqueRunTags: ", names.size(), " names vs ",
               fingerprints.size(), " fingerprints");
    std::vector<std::string> tags;
    tags.reserve(names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        bool dup = false;
        for (std::size_t j = 0; j < names.size() && !dup; ++j)
            dup = j != i && names[j] == names[i];
        if (!dup) {
            tags.push_back(names[i]);
            continue;
        }
        char hex[17];
        std::snprintf(hex, sizeof(hex), "%016llx",
                      static_cast<unsigned long long>(fingerprints[i]));
        tags.push_back(names[i] + "-" + hex);
    }
    return tags;
}

} // namespace obs
} // namespace mtp
