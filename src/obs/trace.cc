#include "obs/trace.hh"

#include <cinttypes>
#include <cstdio>

#include "common/log.hh"

namespace mtp {
namespace obs {

namespace {

std::string
hexAddr(Addr addr)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%" PRIx64,
                  static_cast<std::uint64_t>(addr));
    return buf;
}

/** Type code of a demand store (mtp::ReqType order). */
constexpr std::uint8_t storeType = 1;

constexpr std::size_t
stageIndex(Stage s)
{
    return static_cast<std::size_t>(s);
}

/** Does this stage's event belong on the channel track? */
constexpr bool
isChannelStage(Stage s)
{
    return s == Stage::DramEnqueue || s == Stage::DramSchedule ||
           s == Stage::DramDone;
}

} // namespace

const char *
toString(Stage s)
{
    switch (s) {
      case Stage::Coalesce:
        return "coalesce";
      case Stage::MrqEnqueue:
        return "mrq_enq";
      case Stage::IcntInject:
        return "icnt_inject";
      case Stage::DramEnqueue:
        return "dram_enq";
      case Stage::DramSchedule:
        return "dram_sched";
      case Stage::DramDone:
        return "dram_done";
      case Stage::Return:
        return "return";
    }
    return "?";
}

const char *
toString(PrefEvent ev)
{
    switch (ev) {
      case PrefEvent::Issued:
        return "issued";
      case PrefEvent::DroppedThrottle:
        return "dropped_throttle";
      case PrefEvent::DroppedResident:
        return "dropped_resident";
      case PrefEvent::DroppedFull:
        return "dropped_full";
      case PrefEvent::LateMerge:
        return "late_merge";
      case PrefEvent::Fill:
        return "fill";
      case PrefEvent::Useful:
        return "useful";
      case PrefEvent::EarlyEvict:
        return "early_evict";
    }
    return "?";
}

const char *
reqTypeName(std::uint8_t type)
{
    switch (type) {
      case 0:
        return "load";
      case 1:
        return "store";
      case 2:
        return "sw_pref";
      case 3:
        return "hw_pref";
    }
    return "?";
}

TraceRecorder::TraceRecorder(bool lifecycle, bool throttle)
    : lifecycle_(lifecycle), throttle_(throttle)
{
}

void
TraceRecorder::addSink(EventSink *sink)
{
    MTP_ASSERT(sink, "null sink");
    sinks_.push_back(sink);
}

void
TraceRecorder::emit(const TraceEvent &ev)
{
    for (auto *sink : sinks_)
        sink->event(ev);
}

void
TraceRecorder::coalesce(CoreId core, Addr leadAddr, std::uint8_t type,
                        std::size_t txns, Cycle now)
{
    if (!lifecycle_)
        return;
    TraceEvent ev;
    ev.name = std::string("req:") + toString(Stage::Coalesce);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.args.emplace_back("txns", static_cast<double>(txns));
    ev.sargs.emplace_back("addr", hexAddr(leadAddr));
    ev.sargs.emplace_back("type", reqTypeName(type));
    emit(ev);
}

TraceRecorder::Lifecycle *
TraceRecorder::pending(Addr addr, CoreId core, bool store, Stage s)
{
    auto it = inflight_.find(addr);
    if (it == inflight_.end())
        return nullptr;
    for (Lifecycle &rec : it->second) {
        if (rec.core == core && rec.store == store &&
            rec.at[stageIndex(s)] == invalidCycle)
            return &rec;
    }
    return nullptr;
}

void
TraceRecorder::stage(Stage s, Addr addr, std::uint8_t type, CoreId core,
                     unsigned channel, Cycle now)
{
    if (!lifecycle_)
        return;
    MTP_ASSERT(s != Stage::Coalesce, "use coalesce() for that stage");

    bool store = type == storeType;
    Lifecycle *rec = nullptr;
    if (s == Stage::MrqEnqueue) {
        rec = &inflight_[addr].emplace_back();
        rec->core = core;
        rec->store = store;
        rec->at.fill(invalidCycle);
    } else {
        rec = pending(addr, core, store, s);
    }
    if (rec)
        rec->at[stageIndex(s)] = now;

    TraceEvent ev;
    ev.name = std::string("req:") + toString(s);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = isChannelStage(s) ? trackForChannel(channel)
                               : trackForCore(core);
    ev.sargs.emplace_back("addr", hexAddr(addr));
    ev.sargs.emplace_back("type", reqTypeName(type));
    emit(ev);

    // Stores complete at the controller (no response); everything else
    // closes out when its response reaches a core.
    if (rec && (s == Stage::Return || (s == Stage::DramDone && store)))
        close(addr, rec, type, channel, s, now);
}

void
TraceRecorder::merged(Addr addr, std::uint8_t type, CoreId core,
                      unsigned channel, Cycle now)
{
    if (!lifecycle_)
        return;
    bool store = type == storeType;
    if (Lifecycle *rec = pending(addr, core, store, Stage::DramEnqueue)) {
        rec->at[stageIndex(Stage::DramEnqueue)] = now;
        if (store)
            close(addr, rec, type, channel, Stage::DramEnqueue, now);
    }
}

void
TraceRecorder::close(Addr addr, const Lifecycle *closing, std::uint8_t type,
                     unsigned channel, Stage lastStage, Cycle now)
{
    auto it = inflight_.find(addr);
    const Lifecycle rec = *closing;
    it->second.erase(it->second.begin() + (closing - it->second.data()));
    if (it->second.empty())
        inflight_.erase(it);

    auto at = [&](Stage s) { return rec.at[stageIndex(s)]; };
    auto span = [&](Stage from, Stage to, Histogram &h) {
        if (at(from) != invalidCycle && at(to) != invalidCycle)
            h.sample(static_cast<double>(at(to) - at(from)));
    };
    span(Stage::MrqEnqueue, Stage::IcntInject, histMrq_);
    span(Stage::IcntInject, Stage::DramEnqueue, histIcntReq_);
    span(Stage::DramEnqueue, Stage::DramSchedule, histDramQueue_);
    span(Stage::DramSchedule, Stage::DramDone, histDramSvc_);
    if (lastStage == Stage::Return)
        span(Stage::DramDone, Stage::Return, histIcntResp_);

    if (at(Stage::DramSchedule) != invalidCycle &&
        at(Stage::DramDone) != invalidCycle) {
        TraceEvent ev;
        ev.name = std::string("dram:") + reqTypeName(type);
        ev.ph = 'X';
        ev.ts = at(Stage::DramSchedule);
        ev.dur = at(Stage::DramDone) - at(Stage::DramSchedule);
        ev.pid = trackForChannel(channel);
        ev.sargs.emplace_back("addr", hexAddr(addr));
        emit(ev);
    }
    if (at(Stage::MrqEnqueue) != invalidCycle) {
        Cycle total = now - at(Stage::MrqEnqueue);
        histTotal_.sample(static_cast<double>(total));
        TraceEvent ev;
        ev.name = std::string("mem:") + reqTypeName(type);
        ev.ph = 'X';
        ev.ts = at(Stage::MrqEnqueue);
        ev.dur = total;
        ev.pid = trackForCore(rec.core);
        ev.sargs.emplace_back("addr", hexAddr(addr));
        emit(ev);
        ++completed_;
    }
}

void
TraceRecorder::pref(PrefEvent evKind, Addr addr, CoreId core, Cycle now)
{
    if (!lifecycle_)
        return;
    TraceEvent ev;
    ev.name = std::string("pref:") + toString(evKind);
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.sargs.emplace_back("addr", hexAddr(addr));
    emit(ev);
}

void
TraceRecorder::throttleUpdate(CoreId core, Cycle now, std::uint64_t update,
                              std::uint64_t dFills, std::uint64_t dEarly,
                              std::uint64_t dUseful, double mergeRatio,
                              unsigned degree)
{
    if (!throttle_)
        return;
    TraceEvent ev;
    ev.name = "throttle:update";
    ev.ph = 'i';
    ev.ts = now;
    ev.pid = trackForCore(core);
    ev.args.emplace_back("update", static_cast<double>(update));
    ev.args.emplace_back("fills", static_cast<double>(dFills));
    ev.args.emplace_back("early", static_cast<double>(dEarly));
    ev.args.emplace_back("useful", static_cast<double>(dUseful));
    ev.args.emplace_back("mergeRatio", mergeRatio);
    ev.args.emplace_back("degree", static_cast<double>(degree));
    emit(ev);
}

void
TraceRecorder::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (!lifecycle_)
        return;
    for (auto *sink : sinks_) {
        sink->histogram("latency.mrqWait", histMrq_);
        sink->histogram("latency.icntReq", histIcntReq_);
        sink->histogram("latency.dramQueue", histDramQueue_);
        sink->histogram("latency.dramService", histDramSvc_);
        sink->histogram("latency.icntResp", histIcntResp_);
        sink->histogram("latency.total", histTotal_);
    }
}

} // namespace obs
} // namespace mtp
