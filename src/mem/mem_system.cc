#include "mem/mem_system.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace mtp {

// The obs layer identifies request types by raw code so it need not
// depend on mem headers; keep the documented mapping in sync.
static_assert(static_cast<std::uint8_t>(ReqType::DemandLoad) == 0 &&
                  static_cast<std::uint8_t>(ReqType::DemandStore) == 1 &&
                  static_cast<std::uint8_t>(ReqType::SwPrefetch) == 2 &&
                  static_cast<std::uint8_t>(ReqType::HwPrefetch) == 3,
              "obs::reqTypeName() assumes this ReqType enumerator order");

MemSystem::MemSystem(const SimConfig &cfg)
    : cfg_(cfg),
      numCores_(cfg.numCores),
      reqNet_(cfg.dramChannels, cfg.icntLatency),
      respNet_(cfg.numCores, cfg.icntLatency),
      inFlightToChannel_(cfg.dramChannels, 0),
      completions_(cfg.numCores)
{
    mrqs_.reserve(numCores_);
    for (unsigned c = 0; c < numCores_; ++c)
        mrqs_.push_back(std::make_unique<Mrq>(cfg.mrqEntries));
    channels_.reserve(cfg.dramChannels);
    for (unsigned ch = 0; ch < cfg.dramChannels; ++ch)
        channels_.push_back(std::make_unique<DramChannel>(cfg, ch));
    unsigned ports = (numCores_ + cfg.icntCoresPerPort - 1) /
                     cfg.icntCoresPerPort;
    portRR_.assign(ports, 0);
    portPass_.resize(ports);
    stalePorts_.resize(ports);
    for (unsigned port = 0; port < ports; ++port)
        stalePorts_.set(port);
    // Every channel's horizon starts stale.
    MTP_ASSERT(cfg.dramChannels <= 64, "at most 64 DRAM channels");
    chanHorizon_.assign(cfg.dramChannels, 0);
    chanStale_ = cfg.dramChannels == 64 ? ~0ULL
                                        : (1ULL << cfg.dramChannels) - 1;
#if MTP_SLOW_CHECKS
    chanVersion_.assign(cfg.dramChannels, 0);
#endif
}

void
MemSystem::setTracer(obs::TraceRecorder *tracer)
{
    tracer_ = tracer;
    for (auto &channel : channels_)
        channel->setTracer(tracer);
}

unsigned
MemSystem::channelOf(Addr addr) const
{
    return static_cast<unsigned>(blockIndex(addr) % channels_.size());
}

bool
MemSystem::issue(CoreId core, Addr blockAddr, ReqType type, Cycle now,
                 std::uint16_t bytes)
{
    MTP_ASSERT(core < numCores_, "issue() from unknown core ", core);
    MTP_ASSERT(blockAlign(blockAddr) == blockAddr,
               "issue() address not block aligned");
    Mrq &mrq = *mrqs_[core];
    const bool newHead = mrq.empty();
    bool pushed = mrq.push(MemRequest::make(blockAddr, type, core, now, bytes));
    if (pushed) {
        ++inTransit_;
        ++mrqOccupancy_;
        if (newHead)
            dropPortPass(core / cfg_.icntCoresPerPort);
    }
    return pushed;
}

void
MemSystem::upgradeToDemand(CoreId core, Addr addr)
{
    MTP_ASSERT(core < numCores_, "upgrade from unknown core ", core);
    if (mrqs_[core]->upgradeToDemand(addr))
        return;
    unsigned ch = channelOf(addr);
    if (reqNet_.upgradeToDemand(ch, addr))
        return;
    channels_[ch]->upgradeToDemand(addr);
}

void
MemSystem::injectFromPort(unsigned port, Cycle now)
{
    unsigned lo = port * cfg_.icntCoresPerPort;
    unsigned members = std::min(cfg_.icntCoresPerPort, numCores_ - lo);
    for (unsigned k = 0; k < members; ++k) {
        unsigned idx = (portRR_[port] + k) % members;
        CoreId core = lo + idx;
        Mrq &mrq = *mrqs_[core];
        if (mrq.empty())
            continue;
        unsigned ch = channelOf(mrq.head().addr);
        // Credit-based gating: never put more requests in flight than
        // the controller buffer can eventually hold.
        if (channels_[ch]->bufferOccupancy() + inFlightToChannel_[ch] >=
            cfg_.memBufEntries) {
            ++injCreditStalls_;
            continue;
        }
        MTP_OBS_HOOK(tracer_,
                     stage(obs::Stage::IcntInject, mrq.head().addr,
                           static_cast<std::uint8_t>(mrq.head().type),
                           core, ch, now));
        if (mrq.full())
            mrqFreedTo_.push_back(core);
        reqNet_.send(ch, mrq.pop(), now);
        MTP_ASSERT(mrqOccupancy_ > 0, "MRQ occupancy underflow");
        --mrqOccupancy_;
        ++inFlightToChannel_[ch];
        portRR_[port] = (idx + 1) % members;
        return;
    }
}

int
MemSystem::gatedHeads(unsigned port, std::uint64_t &channels) const
{
    unsigned lo = port * cfg_.icntCoresPerPort;
    unsigned members = std::min(cfg_.icntCoresPerPort, numCores_ - lo);
    int stalls = 0;
    channels = 0;
    for (unsigned k = 0; k < members; ++k) {
        const Mrq &mrq = *mrqs_[lo + k];
        if (mrq.empty())
            continue;
        unsigned ch = channelOf(mrq.head().addr);
        if (channels_[ch]->bufferOccupancy() + inFlightToChannel_[ch] <
            cfg_.memBufEntries)
            return -1;
        ++stalls;
        channels |= 1ULL << ch;
    }
    return stalls;
}

void
MemSystem::dropPortPass(unsigned port)
{
    if (!stalePorts_.test(port)) {
        stalePorts_.set(port);
        cachedPassStalls_ -= portPass_[port].stalls;
    }
}

void
MemSystem::creditFreed(unsigned ch)
{
    for (unsigned port = 0; port < portPass_.size(); ++port) {
        if (portPass_[port].channels >> ch & 1)
            dropPortPass(port);
    }
}

void
MemSystem::deliverRequests(Cycle now)
{
    // Deliver request packets into controller buffers.
    for (unsigned ch = 0; ch < channels_.size(); ++ch) {
        while (reqNet_.frontReady(ch, now) && !channels_[ch]->bufferFull())
            deliverRequest(ch, now);
    }
}

void
MemSystem::deliverRequest(unsigned ch, Cycle now)
{
    MemRequest arrived = reqNet_.pop(ch);
    Addr addr = arrived.addr;
    auto type = static_cast<std::uint8_t>(arrived.type);
    CoreId origin = arrived.core;
    if (channels_[ch]->insert(std::move(arrived))) {
        // Inter-core merge: two in-transit requests became one. The
        // surviving buffered request keeps its own DramEnqueue
        // timestamp; no new lifecycle stage.
        MTP_OBS_HOOK(tracer_, merged(addr, type, origin, ch, now));
        MTP_ASSERT(inTransit_ > 0, "in-transit underflow on merge");
        --inTransit_;
    } else {
        MTP_OBS_HOOK(tracer_, stage(obs::Stage::DramEnqueue, addr, type,
                                    origin, ch, now));
    }
    MTP_ASSERT(inFlightToChannel_[ch] > 0, "in-flight underflow");
    --inFlightToChannel_[ch];
}

void
MemSystem::tickChannel(unsigned ch, Cycle now)
{
    // Advance one channel; route completions toward their sharer cores.
    DramChannel &channel = *channels_[ch];
    completedScratch_.clear();
    channel.tick(now, completedScratch_);
    for (auto &req : completedScratch_) {
        if (req.type == ReqType::DemandStore) {
            // Stores complete without a response.
            MTP_ASSERT(inTransit_ > 0, "in-transit underflow on store");
            --inTransit_;
            continue;
        }
        // One response packet per sharer core.
        inTransit_ += req.sharers.size() - 1;
        for (std::size_t i = 1; i < req.sharers.size(); ++i) {
            MemRequest copy = req;
            respNet_.send(req.sharers[i], std::move(copy), now);
        }
        CoreId first = req.sharers.front();
        respNet_.send(first, std::move(req), now);
    }
}

void
MemSystem::deliverResponses(Cycle now)
{
    // Deliver responses to cores (MSHR retirement happens there).
    for (CoreId core = 0; core < numCores_; ++core) {
        while (respNet_.frontReady(core, now))
            deliverResponse(core, now);
    }
}

void
MemSystem::deliverResponse(CoreId core, Cycle now)
{
    if (completions_[core].empty())
        deliveredTo_.push_back(core);
    completions_[core].push_back(respNet_.pop(core));
    MTP_ASSERT(inTransit_ > 0, "in-transit underflow on response");
    --inTransit_;
    ++completionsPending_;
    if (tracer_) {
        const MemRequest &resp = completions_[core].back();
        tracer_->stage(obs::Stage::Return, resp.addr,
                       static_cast<std::uint8_t>(resp.type), core,
                       channelOf(resp.addr), now);
    }
}

void
MemSystem::tick(Cycle now)
{
    deliveredTo_.clear();
    mrqFreedTo_.clear();
    deliverRequests(now);
    for (unsigned ch = 0; ch < channels_.size(); ++ch)
        tickChannel(ch, now);
    for (unsigned port = 0; port < portRR_.size(); ++port)
        injectFromPort(port, now);
    deliverResponses(now);
}

void
MemSystem::tickQueued(Cycle now)
{
    deliveredTo_.clear();
    mrqFreedTo_.clear();
    // Request delivery only when a packet's arrival time has passed; a
    // delivery blocked on a full controller buffer keeps the arrival
    // bound at or below now, so the phase re-runs every cycle until
    // the packet lands (as the ungated loop would). A delivery makes
    // its channel's horizon stale, and a merge frees a credit.
    if (reqNet_.nextArrivalAt() <= now) {
        for (unsigned ch = 0; ch < channels_.size(); ++ch) {
            if (reqNet_.frontArrivalAt(ch) > now)
                continue;
            const std::uint64_t inTransit = inTransit_;
            while (reqNet_.frontArrivalAt(ch) <= now &&
                   !channels_[ch]->bufferFull())
                deliverRequest(ch, now);
            chanStale_ |= 1ULL << ch;
            if (inTransit_ != inTransit)
                creditFreed(ch);
        }
    }
    // Channels only when their cached horizon is due. A future horizon
    // proves the ungated tick would neither retire nor schedule (the
    // bound is never late), so skipping it is a no-op. The deliveries
    // ran first and left their channels stale, exactly like the
    // ungated phase order. A scheduled request frees a credit.
    if (channelsDueAt(now) <= now) {
        for (unsigned ch = 0; ch < channels_.size(); ++ch) {
            if (chanHorizon_[ch] > now)
                continue;
            const std::size_t buffered = channels_[ch]->bufferOccupancy();
            tickChannel(ch, now);
            chanStale_ |= 1ULL << ch;
            if (channels_[ch]->bufferOccupancy() < buffered)
                creditFreed(ch);
        }
    }
    // Injection only when some MRQ is occupied; the ungated port loop
    // is a pure no-op otherwise (empty MRQs count no stalls). A held
    // pass books its stalls without running: the passes that do run
    // only take credits, so it stays gated whatever they inject.
    if (mrqOccupancy_ > 0) {
#if MTP_SLOW_CHECKS
        // Each held pass, run again without side effects, books the
        // same stalls and injects nothing.
        for (unsigned port = 0; port < portPass_.size(); ++port) {
            std::uint64_t channels = 0;
            MTP_ASSERT(stalePorts_.test(port) ||
                           (gatedHeads(port, channels) ==
                                static_cast<int>(portPass_[port].stalls) &&
                            channels == portPass_[port].channels),
                       "cached injection pass of port ", port,
                       " no longer holds at ", now);
        }
#endif
        injCreditStalls_ += cachedPassStalls_;
        stalePorts_.forEachSet([&](std::size_t p) {
            const auto port = static_cast<unsigned>(p);
            const std::uint64_t stalls = injCreditStalls_;
            const std::uint64_t sent = reqNet_.packetsSent();
            injectFromPort(port, now);
            if (reqNet_.packetsSent() != sent)
                return; // the head and round-robin pointer moved
            PortPass &pass = portPass_[port];
            pass.stalls = static_cast<std::uint32_t>(injCreditStalls_ - stalls);
            const int gated = gatedHeads(port, pass.channels);
            MTP_ASSERT(gated == static_cast<int>(pass.stalls),
                       "a pass that injected nothing left a head ungated");
            cachedPassStalls_ += pass.stalls;
            stalePorts_.clear(port);
        });
    }
    if (respNet_.nextArrivalAt() <= now) {
        for (CoreId core = 0; core < numCores_; ++core) {
            while (respNet_.frontArrivalAt(core) <= now)
                deliverResponse(core, now);
        }
    }
}

const std::vector<MemRequest> &
MemSystem::completions(CoreId core) const
{
    MTP_ASSERT(core < numCores_, "completions() for unknown core ", core);
    return completions_[core];
}

void
MemSystem::clearCompletions(CoreId core)
{
    MTP_ASSERT(core < numCores_, "clearCompletions() for unknown core ",
               core);
    MTP_ASSERT(completionsPending_ >= completions_[core].size(),
               "pending-completion counter underflow");
    completionsPending_ -= completions_[core].size();
    completions_[core].clear();
}

bool
MemSystem::drained() const
{
    bool fast = inTransit_ == 0 && completionsPending_ == 0;
#if MTP_SLOW_CHECKS
    MTP_ASSERT(fast == drainedScan(),
               "in-transit counters disagree with exhaustive scan");
#endif
    return fast;
}

Cycle
MemSystem::channelsDueAt(Cycle now) const
{
    horizonHits_ += channels_.size();
    if (chanStale_ != 0) {
        for (std::uint64_t bits = chanStale_; bits != 0; bits &= bits - 1) {
            auto ch = static_cast<unsigned>(std::countr_zero(bits));
            chanHorizon_[ch] = channels_[ch]->nextEventAt(now);
            --horizonHits_;
            ++horizonMisses_;
#if MTP_SLOW_CHECKS
            chanVersion_[ch] = channels_[ch]->stateVersion();
#endif
        }
        chanStale_ = 0;
        chanMin_ = invalidCycle;
        for (Cycle h : chanHorizon_)
            chanMin_ = std::min(chanMin_, h);
    }
#if MTP_SLOW_CHECKS
    // A channel that did not turn stale has not acted, so its bound
    // cannot have moved.
    for (unsigned ch = 0; ch < channels_.size(); ++ch)
        MTP_ASSERT(chanVersion_[ch] == channels_[ch]->stateVersion() &&
                       chanHorizon_[ch] == channels_[ch]->nextEventAt(now),
                   "channel ", ch, " acted without turning its horizon "
                   "stale");
#endif
    return chanMin_;
}

Cycle
MemSystem::nextSelfEventAt(Cycle now) const
{
    // Occupied MRQs arbitrate for injection every cycle: no skipping.
    // Pending completions do not pin the bound — the event-queue loop
    // arms the receiving cores directly and each drains its list on
    // its own next tick.
    if (mrqOccupancy_ > 0)
        return now;
    Cycle e = std::min(reqNet_.nextArrivalAt(), respNet_.nextArrivalAt());
    if (e <= now)
        return now;
    return std::max(now, std::min(e, channelsDueAt(now)));
}

bool
MemSystem::drainedScan() const
{
    for (const auto &mrq : mrqs_) {
        if (!mrq->empty())
            return false;
    }
    if (!reqNet_.drained() || !respNet_.drained())
        return false;
    for (const auto &channel : channels_) {
        if (!channel->drained())
            return false;
    }
    for (const auto &list : completions_) {
        if (!list.empty())
            return false;
    }
    return true;
}

std::uint64_t
MemSystem::dramBytes() const
{
    std::uint64_t n = 0;
    for (const auto &channel : channels_)
        n += channel->counters().bytesTransferred;
    return n;
}

void
MemSystem::exportStats(StatSet &set, const std::string &prefix) const
{
    for (unsigned c = 0; c < numCores_; ++c)
        mrqs_[c]->exportStats(set, prefix + ".core" + std::to_string(c) +
                                       ".mrq");
    for (unsigned ch = 0; ch < channels_.size(); ++ch)
        channels_[ch]->exportStats(set, prefix + ".dram" +
                                            std::to_string(ch));
    reqNet_.exportStats(set, prefix + ".reqNet");
    respNet_.exportStats(set, prefix + ".respNet");
    set.add(prefix + ".dramBytes", static_cast<double>(dramBytes()),
            "total DRAM data-bus bytes");
    set.add(prefix + ".injCreditStalls",
            static_cast<double>(injCreditStalls_),
            "injection attempts skipped by channel credit gating");
}

} // namespace mtp
