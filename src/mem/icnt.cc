#include "mem/icnt.hh"

#include "common/log.hh"

namespace mtp {

Icnt::Icnt(unsigned destinations, unsigned latency)
    : latency_(latency), pipes_(destinations)
{
    MTP_ASSERT(destinations > 0, "Icnt needs at least one destination");
}

void
Icnt::send(unsigned dest, MemRequest &&req, Cycle now)
{
    MTP_ASSERT(dest < pipes_.size(), "Icnt destination ", dest,
               " out of range");
    Cycle arrival = now + latency_;
    pipes_[dest].push_back({std::move(req), arrival});
    ++packetsSent_;
    if (!minDirty_ && arrival < minArrival_)
        minArrival_ = arrival;
}

bool
Icnt::frontReady(unsigned dest, Cycle now) const
{
    MTP_ASSERT(dest < pipes_.size(), "Icnt destination ", dest,
               " out of range");
    return !pipes_[dest].empty() && pipes_[dest].front().readyAt <= now;
}

MemRequest
Icnt::pop(unsigned dest)
{
    MTP_ASSERT(dest < pipes_.size() && !pipes_[dest].empty(),
               "pop() on empty Icnt pipe ", dest);
    MemRequest req = std::move(pipes_[dest].front().req);
    if (pipes_[dest].front().readyAt == minArrival_)
        minDirty_ = true; // the cached minimum may leave the network
    pipes_[dest].pop_front();
    return req;
}

bool
Icnt::upgradeToDemand(unsigned dest, Addr addr)
{
    MTP_ASSERT(dest < pipes_.size(), "Icnt destination ", dest,
               " out of range");
    for (auto &timed : pipes_[dest]) {
        if (timed.req.addr == addr && isPrefetch(timed.req.type)) {
            timed.req.type = ReqType::DemandLoad;
            return true;
        }
    }
    return false;
}

std::size_t
Icnt::inFlight(unsigned dest) const
{
    MTP_ASSERT(dest < pipes_.size(), "Icnt destination ", dest,
               " out of range");
    return pipes_[dest].size();
}

std::size_t
Icnt::totalInFlight() const
{
    std::size_t n = 0;
    for (const auto &p : pipes_)
        n += p.size();
    return n;
}

Cycle
Icnt::nextArrivalAt() const
{
    if (minDirty_) {
        minArrival_ = invalidCycle;
        for (const auto &p : pipes_) {
            if (!p.empty() && p.front().readyAt < minArrival_)
                minArrival_ = p.front().readyAt;
        }
        minDirty_ = false;
    }
#if MTP_SLOW_CHECKS
    Cycle scan = invalidCycle;
    for (const auto &p : pipes_) {
        if (!p.empty() && p.front().readyAt < scan)
            scan = p.front().readyAt;
    }
    MTP_ASSERT(scan == minArrival_,
               "cached Icnt arrival minimum out of sync");
#endif
    return minArrival_;
}

void
Icnt::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".packets", static_cast<double>(packetsSent_),
            "packets injected");
}

} // namespace mtp
