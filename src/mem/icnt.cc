#include "mem/icnt.hh"

#include "common/log.hh"

namespace mtp {

Icnt::Icnt(unsigned destinations, unsigned latency)
    : latency_(latency), pipes_(destinations),
      frontAt_(destinations, invalidCycle)
{
    MTP_ASSERT(destinations > 0, "Icnt needs at least one destination");
}

void
Icnt::send(unsigned dest, MemRequest &&req, Cycle now)
{
    MTP_ASSERT(dest < pipes_.size(), "Icnt destination ", dest,
               " out of range");
    Cycle arrival = now + latency_;
    if (pipes_[dest].empty())
        frontAt_[dest] = arrival;
    pipes_[dest].push_back({std::move(req), arrival});
    ++packetsSent_;
    if (arrivals_.empty() || arrivals_.back().at != arrival) {
        MTP_ASSERT(arrivals_.empty() || arrivals_.back().at < arrival,
                   "Icnt sends out of cycle order");
        arrivals_.push_back({arrival, 1});
    } else {
        ++arrivals_.back().packets;
    }
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
    std::deque<Timed> &pipe = pipes_[dest];
    const Cycle arrival = pipe.front().readyAt;
    MemRequest req = std::move(pipe.front().req);
    pipe.pop_front();
    frontAt_[dest] = pipe.empty() ? invalidCycle : pipe.front().readyAt;
    // Packets are delivered when due, so the popped one almost always
    // belongs to the oldest arrival cycle; a delivery held back by a
    // full buffer leaves its cycle counted ahead of later ones.
    auto it = arrivals_.begin();
    while (it->at != arrival)
        ++it;
    --it->packets;
    while (!arrivals_.empty() && arrivals_.front().packets == 0)
        arrivals_.pop_front();
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

#if MTP_SLOW_CHECKS
Cycle
Icnt::nextArrivalScan() const
{
    Cycle scan = invalidCycle;
    for (std::size_t d = 0; d < pipes_.size(); ++d) {
        const auto &p = pipes_[d];
        MTP_ASSERT(frontAt_[d] ==
                       (p.empty() ? invalidCycle : p.front().readyAt),
                   "Icnt front arrival of pipe ", d, " out of sync");
        if (!p.empty() && p.front().readyAt < scan)
            scan = p.front().readyAt;
    }
    return scan;
}
#endif

void
Icnt::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".packets", static_cast<double>(packetsSent_),
            "packets injected");
}

} // namespace mtp
