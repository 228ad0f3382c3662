#include "mem/mrq.hh"

#include "common/log.hh"

namespace mtp {

bool
Mrq::push(MemRequest &&req)
{
    if (full()) {
        ++counters_.fullStalls;
        return false;
    }
    ++counters_.pushes;
    queue_.push_back(std::move(req));
    return true;
}

const MemRequest &
Mrq::head() const
{
    // FIFO drain: the paper applies demand-over-prefetch priority at
    // the DRAM controller (Table II), not in the core's queue — so
    // prefetch requests genuinely delay later demands here, the effect
    // Sec. IV-B describes.
    MTP_ASSERT(!queue_.empty(), "head() on empty MRQ");
    return queue_.front();
}

MemRequest
Mrq::pop()
{
    MTP_ASSERT(!queue_.empty(), "pop() on empty MRQ");
    MemRequest req = std::move(queue_.front());
    queue_.pop_front();
    return req;
}

bool
Mrq::upgradeToDemand(Addr addr)
{
    for (auto &req : queue_) {
        if (req.addr == addr && isPrefetch(req.type)) {
            req.type = ReqType::DemandLoad;
            return true;
        }
    }
    return false;
}

void
Mrq::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".pushes", static_cast<double>(counters_.pushes),
            "requests enqueued");
    set.add(prefix + ".fullStalls",
            static_cast<double>(counters_.fullStalls),
            "pushes rejected because the queue was full");
    set.add(prefix + ".gatedStalls",
            static_cast<double>(counters_.gatedStalls),
            "cycles an upstream unit stalled on the full queue");
}

} // namespace mtp
