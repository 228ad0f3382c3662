/**
 * @file
 * Interconnection network (Table II): fixed 20-cycle traversal latency
 * in each direction, with request-side injection limited to one request
 * from every two cores per cycle. Modeled as order-preserving delay
 * pipes per destination; injection arbitration is performed by the
 * memory system using Icnt ports.
 */

#ifndef MTP_MEM_ICNT_HH
#define MTP_MEM_ICNT_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/log.hh" // MTP_SLOW_CHECKS
#include "common/stats.hh"
#include "mem/mem_request.hh"

namespace mtp {

/**
 * A set of order-preserving delay pipes, one per destination
 * (channels on the request path, cores on the response path).
 */
class Icnt
{
  public:
    /**
     * @param destinations number of delay pipes
     * @param latency fixed traversal latency in cycles
     */
    Icnt(unsigned destinations, unsigned latency);

    /** Inject @p req toward @p dest; it arrives at now + latency. */
    void send(unsigned dest, MemRequest &&req, Cycle now);

    /** @return true iff @p dest has a packet whose arrival time passed. */
    bool frontReady(unsigned dest, Cycle now) const;

    /**
     * Arrival time of @p dest's front packet, or invalidCycle when its
     * pipe is empty: frontReady() as a bound the event-queue loop can
     * test in O(1), kept per destination by send() and pop().
     */
    Cycle frontArrivalAt(unsigned dest) const { return frontAt_[dest]; }

    /** Pop the ready head packet of @p dest. */
    MemRequest pop(unsigned dest);

    /**
     * Promote an in-flight prefetch to @p dest for block @p addr to
     * demand priority (a demand merged with it upstream).
     * @return true if a packet was upgraded.
     */
    bool upgradeToDemand(unsigned dest, Addr addr);

    /** Packets currently in flight toward @p dest. */
    std::size_t inFlight(unsigned dest) const;

    /** Total packets in flight across all destinations. */
    std::size_t totalInFlight() const;

    /**
     * Earliest arrival time of any in-flight packet, or invalidCycle
     * when the network is empty: the network's contribution to the
     * simulation's next-event bound. O(1): the network has one fixed
     * latency and sends come in cycle order, so the earliest arrival
     * is that of the oldest packet still in flight, the head of the
     * per-cycle arrival counts.
     */
    Cycle
    nextArrivalAt() const
    {
        Cycle at = arrivals_.empty() ? invalidCycle : arrivals_.front().at;
#if MTP_SLOW_CHECKS
        MTP_ASSERT(at == nextArrivalScan(),
                   "Icnt arrival counts disagree with the pipe fronts");
#endif
        return at;
    }

    /** @return true iff nothing is in flight. */
    bool drained() const { return totalInFlight() == 0; }

    std::uint64_t packetsSent() const { return packetsSent_; }

    /** Export counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

  private:
    struct Timed
    {
        MemRequest req;
        Cycle readyAt;
    };

    /** Packets still in flight that arrive in one cycle. */
    struct Arrival
    {
        Cycle at;
        std::uint32_t packets;
    };

#if MTP_SLOW_CHECKS
    /** nextArrivalAt() as the minimum over every pipe's front packet. */
    Cycle nextArrivalScan() const;
#endif

    unsigned latency_;
    std::vector<std::deque<Timed>> pipes_;
    /** Per pipe: its front packet's arrival time, invalidCycle if empty. */
    std::vector<Cycle> frontAt_;
    /** In-flight packet counts per arrival cycle, oldest first. */
    std::deque<Arrival> arrivals_;
    std::uint64_t packetsSent_ = 0;
};

} // namespace mtp

#endif // MTP_MEM_ICNT_HH
