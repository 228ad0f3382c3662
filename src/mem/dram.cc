#include "mem/dram.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace mtp {

namespace {

/** Convert a DRAM-clock cycle count to core cycles (rounding up). */
Cycle
toCoreCycles(unsigned dram_cycles, unsigned num, unsigned den)
{
    // core_freq / mem_freq = den / num, so t_core = t_mem * den / num.
    return (static_cast<Cycle>(dram_cycles) * den + num - 1) / num;
}

} // namespace

DramChannel::DramChannel(const SimConfig &cfg, unsigned channelId)
    : channelId_(channelId),
      channels_(cfg.dramChannels),
      numBanks_(cfg.dramBanks),
      blocksPerRow_(cfg.dramRowBytes / blockBytes),
      demandPriority_(cfg.demandPriority),
      tCl_(toCoreCycles(cfg.dramTCL, cfg.memClockNum, cfg.memClockDen)),
      tRcd_(toCoreCycles(cfg.dramTRCD, cfg.memClockNum, cfg.memClockDen)),
      tRp_(toCoreCycles(cfg.dramTRP, cfg.memClockNum, cfg.memClockDen)),
      burst_(blockBytes / cfg.dramBusBytesPerCycle),
      extraLatency_(cfg.memLatencyExtra),
      slots_(cfg.memBufEntries),
      reqs_(cfg.memBufEntries),
      lists_(cfg.dramBanks * 2),
      banks_(cfg.dramBanks),
      bankPending_(cfg.dramBanks, 0)
{
    MTP_ASSERT(blocksPerRow_ > 0, "row smaller than a block");
    MTP_ASSERT(numBanks_ <= 64, "at most 64 banks per channel");
    MTP_ASSERT(burst_ > 0, "bus wider than a block");
    freeSlots_.reserve(slots_.size());
    for (int s = static_cast<int>(slots_.size()) - 1; s >= 0; --s)
        freeSlots_.push_back(s);
    // At most one cell per buffered request keeps the load <= 1/2.
    unsigned bits = 2;
    while ((std::size_t{1} << bits) < 2 * slots_.size())
        ++bits;
    index_.resize(std::size_t{1} << bits);
    indexShift_ = 64 - bits;
}

DramCoord
DramChannel::mapAddr(Addr addr) const
{
    // Blocks are channel-interleaved by the memory system; within a
    // channel, consecutive per-channel blocks fill a row, rows are
    // bank-interleaved.
    std::uint64_t per_chan_block = blockIndex(addr) / channels_;
    std::uint64_t global_row = per_chan_block / blocksPerRow_;
    return {static_cast<unsigned>(global_row % numBanks_),
            global_row / numBanks_};
}

std::size_t
DramChannel::homeCell(Addr addr) const
{
    // Fibonacci hashing of the block index: a channel's blocks are
    // strided by the channel count, which the multiply scatters.
    return (blockIndex(addr) * 0x9e3779b97f4a7c15ULL) >> indexShift_;
}

std::size_t
DramChannel::findCell(Addr addr) const
{
    std::size_t mask = index_.size() - 1;
    std::size_t i = homeCell(addr);
    while (!index_[i].empty() && index_[i].addr != addr)
        i = (i + 1) & mask;
    return i;
}

void
DramChannel::unindex(Addr addr, bool store)
{
    std::size_t i = findCell(addr);
    AddrCell &cell = index_[i];
    (store ? cell.store : cell.read) = noSlot;
    if (!cell.empty())
        return;
    // Backward-shift deletion: pull later cells of the probe run into
    // the hole unless that would move one before its home cell.
    std::size_t mask = index_.size() - 1;
    for (std::size_t j = (i + 1) & mask; !index_[j].empty();
         j = (j + 1) & mask) {
        if (((j - homeCell(index_[j].addr)) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = AddrCell{};
}

void
DramChannel::link(int s)
{
    Slot &slot = slots_[s];
    ClassList &l = classList(slot);
    // New requests append; only a promoted one walks back to its place.
    int after = l.tail;
    while (after != noSlot && slots_[after].seq > slot.seq)
        after = slots_[after].prev;
    slot.prev = after;
    slot.next = after == noSlot ? l.head : slots_[after].next;
    (slot.prev == noSlot ? l.head : slots_[slot.prev].next) = s;
    (slot.next == noSlot ? l.tail : slots_[slot.next].prev) = s;
    if (slot.row == banks_[slot.bank].openRow &&
        (l.hit == noSlot || slots_[l.hit].seq > slot.seq))
        l.hit = s;
}

void
DramChannel::unlink(int s)
{
    Slot &slot = slots_[s];
    ClassList &l = classList(slot);
    if (l.hit == s) {
        int h = slot.next;
        while (h != noSlot && slots_[h].row != slot.row)
            h = slots_[h].next;
        l.hit = h;
    }
    (slot.prev == noSlot ? l.head : slots_[slot.prev].next) = slot.next;
    (slot.next == noSlot ? l.tail : slots_[slot.next].prev) = slot.prev;
}

void
DramChannel::refreshHits(unsigned bank)
{
    std::uint64_t row = banks_[bank].openRow;
    for (unsigned cls = 0; cls < 2; ++cls) {
        ClassList &l = lists_[bank * 2 + cls];
        int h = l.head;
        while (h != noSlot && slots_[h].row != row)
            h = slots_[h].next;
        l.hit = h;
    }
}

void
DramChannel::promote(int s)
{
    unlink(s);
    slots_[s].cls = demandCls;
    link(s);
}

bool
DramChannel::insert(MemRequest &&req)
{
    ++stateVersion_;
    bool store = req.type == ReqType::DemandStore;
    AddrCell &cell = index_[findCell(req.addr)];
    int &mate = store ? cell.store : cell.read;
    if (mate != noSlot) {
        MemRequest &queued = reqs_[mate];
        queued.mergeFrom(std::move(req));
        ++counters_.interCoreMerges;
        if (slots_[mate].cls == prefetchCls && !isPrefetch(queued.type))
            promote(mate);
        return true;
    }
    MTP_ASSERT(!bufferFull(), "insert() into a full DRAM request buffer");
    int s = freeSlots_.back();
    freeSlots_.pop_back();
    cell.addr = req.addr;
    mate = s;

    Slot &slot = slots_[s];
    DramCoord c = mapAddr(req.addr);
    slot.bank = c.bank;
    slot.row = c.row;
    slot.cls = demandPriority_ && isPrefetch(req.type) ? prefetchCls
                                                       : demandCls;
    slot.seq = nextSeq_++;
    reqs_[s] = std::move(req);
    ++bankPending_[c.bank];
    pendingBanks_ |= 1ULL << c.bank;
    link(s);
    return false;
}

bool
DramChannel::upgradeToDemand(Addr addr)
{
    int s = index_[findCell(addr)].read;
    if (s == noSlot || !isPrefetch(reqs_[s].type))
        return false;
    reqs_[s].type = ReqType::DemandLoad;
    if (slots_[s].cls == prefetchCls)
        promote(s);
    return true;
}

Cycle
DramChannel::nextEventAt(Cycle now) const
{
    Cycle e = invalidCycle;
    if (!inService_.empty())
        e = inService_.front().doneAt;
    for (std::uint64_t bits = pendingBanks_; bits != 0; bits &= bits - 1) {
        Cycle ready = banks_[std::countr_zero(bits)].busyUntil;
        if (ready <= now)
            return now;
        if (ready < e)
            e = ready;
    }
#if MTP_SLOW_CHECKS
    Cycle scan = invalidCycle;
    for (const auto &svc : inService_)
        scan = std::min(scan, svc.doneAt);
    for (const ClassList &l : lists_)
        for (int s = l.head; s != noSlot; s = slots_[s].next)
            scan = std::min(
                scan, std::max(now, banks_[mapAddr(reqs_[s].addr).bank]
                                        .busyUntil));
    MTP_ASSERT(std::max(e, now) == std::max(scan, now),
               "per-bank event bound disagrees with exhaustive scan");
#endif
    return e;
}

unsigned
DramChannel::busyBanks(Cycle now) const
{
    unsigned n = 0;
    for (const auto &bank : banks_)
        n += bank.busyUntil > now ? 1 : 0;
    return n;
}

int
DramChannel::pickRequest(Cycle now) const
{
    // FR-FCFS with demand priority over the ready banks only: per
    // class, the oldest row-hit and the oldest request are the oldest
    // of the per-bank list heads. Demand row-hit > demand > prefetch
    // row-hit > prefetch (Table II: demand has higher priority than
    // prefetch).
    int best_hit[2] = {noSlot, noSlot}; // [demandCls], [prefetchCls]
    int best_any[2] = {noSlot, noSlot};
    auto older = [this](int a, int b) {
        return a != noSlot && (b == noSlot || slots_[a].seq < slots_[b].seq);
    };
    for (unsigned b = 0; b < numBanks_; ++b) {
        if (bankPending_[b] == 0 || banks_[b].busyUntil > now)
            continue;
        for (unsigned cls = 0; cls < 2; ++cls) {
            const ClassList &l = lists_[b * 2 + cls];
            if (older(l.hit, best_hit[cls]))
                best_hit[cls] = l.hit;
            if (older(l.head, best_any[cls]))
                best_any[cls] = l.head;
        }
    }
    for (unsigned cls = 0; cls < 2; ++cls) {
        if (best_hit[cls] != noSlot)
            return best_hit[cls];
        if (best_any[cls] != noSlot)
            return best_any[cls];
    }
    return noSlot;
}

#if MTP_SLOW_CHECKS
int
DramChannel::pickRequestScan(Cycle now) const
{
    // The buffer oldest-first, rebuilt from the per-bank lists; every
    // key is recomputed from the request rather than read from a slot.
    std::vector<int> order;
    unsigned pending = 0;
    for (const ClassList &l : lists_)
        for (int s = l.head; s != noSlot; s = slots_[s].next)
            order.push_back(s);
    std::sort(order.begin(), order.end(),
              [this](int a, int b) { return slots_[a].seq < slots_[b].seq; });
    MTP_ASSERT(order.size() == bufferOccupancy(),
               "per-bank lists lost or duplicated a buffered request");
    for (unsigned pend : bankPending_)
        pending += pend;
    MTP_ASSERT(pending == order.size(), "bank pending counts drifted");

    int best_hit[2] = {noSlot, noSlot};
    int best_any[2] = {noSlot, noSlot};
    for (int s : order) {
        const MemRequest &req = reqs_[s];
        DramCoord c = mapAddr(req.addr);
        const Bank &bank = banks_[c.bank];
        if (bank.busyUntil > now)
            continue;
        int cls = (demandPriority_ && isPrefetch(req.type)) ? 1 : 0;
        if (best_any[cls] == noSlot)
            best_any[cls] = s;
        if (best_hit[cls] == noSlot && bank.openRow == c.row)
            best_hit[cls] = s;
    }
    for (int cls = 0; cls < 2; ++cls) {
        if (best_hit[cls] != noSlot)
            return best_hit[cls];
        if (best_any[cls] != noSlot)
            return best_any[cls];
    }
    return noSlot;
}
#endif

void
DramChannel::tick(Cycle now, std::vector<MemRequest> &completed)
{
    // Retire finished data transfers, oldest first.
    while (!inService_.empty() && inService_.front().doneAt <= now) {
        ++stateVersion_;
        const MemRequest &done = inService_.front().req;
        // Stamped at doneAt, not now: delayed skip-free ticks must not
        // inflate the recorded service time.
        MTP_OBS_HOOK(tracer_,
                     stage(obs::Stage::DramDone, done.addr,
                           static_cast<std::uint8_t>(done.type), done.core,
                           channelId_, inService_.front().doneAt));
        completed.push_back(std::move(inService_.front().req));
        inService_.pop_front();
    }

    // Schedule at most one request per cycle (command-bus limit).
    int pick = pickRequest(now);
#if MTP_SLOW_CHECKS
    MTP_ASSERT(pick == pickRequestScan(now),
               "per-bank FR-FCFS pick disagrees with the buffer scan");
#endif
    if (pick == noSlot)
        return;
    ++stateVersion_;

    Slot &slot = slots_[pick];
    unlink(pick);
    unindex(reqs_[pick].addr, reqs_[pick].type == ReqType::DemandStore);
    MTP_ASSERT(bankPending_[slot.bank] > 0, "bank pending-count underflow");
    if (--bankPending_[slot.bank] == 0)
        pendingBanks_ &= ~(1ULL << slot.bank);
    freeSlots_.push_back(pick);
    MemRequest req = std::move(reqs_[pick]);
    Bank &bank = banks_[slot.bank];

    MTP_OBS_HOOK(tracer_,
                 stage(obs::Stage::DramSchedule, req.addr,
                       static_cast<std::uint8_t>(req.type), req.core,
                       channelId_, now));

    Cycle act_cost;
    if (bank.openRow == slot.row) {
        act_cost = 0;
        ++counters_.rowHits;
    } else if (bank.openRow == noRow) {
        act_cost = tRcd_;
        ++counters_.rowEmpty;
    } else {
        act_cost = tRp_ + tRcd_;
        ++counters_.rowConflicts;
    }

    Cycle cas_done = now + act_cost + tCl_;
    Cycle data_start = std::max(cas_done, busFreeAt_);
    // Sparse (32 B) transactions occupy the data bus for half a burst.
    Cycle burst = std::max<Cycle>(1, burst_ * req.bytes / blockBytes);
    Cycle done = data_start + burst;

    if (bank.openRow != slot.row) {
        bank.openRow = slot.row;
        refreshHits(slot.bank);
    }
    bank.busyUntil = done;
    busFreeAt_ = done;

    counters_.bytesTransferred += req.bytes;
    if (req.type == ReqType::DemandStore)
        ++counters_.writes;
    else
        ++counters_.reads;
    if (isPrefetch(req.type))
        ++counters_.prefetchServiced;
    else
        ++counters_.demandServiced;

    // The response leaves the controller after the fixed pipeline
    // latency; the bank and bus are free at `done`.
    MTP_ASSERT(inService_.empty() ||
                   inService_.back().doneAt < done + extraLatency_,
               "service completion times not monotonic");
    inService_.push_back({std::move(req), done + extraLatency_});
}

void
DramChannel::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".reads", static_cast<double>(counters_.reads),
            "read bursts serviced");
    set.add(prefix + ".writes", static_cast<double>(counters_.writes),
            "write bursts serviced");
    set.add(prefix + ".rowHits", static_cast<double>(counters_.rowHits),
            "row-buffer hits");
    set.add(prefix + ".rowEmpty", static_cast<double>(counters_.rowEmpty),
            "accesses to closed banks");
    set.add(prefix + ".rowConflicts",
            static_cast<double>(counters_.rowConflicts),
            "row-buffer conflicts");
    set.add(prefix + ".interCoreMerges",
            static_cast<double>(counters_.interCoreMerges),
            "inter-core merges in the request buffer");
    set.add(prefix + ".bytes",
            static_cast<double>(counters_.bytesTransferred),
            "bytes moved over the data bus");
    set.add(prefix + ".demandServiced",
            static_cast<double>(counters_.demandServiced),
            "demand bursts serviced");
    set.add(prefix + ".prefetchServiced",
            static_cast<double>(counters_.prefetchServiced),
            "prefetch bursts serviced");
}

} // namespace mtp
