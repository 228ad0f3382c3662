#include "mem/mshr.hh"

#include "common/log.hh"

namespace mtp {

std::size_t
Mshr::findCell(Addr addr) const
{
    const std::size_t mask = index_.size() - 1;
    std::size_t i = homeCell(addr);
    while (index_[i].slot >= 0 && index_[i].addr != addr)
        i = (i + 1) & mask;
    return i;
}

Mshr::Entry *
Mshr::find(Addr addr)
{
    int s = index_[findCell(addr)].slot;
    return s < 0 ? nullptr : &slots_[s];
}

Mshr::Entry &
Mshr::allocate(Addr addr, Cycle now)
{
    if (2 * (size() + 1) > index_.size()) {
        // Keep the index at most half full: rehash into twice the cells.
        std::vector<Cell> old(2 * index_.size());
        old.swap(index_);
        --indexShift_;
        for (const Cell &cell : old) {
            if (cell.slot >= 0)
                index_[findCell(cell.addr)] = cell;
        }
    }
    int s;
    if (freeSlots_.empty()) {
        s = static_cast<int>(slots_.size());
        slots_.emplace_back();
    } else {
        s = freeSlots_.back();
        freeSlots_.pop_back();
    }
    index_[findCell(addr)] = {addr, s};
    Entry &entry = slots_[s];
    entry.waiters.clear();
    entry.prefetch = false;
    entry.demandJoined = false;
    entry.created = now;
    return entry;
}

bool
Mshr::demandAccess(Addr addr, const Waiter &waiter, Cycle now)
{
    ++counters_.totalRequests;
    if (Entry *entry = find(addr)) {
        ++counters_.merges;
        if (entry->prefetch && !entry->demandJoined)
            ++counters_.demandIntoPref;
        entry->demandJoined = true;
        entry->waiters.push_back(waiter);
        return true;
    }
    MTP_ASSERT(!full(), "demandAccess() allocation on a full MSHR");
    allocate(addr, now).waiters.push_back(waiter);
    ++demandEntries_;
    return false;
}

bool
Mshr::prefetchAccess(Addr addr, Cycle now)
{
    ++counters_.totalRequests;
    if (find(addr)) {
        ++counters_.merges;
        ++counters_.prefDroppedInflight;
        return true;
    }
    MTP_ASSERT(!prefetchFull(),
               "prefetchAccess() allocation on a full prefetch pool");
    allocate(addr, now).prefetch = true;
    ++prefetchEntries_;
    return false;
}

const Mshr::Entry &
Mshr::retire(Addr addr)
{
    std::size_t i = findCell(addr);
    const int s = index_[i].slot;
    MTP_ASSERT(s >= 0, "response for untracked block ", addr);
    // Backward-shift deletion: pull later cells of the probe run into
    // the hole unless that would move one before its home cell.
    const std::size_t mask = index_.size() - 1;
    for (std::size_t j = (i + 1) & mask; index_[j].slot >= 0;
         j = (j + 1) & mask) {
        if (((j - homeCell(index_[j].addr)) & mask) >= ((j - i) & mask)) {
            index_[i] = index_[j];
            i = j;
        }
    }
    index_[i] = Cell{};
    freeSlots_.push_back(s);
    const Entry &entry = slots_[s];
    if (entry.prefetch) {
        MTP_ASSERT(prefetchEntries_ > 0, "prefetch entry underflow");
        --prefetchEntries_;
    } else {
        MTP_ASSERT(demandEntries_ > 0, "demand entry underflow");
        --demandEntries_;
    }
    return entry;
}

void
Mshr::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".totalRequests",
            static_cast<double>(counters_.totalRequests),
            "demand and prefetch transactions looked up");
    set.add(prefix + ".merges", static_cast<double>(counters_.merges),
            "intra-core merges with in-flight blocks");
    set.add(prefix + ".demandIntoPref",
            static_cast<double>(counters_.demandIntoPref),
            "demands joining in-flight prefetches (late prefetches)");
    set.add(prefix + ".prefDroppedInflight",
            static_cast<double>(counters_.prefDroppedInflight),
            "prefetches to blocks already in flight");
    set.add(prefix + ".fullStalls",
            static_cast<double>(counters_.fullStalls),
            "stalls because all MSHRs were busy");
}

} // namespace mtp
