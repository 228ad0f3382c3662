/**
 * @file
 * Scheduling infrastructure for the event-queue cycle loop (DESIGN.md
 * §7): an indexed priority structure over the GPU's components.
 */

#ifndef MTP_SIM_EVENT_QUEUE_HH
#define MTP_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace mtp {

/**
 * Indexed min-priority queue over a fixed, small set of component ids,
 * keyed by the cycle at which each component next needs to tick
 * (invalidCycle = parked). Components re-arm themselves after every
 * tick and are armed earlier by cross-component wakeups (a completion
 * delivery, a block dispatch, a freed occupancy slot).
 *
 * The id universe is tiny (cores + mem + dispatcher + sampler, a few
 * dozen entries), and in event-dense phases most components re-arm
 * every cycle — a binary heap would churn O(log n) per re-arm for
 * nothing. Keys therefore live in a flat array (O(1) arm, O(1) key
 * lookup for due checks) with a lazily maintained minimum: arm()
 * keeps the cached min when keys only move down, and earliest() pays
 * one O(n) rescan only after the current minimum was re-armed later —
 * exactly once per stepped cycle in the dense case.
 */
class EventQueue
{
  public:
    /** Reset to @p n components, all armed at cycle 0. */
    void
    reset(std::size_t n)
    {
        keys_.assign(n, 0);
        minKey_ = 0;
        minDirty_ = false;
        pushes_ = 0;
        pops_ = 0;
    }

    std::size_t size() const { return keys_.size(); }

    /** Cycle component @p id is armed for (invalidCycle = parked). */
    Cycle key(std::size_t id) const { return keys_[id]; }

    /** Arm component @p id for cycle @p at (replacing its key). */
    void
    arm(std::size_t id, Cycle at)
    {
        Cycle old = keys_[id];
        if (old == at)
            return;
        keys_[id] = at;
        ++pushes_;
        if (at < minKey_)
            minKey_ = at;
        else if (old <= minKey_)
            minDirty_ = true; // the minimum may have moved later
    }

    /** Arm component @p id no later than cycle @p at. */
    void
    armEarlier(std::size_t id, Cycle at)
    {
        if (at < keys_[id])
            arm(id, at);
    }

    /** Record that a due component was processed (stats only). */
    void notePop() { ++pops_; }

    /**
     * Earliest armed cycle over all components (invalidCycle if all
     * parked), raised to @p floor: a caller about to step @p floor
     * either way need not learn how much earlier the minimum is. The
     * rescan after the minimum moved later stops at the first key at
     * or below @p floor, and leaves the cached minimum dirty.
     */
    Cycle
    earliest(Cycle floor = 0) const
    {
        Cycle e = minKey_;
        if (minDirty_) {
            e = invalidCycle;
            for (Cycle k : keys_) {
                if (k <= floor)
                    return floor;
                e = std::min(e, k);
            }
            minKey_ = e;
            minDirty_ = false;
        }
#if MTP_SLOW_CHECKS
        Cycle scan = invalidCycle;
        for (Cycle k : keys_)
            scan = std::min(scan, k);
        MTP_ASSERT(scan == minKey_,
                   "EventQueue cached minimum out of sync");
#endif
        return std::max(e, floor);
    }

    /** Key updates that changed a component's armed cycle. */
    std::uint64_t pushes() const { return pushes_; }

    /** Due components processed. */
    std::uint64_t pops() const { return pops_; }

  private:
    std::vector<Cycle> keys_;
    mutable Cycle minKey_ = invalidCycle;
    mutable bool minDirty_ = false;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
};

} // namespace mtp

#endif // MTP_SIM_EVENT_QUEUE_HH
