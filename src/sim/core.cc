#include "sim/core.hh"

#include <algorithm>

#include "common/log.hh"
#include "trace/coalescer.hh"

namespace mtp {

Core::Core(const SimConfig &cfg, CoreId id, const KernelDesc *kernel,
           MemSystem *mem)
    : cfg_(cfg),
      id_(id),
      kernel_(kernel),
      mem_(mem),
      maxBlocks_(std::min(cfg.maxBlocksPerCore, kernel->maxBlocksPerCore)),
      mshr_(cfg.mshrEntries, cfg.prefMshrEntries),
      prefCache_(cfg.prefCacheBytes, cfg.prefCacheAssoc),
      nextPeriodAt_(cfg.throttlePeriod)
{
    MTP_ASSERT(kernel_->finalized(), "core built on unfinalized kernel");
    warps_.resize(static_cast<std::size_t>(maxBlocks_) *
                  kernel_->warpsPerBlock);
    blockRemaining_.assign(maxBlocks_, 0);
    blockIds_.assign(maxBlocks_, 0);
    prefetcher_ = makeHwPrefetcher(cfg);
    if (cfg.throttleEnable)
        throttle_ = std::make_unique<ThrottleEngine>(cfg);
    if (cfg.stridePcLateThrottle)
        lateThrottle_ = std::make_unique<LatenessThrottle>();
    warpIssueCycles_.assign(warps_.size(), 0);
    warpStallCycles_.assign(warps_.size(), 0);
    issuable_.resize(warps_.size());
    aluIssuable_.resize(warps_.size());
    retirable_.resize(warps_.size());
    freeBlockSlots_.resize(maxBlocks_);
    for (unsigned s = 0; s < maxBlocks_; ++s)
        freeBlockSlots_.set(s);
    // Without a throttle engine, prefetcher or lateness throttle, the
    // periodic update has no observable effect and never bounds a skip.
    periodObservable_ = throttle_ || prefetcher_ || lateThrottle_;
}

void
Core::setTracer(obs::TraceRecorder *tracer)
{
    tracer_ = tracer;
    if (throttle_)
        throttle_->setTrace(tracer, id_);
}

void
Core::refreshWarp(std::uint32_t idx)
{
    const Warp &warp = warps_[idx];
    bool issuable = warp.active && !warp.cursor.done() &&
                    warp.canIssue(warp.cursor.inst());
    issuable_.assign(idx, issuable);
    aluIssuable_.assign(idx, issuable && !usesLsu(warp.cursor.inst()));
    retirable_.assign(idx, warp.retirable());
}

Cycle
Core::occupancy(const StaticInst &inst) const
{
    switch (inst.op) {
      case Opcode::Imul:
        return cfg_.latencyImul;
      case Opcode::Fdiv:
        return cfg_.latencyFdiv;
      default:
        return cfg_.latencyOther;
    }
}

void
Core::dispatchBlock(BlockId block)
{
    MTP_ASSERT(hasBlockCapacity(), "dispatch to a full core");
    // Lowest free slot, as the original linear scan picked.
    std::size_t found = freeBlockSlots_.findNextSet(0);
    MTP_ASSERT(found != DynBitset::npos && found < maxBlocks_,
               "no free block slot despite capacity");
    auto slot = static_cast<unsigned>(found);
    MTP_ASSERT(blockRemaining_[slot] == 0,
               "free-slot bit set on an occupied block slot");
    freeBlockSlots_.clear(slot);

    blockRemaining_[slot] = kernel_->warpsPerBlock;
    blockIds_[slot] = block;
    ++activeBlocks_;
    for (unsigned w = 0; w < kernel_->warpsPerBlock; ++w) {
        std::uint32_t widx = slot * kernel_->warpsPerBlock + w;
        MTP_ASSERT(!warps_[widx].active, "dispatch onto a live warp");
        GlobalWarpId gwid = block * kernel_->warpsPerBlock + w;
        warps_[widx].assign(kernel_, gwid, block);
        ++activeWarpCount_;
        refreshWarp(widx);
    }
    maxActiveWarps_ = std::max(maxActiveWarps_, activeWarps());
}

unsigned
Core::activeWarps() const
{
#if MTP_SLOW_CHECKS
    unsigned n = 0;
    for (const auto &w : warps_)
        n += w.active ? 1 : 0;
    MTP_ASSERT(n == activeWarpCount_, "active-warp counter out of sync");
#endif
    return activeWarpCount_;
}

bool
Core::idle() const
{
    return activeWarps() == 0 && !lsu_.valid;
}

void
Core::tick(Cycle now)
{
    drainCompletions(now);
    periodUpdate(now);
    lsuBlock_ = LsuBlock::None;
    const std::uint64_t issuedBefore = counters_.issueCycles;
    processLsu(now);
    issue(now);
    accountCycle(now, counters_.issueCycles != issuedBefore);
    retireWarps();
}

void
Core::drainCompletions(Cycle now)
{
    const auto &list = mem_->completions(id_);
    for (const auto &req : list) {
        const Mshr::Entry &entry = mshr_.retire(req.addr);
        if (entry.prefetch) {
            Addr earlyEvicted = invalidAddr;
            prefCache_.fill(req.addr, &earlyEvicted);
            MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::Fill, req.addr,
                                       id_, now));
            if (earlyEvicted != invalidAddr)
                MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::EarlyEvict,
                                           earlyEvicted, id_, now));
            ++counters_.prefCount;
            counters_.prefLatencySum += now - entry.created;
        }
        for (const auto &waiter : entry.waiters) {
            Warp &warp = warps_[waiter.warpIdx];
            auto s = static_cast<unsigned>(waiter.slot);
            MTP_ASSERT(warp.active && warp.outstanding[s] > 0,
                       "completion for a slot with no outstanding load");
            --warp.outstanding[s];
            refreshWarp(waiter.warpIdx);
            ++counters_.demandCount;
            counters_.demandLatencySum += now - waiter.issued;
            demandLatencyHist_.sample(
                static_cast<double>(now - waiter.issued));
        }
    }
    mem_->clearCompletions(id_);
}

void
Core::processLsu(Cycle now)
{
    if (!lsu_.valid)
        return;
    while (lsu_.next < lsu_.txns.size()) {
        Addr addr = lsu_.txns[lsu_.next].addr;
        std::uint16_t bytes = lsu_.txns[lsu_.next].bytes;
        if (lsu_.type == ReqType::DemandLoad) {
            bool firstUse = false;
            if (prefCache_.demandAccess(addr, &firstUse)) {
                // Prefetch-cache hits cost the same as computational
                // instructions (Sec. IV-A): no memory request at all.
                if (firstUse)
                    MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::Useful,
                                               addr, id_, now));
                ++counters_.prefCacheHitTxns;
                Warp &warp = warps_[lsu_.warpIdx];
                auto s = static_cast<unsigned>(lsu_.slot);
                MTP_ASSERT(warp.outstanding[s] > 0,
                           "prefetch-cache hit with no outstanding load");
                --warp.outstanding[s];
                refreshWarp(lsu_.warpIdx);
                ++lsu_.next;
                continue;
            }
            Mshr::Entry *inflight = mshr_.find(addr);
            if (!inflight && (mshr_.full() || mem_->mrq(id_).full())) {
                if (mshr_.full()) {
                    mshr_.noteFullStall();
                    lsuBlock_ = LsuBlock::MshrFull;
                } else {
                    mem_->mrq(id_).noteGatedStall();
                    lsuBlock_ = LsuBlock::MrqFull;
                }
                return; // retry next cycle
            }
            ++counters_.demandTxns;
            bool intoPref = inflight && inflight->prefetch;
            Mshr::Waiter waiter{lsu_.warpIdx, lsu_.slot, now};
            bool merged = mshr_.demandAccess(addr, waiter, now);
            if (merged) {
                // Joined an in-flight block (a late prefetch if that
                // block was prefetched): make sure the queued request
                // has demand priority, and move on without a new fetch.
                if (intoPref)
                    MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::LateMerge,
                                               addr, id_, now));
                mem_->upgradeToDemand(id_, addr);
                ++lsu_.next;
                continue;
            }
            bool ok = mem_->issue(id_, addr, ReqType::DemandLoad, now,
                                  bytes);
            MTP_ASSERT(ok, "MRQ rejected a gated demand push");
            MTP_OBS_HOOK(tracer_, stage(obs::Stage::MrqEnqueue, addr, 0,
                                        id_, 0, now));
            ++lsu_.next;
            break; // one MRQ push per cycle
        }
        if (lsu_.type == ReqType::DemandStore) {
            if (!mem_->issue(id_, addr, ReqType::DemandStore, now, bytes)) {
                // The push itself counted an MRQ fullStall.
                lsuBlock_ = LsuBlock::MrqFull;
                return;
            }
            ++counters_.demandTxns;
            MTP_OBS_HOOK(tracer_, stage(obs::Stage::MrqEnqueue, addr, 1,
                                        id_, 0, now));
            ++lsu_.next;
            break;
        }
        // Software prefetch transaction.
        bool drop = false;
        if (throttle_ && throttle_->shouldDrop()) {
            ++counters_.swPrefDroppedThrottle;
            MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedThrottle,
                                       addr, id_, now));
            drop = true;
        } else if (prefCache_.contains(addr)) {
            ++counters_.swPrefDroppedResident;
            MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedResident,
                                       addr, id_, now));
            drop = true;
        } else if (mshr_.prefetchFull() || mem_->mrq(id_).full()) {
            // Never stall the pipeline for a prefetch.
            ++counters_.swPrefDroppedResident;
            MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedFull, addr,
                                       id_, now));
            drop = true;
        } else if (mshr_.prefetchAccess(addr, now)) {
            ++counters_.swPrefDroppedResident;
            MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedResident,
                                       addr, id_, now));
            drop = true;
        }
        if (drop) {
            ++lsu_.next;
            continue; // dropped prefetches consume no MRQ bandwidth
        }
        bool ok = mem_->issue(id_, addr, ReqType::SwPrefetch, now, bytes);
        MTP_ASSERT(ok, "MRQ rejected a gated prefetch push");
        ++counters_.swPrefTxnsIssued;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::Issued, addr, id_,
                                   now));
        MTP_OBS_HOOK(tracer_, stage(obs::Stage::MrqEnqueue, addr, 2, id_,
                                    0, now));
        ++lsu_.next;
        break;
    }
    if (lsu_.next >= lsu_.txns.size()) {
        if (lsu_.type == ReqType::DemandLoad)
            runHwPrefetcher(now);
        lsu_.valid = false;
    }
}

void
Core::startMemInst(const StaticInst &inst, std::uint32_t warpIdx, Cycle now)
{
    Warp &warp = warps_[warpIdx];
    coalesceWarpAccess(inst.pattern, warp.lane0Tid, warp.cursor.iter(),
                       lsu_.txns);
    lsu_.next = 0;
    lsu_.warpIdx = warpIdx;
    lsu_.pc = inst.pc;
    lsu_.slot = inst.destSlot;
    lsu_.leadAddr = inst.pattern.laneAddr(warp.lane0Tid,
                                          warp.cursor.iter());
    lsu_.valid = true;
    switch (inst.op) {
      case Opcode::Load:
        lsu_.type = ReqType::DemandLoad;
        break;
      case Opcode::Store:
        lsu_.type = ReqType::DemandStore;
        break;
      default:
        lsu_.type = ReqType::SwPrefetch;
        break;
    }
    MTP_OBS_HOOK(tracer_,
                 coalesce(id_, lsu_.leadAddr,
                          static_cast<std::uint8_t>(lsu_.type),
                          lsu_.txns.size(), now));
    if (inst.op == Opcode::Load) {
        auto s = static_cast<unsigned>(inst.destSlot);
        MTP_ASSERT(inst.destSlot >= 0, "load without a destination slot");
        MTP_ASSERT(warp.outstanding[s] + lsu_.txns.size() <= 255,
                   "scoreboard counter overflow");
        warp.outstanding[s] += static_cast<std::uint8_t>(lsu_.txns.size());
        warp.relaxedSlot[s] = inst.regPrefetch;
    }
}

void
Core::runHwPrefetcher(Cycle now)
{
    if (!prefetcher_)
        return;
    const Warp &warp = warps_[lsu_.warpIdx];
    PrefObservation obs{lsu_.pc, lsu_.warpIdx, warp.globalWid,
                        lsu_.leadAddr, &lsu_.txns};
    prefScratch_.clear();
    prefetcher_->observe(obs, prefScratch_);
    // Prefetches inherit the triggering access's transaction
    // granularity: a sparse (32 B) demand stream is prefetched as
    // sparse segments, not full blocks.
    std::uint16_t bytes =
        lsu_.txns.empty() ? blockBytes : lsu_.txns.front().bytes;
    for (Addr addr : prefScratch_)
        issuePrefetch(addr, ReqType::HwPrefetch, now, bytes);
}

void
Core::issuePrefetch(Addr blockAddr, ReqType type, Cycle now,
                    std::uint16_t bytes)
{
    if (throttle_ && throttle_->shouldDrop()) {
        ++counters_.hwPrefDroppedThrottle;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedThrottle,
                                   blockAddr, id_, now));
        return;
    }
    if (lateThrottle_ && lateThrottle_->shouldDrop()) {
        ++counters_.hwPrefDroppedThrottle;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedThrottle,
                                   blockAddr, id_, now));
        return;
    }
    if (prefCache_.contains(blockAddr)) {
        ++counters_.hwPrefDroppedResident;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedResident,
                                   blockAddr, id_, now));
        return;
    }
    if (mshr_.prefetchFull() || mem_->mrq(id_).full()) {
        ++counters_.hwPrefDroppedMrqFull;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedFull, blockAddr,
                                   id_, now));
        return;
    }
    if (mshr_.prefetchAccess(blockAddr, now)) {
        ++counters_.hwPrefDroppedResident;
        MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::DroppedResident,
                                   blockAddr, id_, now));
        return;
    }
    bool ok = mem_->issue(id_, blockAddr, type, now, bytes);
    MTP_ASSERT(ok, "MRQ rejected a gated hardware prefetch");
    ++counters_.hwPrefIssued;
    MTP_OBS_HOOK(tracer_, pref(obs::PrefEvent::Issued, blockAddr, id_,
                               now));
    MTP_OBS_HOOK(tracer_, stage(obs::Stage::MrqEnqueue, blockAddr,
                                static_cast<std::uint8_t>(type), id_, 0,
                                now));
}

void
Core::issue(Cycle now)
{
    if (execBusyUntil_ > now)
        return;
    const auto n = static_cast<std::uint32_t>(warps_.size());
    if (n == 0)
        return;
#if MTP_SLOW_CHECKS
    for (std::uint32_t i = 0; i < n; ++i) {
        const Warp &w = warps_[i];
        bool expect = w.active && !w.cursor.done() &&
                      w.canIssue(w.cursor.inst());
        MTP_ASSERT(issuable_.test(i) == expect,
                   "issuable bit out of sync for warp ", i);
        MTP_ASSERT(aluIssuable_.test(i) ==
                       (expect && !usesLsu(w.cursor.inst())),
                   "ALU-issuable bit out of sync for warp ", i);
    }
#endif
    const DynBitset &candidates = issueCandidates();
    if (!candidates.any())
        return;
    // Greedy-then-round-robin: keep issuing from the current warp until
    // it stalls (Table II: "executes instructions from one warp,
    // switching to another warp if source operands are not ready").
    // The pure round-robin ablation always moves to the next warp.
    // Visiting the candidate bitset in index order from `first` with
    // wraparound reproduces the original (first + k) % n scan exactly;
    // the time (readyAt) hazard is re-checked here.
    std::uint32_t first =
        (cfg_.schedGreedy ? lastIssued_ : lastIssued_ + 1) % n;
    auto tryIssue = [&](std::uint32_t idx) -> bool {
        Warp &warp = warps_[idx];
        if (warp.readyAt > now)
            return false;
        const StaticInst &inst = warp.cursor.inst();
        bool is_mem = usesLsu(inst);

        // Issue.
        Cycle occ = occupancy(inst);
        execBusyUntil_ = now + occ;
        warp.readyAt = now + occ;
        warp.branchWait = inst.op == Opcode::Branch;
        if (inst.op == Opcode::Branch)
            warp.readyAt += cfg_.decodeCycles;

        ++counters_.warpInstsIssued;
        ++counters_.issueCycles;
        ++warpIssueCycles_[idx];
        switch (inst.op) {
          case Opcode::Load:
          case Opcode::Store:
            ++counters_.memInsts;
            break;
          case Opcode::Prefetch:
            ++counters_.prefInsts;
            break;
          case Opcode::Branch:
            ++counters_.branchInsts;
            break;
          default:
            ++counters_.compInsts;
            break;
        }

        if (is_mem)
            startMemInst(inst, idx, now);

        warp.cursor.advance();
        refreshWarp(idx);
        lastIssued_ = idx;
        return true;
    };
    for (std::size_t idx = candidates.findNextSet(first);
         idx != DynBitset::npos; idx = candidates.findNextSet(idx + 1)) {
        if (tryIssue(static_cast<std::uint32_t>(idx)))
            return;
    }
    for (std::size_t idx = candidates.findNextSet(0);
         idx != DynBitset::npos && idx < first;
         idx = candidates.findNextSet(idx + 1)) {
        if (tryIssue(static_cast<std::uint32_t>(idx)))
            return;
    }
}

void
Core::retireWarps()
{
#if MTP_SLOW_CHECKS
    for (std::uint32_t i = 0; i < warps_.size(); ++i)
        MTP_ASSERT(retirable_.test(i) == warps_[i].retirable(),
                   "retirable bit out of sync for warp ", i);
#endif
    // Word-at-a-time scan; clearing the visited bit is safe (each word
    // is iterated from a copy), and the ascending order matches the
    // original findNextSet() loop.
    retirable_.forEachSet([&](std::size_t found) {
        auto idx = static_cast<std::uint32_t>(found);
        Warp &warp = warps_[idx];
        MTP_ASSERT(warp.retirable(), "retirable bit on a live warp");
        if (lsu_.valid && lsu_.warpIdx == idx)
            return; // trailing stores/prefetches still at the LSU
        warp.active = false;
        retirable_.clear(idx);
        issuable_.clear(idx);
        aluIssuable_.clear(idx);
        MTP_ASSERT(activeWarpCount_ > 0, "active-warp underflow");
        --activeWarpCount_;
        ++counters_.warpsCompleted;
        unsigned slot = idx / kernel_->warpsPerBlock;
        MTP_ASSERT(blockRemaining_[slot] > 0, "retire underflow");
        if (--blockRemaining_[slot] == 0) {
            MTP_ASSERT(activeBlocks_ > 0, "block accounting underflow");
            --activeBlocks_;
            freeBlockSlots_.set(slot);
            ++counters_.blocksCompleted;
        }
    });
}

Cycle
Core::nextEventAt(Cycle now) const
{
    // An LSU operation that moved last tick, or has yet to try, acts
    // again this cycle. A blocked one would repeat its failed retry
    // until a completion or a pop of its full MRQ wakes the core (both
    // are wake edges of the event-queue loop), so it bounds nothing.
    if (lsu_.valid && lsuBlock_ == LsuBlock::None)
        return now;
    Cycle e = invalidCycle;
    if (periodObservable_)
        e = nextPeriodAt_;
    if (e > now) {
        // Earliest possible issue: execution unit free AND some
        // issue candidate past its readyAt, i.e. max(execBusyUntil_,
        // min readyAt). Any readyAt at or below the floor
        // max(now, execBusyUntil_) pins the result to the floor
        // exactly (min_ready <= floor clamps the max to it), so the
        // word-at-a-time scan exits early on the first such warp —
        // same return value as the exhaustive minimum.
        const DynBitset &candidates = issueCandidates();
        Cycle floor = std::max(now, execBusyUntil_);
        Cycle min_ready = invalidCycle;
        bool pinned = !candidates.forEachSet([&](std::size_t idx) {
            Cycle r = warps_[idx].readyAt;
            if (r <= floor)
                return false;
            if (r < min_ready)
                min_ready = r;
            return true;
        });
        if (pinned)
            min_ready = floor;
        if (min_ready != invalidCycle) {
            Cycle at = std::max(execBusyUntil_, min_ready);
            if (at < e)
                e = at;
        }
    }
    return e <= now ? now : e;
}

void
Core::periodUpdate(Cycle now)
{
    // With no throttle engine, prefetcher or lateness throttle the
    // update would only reschedule itself: skip it entirely so
    // nextEventAt() need not bound skips at period boundaries.
    if (!periodObservable_)
        return;
    if (now < nextPeriodAt_)
        return;
    nextPeriodAt_ = now + cfg_.throttlePeriod;

    const auto &pc = prefCache_.counters();
    const auto &mshr = mshr_.counters();

    if (throttle_) {
        ThrottleEngine::Snapshot snap;
        snap.earlyEvictions = pc.earlyEvictions;
        snap.useful = pc.useful;
        snap.fills = pc.fills;
        snap.merges = mshr.merges;
        snap.totalRequests = mshr.totalRequests;
        snap.prefCacheHits = pc.demandHits;
        throttle_->updatePeriod(snap, now);
    }

    if (prefetcher_ || lateThrottle_) {
        std::uint64_t d_fills = pc.fills - lastFeedbackPc_.fills;
        std::uint64_t d_useful = pc.useful - lastFeedbackPc_.useful;
        std::uint64_t d_late =
            mshr.demandIntoPref - lastFeedbackMshr_.demandIntoPref;
        lastFeedbackPc_ = pc;
        lastFeedbackMshr_ = mshr;
        if (d_fills > 0) {
            double acc = static_cast<double>(d_useful) /
                         static_cast<double>(d_fills);
            double late = static_cast<double>(d_late) /
                          static_cast<double>(d_fills);
            if (prefetcher_)
                prefetcher_->feedback(acc, late);
            if (lateThrottle_)
                lateThrottle_->updatePeriod(late);
        }
    }
}

Core::LsuBlock
Core::retryBlock(bool mrqFull) const
{
    // processLsu()'s tests for the head transaction, in its order.
    if (!lsu_.valid || lsu_.next >= lsu_.txns.size())
        return LsuBlock::None;
    Addr addr = lsu_.txns[lsu_.next].addr;
    switch (lsu_.type) {
      case ReqType::DemandLoad:
        if (prefCache_.contains(addr) || mshr_.contains(addr))
            return LsuBlock::None;
        if (mshr_.full())
            return LsuBlock::MshrFull;
        return mrqFull ? LsuBlock::MrqFull : LsuBlock::None;
      case ReqType::DemandStore:
        return mrqFull ? LsuBlock::MrqFull : LsuBlock::None;
      default:
        return LsuBlock::None; // prefetches are dropped, never retried
    }
}

bool
Core::lsuBlockHolds() const
{
    return lsuBlock_ == LsuBlock::None ||
           retryBlock(mem_->mrq(id_).full()) == lsuBlock_;
}

Core::StallClass
Core::classifyStall(Cycle now) const
{
    // First-match priority order of DESIGN.md §9. The LSU block
    // reasons and the software-prefetch occupancy outrank the
    // scheduler-side reasons: when the memory path consumed the cycle,
    // that is where the cycle went, whatever the warps were doing.
    if (activeWarpCount_ == 0 && !lsu_.valid)
        return {CycleCat::IdleNoWarps, noBlame};
    if (lsuBlock_ == LsuBlock::MshrFull)
        return {CycleCat::StallMshrFull, noBlame};
    if (lsuBlock_ == LsuBlock::MrqFull)
        return {CycleCat::StallIcnt, noBlame};
    if (lsu_.valid && lsu_.type == ReqType::SwPrefetch)
        return {CycleCat::ThrottleInhibited, noBlame};
    if (execBusyUntil_ > now)
        return {CycleCat::StallExecBusy, noBlame};
    if (!issuable_.any()) {
        // Every resident warp is scoreboard-blocked on its own
        // outstanding loads (or already finished and draining).
        return {CycleCat::StallMem, noBlame};
    }
    // Scoreboard-issuable warps exist and the SIMD unit is free. Either
    // a ready memory instruction sits behind the busy LSU (a memory
    // stall), or every candidate is inside its own issue latency: blame
    // the earliest-ready one (lowest slot on ties, matching the
    // scheduler's scan order).
    std::uint32_t blame = noBlame;
    Cycle min_ready = invalidCycle;
    bool lsu_pinned = !issuable_.forEachSet([&](std::size_t idx) {
        Cycle r = warps_[idx].readyAt;
        if (r <= now)
            return false; // ready mem inst behind the busy LSU
        if (r < min_ready) {
            min_ready = r;
            blame = static_cast<std::uint32_t>(idx);
        }
        return true;
    });
    if (lsu_pinned)
        return {CycleCat::StallMem, noBlame};
    return {warps_[blame].branchWait ? CycleCat::StallFetchBranch
                                     : CycleCat::StallOperand,
            blame};
}

void
Core::accountCycle(Cycle now, bool issued)
{
    if (issued) {
        ++cycleCat_[static_cast<unsigned>(CycleCat::Issued)];
        return;
    }
    StallClass sc = classifyStall(now);
    ++cycleCat_[static_cast<unsigned>(sc.cat)];
    if (sc.blame != noBlame)
        ++warpStallCycles_[sc.blame];
}

void
Core::accountSkip(Cycle from, Cycle to)
{
    MTP_ASSERT(to > from, "accountSkip() over an empty window");
    // The event horizon only skips windows in which this core issues
    // nothing and its LSU either sits idle or is blocked: an LSU op
    // that moved last tick pins nextEventAt() to now.
    MTP_ASSERT(lsu_.valid == (lsuBlock_ != LsuBlock::None),
               "skipped a window with a moving LSU op");
    const std::uint64_t len = to - from;
    const bool load = lsu_.type == ReqType::DemandLoad;
    Mrq &mrq = mem_->mrq(id_);
#if MTP_SLOW_CHECKS
    const CycleBreakdown before = cycleCat_;
    // The counters a failed LSU retry bumps.
    struct Retries
    {
        std::uint64_t pcMisses, mshrFull, mrqGated, mrqFull;
        bool operator==(const Retries &) const = default;
    };
    auto retries = [&] {
        return Retries{prefCache_.counters().demandMisses,
                       mshr_.counters().fullStalls,
                       mrq.counters().gatedStalls, mrq.counters().fullStalls};
    };
    const Retries retriesBefore = retries();
#endif
    if (lsuBlock_ != LsuBlock::None) {
        // Each cycle repeats the last tick's failed retry: nothing the
        // retry reads can change before a wake edge ends the window.
        // A load's retry misses the prefetch cache first.
        if (load)
            prefCache_.noteDemandMisses(len);
        if (lsuBlock_ == LsuBlock::MshrFull) {
            mshr_.noteFullStall(len);
            cycleCat_[static_cast<unsigned>(CycleCat::StallMshrFull)] += len;
        } else {
            if (load)
                mrq.noteGatedStall(len);
            else
                mrq.noteFullStalls(len); // the store's rejected push
            cycleCat_[static_cast<unsigned>(CycleCat::StallIcnt)] += len;
        }
    } else if (activeWarpCount_ == 0) {
        cycleCat_[static_cast<unsigned>(CycleCat::IdleNoWarps)] += len;
    } else {
        // Exec-busy outranks the memory/operand waits in the per-cycle
        // classifier, so the window is an exec-busy prefix followed by
        // either a memory wait (no issuable warp) or an operand/branch
        // wait on the earliest-ready issuable warp.
        Cycle exec_end = std::min(std::max(execBusyUntil_, from), to);
        cycleCat_[static_cast<unsigned>(CycleCat::StallExecBusy)] +=
            exec_end - from;
        if (exec_end < to && !issuable_.any()) {
            cycleCat_[static_cast<unsigned>(CycleCat::StallMem)] +=
                to - exec_end;
        } else if (exec_end < to) {
            // nextEventAt(from) >= to, so min readyAt >= to: the rest
            // of the window waits on the earliest-ready issuable warp.
            std::uint32_t blame = noBlame;
            Cycle min_ready = invalidCycle;
            issuable_.forEachSet([&](std::size_t idx) {
                Cycle r = warps_[idx].readyAt;
                if (r < min_ready) {
                    min_ready = r;
                    blame = static_cast<std::uint32_t>(idx);
                }
            });
            MTP_ASSERT(min_ready >= to,
                       "skipped past a ready warp (event-horizon bug)");
            CycleCat cat = warps_[blame].branchWait
                               ? CycleCat::StallFetchBranch
                               : CycleCat::StallOperand;
            cycleCat_[static_cast<unsigned>(cat)] += to - exec_end;
            warpStallCycles_[blame] += to - exec_end;
        }
    }
#if MTP_SLOW_CHECKS
    // Cross-check the analytic split against the naive per-cycle
    // classifier and LSU retry the fastForward=false loop would have
    // run. The retry is re-evaluated from the structures themselves,
    // not from lsuBlock_. A pop that ended the window came in its last
    // cycle's memory phase, after that cycle's retry had seen the MRQ
    // full.
    const auto &freed = mem_->mrqFreedCores();
    const bool mrqWasFull =
        mrq.full() ||
        std::find(freed.begin(), freed.end(), id_) != freed.end();
    CycleBreakdown naive{};
    Retries naiveRetries = retriesBefore;
    for (Cycle c = from; c < to; ++c) {
        ++naive[static_cast<unsigned>(classifyStall(c).cat)];
        LsuBlock block = retryBlock(mrqWasFull);
        MTP_ASSERT(block == lsuBlock_,
                   "a parked LSU retry would not fail as recorded");
        if (block == LsuBlock::None)
            continue;
        naiveRetries.pcMisses += load ? 1 : 0;
        if (block == LsuBlock::MshrFull)
            ++naiveRetries.mshrFull;
        else if (load)
            ++naiveRetries.mrqGated;
        else
            ++naiveRetries.mrqFull;
    }
    for (unsigned k = 0; k < numCycleCats; ++k)
        MTP_ASSERT(cycleCat_[k] - before[k] == naive[k],
                   "bulk attribution diverges from per-cycle "
                   "classification for category ",
                   cycleCatName(static_cast<CycleCat>(k)));
    MTP_ASSERT(retries() == naiveRetries,
               "bulk retry counters diverge from per-cycle retries");
#endif
}

void
Core::verifyCycleAccounting(Cycle elapsed) const
{
    MTP_ASSERT(breakdownTotal(cycleCat_) == elapsed,
               "core ", id_, " cycle categories sum to ",
               breakdownTotal(cycleCat_), ", not the ", elapsed,
               " elapsed cycles");
    MTP_ASSERT(cycleCount(CycleCat::Issued) == counters_.issueCycles,
               "core ", id_, " Issued category (",
               cycleCount(CycleCat::Issued),
               ") out of sync with issueCycles (", counters_.issueCycles,
               ")");
    std::uint64_t per_warp = 0;
    for (auto v : warpIssueCycles_)
        per_warp += v;
    MTP_ASSERT(per_warp == counters_.issueCycles,
               "per-warp issue cycles out of sync");
}

void
Core::exportStats(StatSet &set, const std::string &prefix) const
{
    set.add(prefix + ".warpInsts",
            static_cast<double>(counters_.warpInstsIssued),
            "warp instructions issued");
    set.add(prefix + ".compInsts", static_cast<double>(counters_.compInsts),
            "computational warp instructions");
    set.add(prefix + ".memInsts", static_cast<double>(counters_.memInsts),
            "demand memory warp instructions");
    set.add(prefix + ".prefInsts", static_cast<double>(counters_.prefInsts),
            "software prefetch warp instructions");
    set.add(prefix + ".branchInsts",
            static_cast<double>(counters_.branchInsts),
            "branch warp instructions");
    set.add(prefix + ".demandTxns",
            static_cast<double>(counters_.demandTxns),
            "demand transactions sent to memory");
    set.add(prefix + ".prefCacheHitTxns",
            static_cast<double>(counters_.prefCacheHitTxns),
            "demand transactions served by the prefetch cache");
    set.add(prefix + ".swPrefIssued",
            static_cast<double>(counters_.swPrefTxnsIssued),
            "software prefetch transactions sent to memory");
    set.add(prefix + ".swPrefDroppedThrottle",
            static_cast<double>(counters_.swPrefDroppedThrottle),
            "software prefetches dropped by the throttle engine");
    set.add(prefix + ".swPrefDroppedResident",
            static_cast<double>(counters_.swPrefDroppedResident),
            "software prefetches to already-resident blocks");
    set.add(prefix + ".hwPrefIssued",
            static_cast<double>(counters_.hwPrefIssued),
            "hardware prefetches sent to memory");
    set.add(prefix + ".hwPrefDroppedThrottle",
            static_cast<double>(counters_.hwPrefDroppedThrottle),
            "hardware prefetches dropped by throttling");
    set.add(prefix + ".hwPrefDroppedResident",
            static_cast<double>(counters_.hwPrefDroppedResident),
            "hardware prefetches to already-resident blocks");
    set.add(prefix + ".hwPrefDroppedMrqFull",
            static_cast<double>(counters_.hwPrefDroppedMrqFull),
            "hardware prefetches dropped on a full MRQ");
    set.add(prefix + ".blocksCompleted",
            static_cast<double>(counters_.blocksCompleted),
            "thread blocks completed");
    set.add(prefix + ".warpsCompleted",
            static_cast<double>(counters_.warpsCompleted),
            "warps completed");
    set.add(prefix + ".maxActiveWarps",
            static_cast<double>(maxActiveWarps_),
            "peak concurrently-resident warps");
    for (unsigned k = 0; k < numCycleCats; ++k) {
        auto cat = static_cast<CycleCat>(k);
        set.add(prefix + ".cycles." + cycleCatName(cat),
                static_cast<double>(cycleCat_[k]), cycleCatDesc(cat));
    }
    set.add(prefix + ".cycles.total",
            static_cast<double>(breakdownTotal(cycleCat_)),
            "attributed cycles (sum of all categories)");
    for (std::size_t w = 0; w < warpIssueCycles_.size(); ++w) {
        std::string wp = prefix + ".warp" + std::to_string(w);
        set.add(wp + ".issuedCycles",
                static_cast<double>(warpIssueCycles_[w]),
                "cycles this warp slot issued");
        set.add(wp + ".blamedStallCycles",
                static_cast<double>(warpStallCycles_[w]),
                "operand/branch stall cycles blamed on this slot");
    }
    set.add(prefix + ".avgDemandLatency",
            counters_.demandCount
                ? static_cast<double>(counters_.demandLatencySum) /
                      static_cast<double>(counters_.demandCount)
                : 0.0,
            "mean demand-load round trip in cycles");
    demandLatencyHist_.exportTo(set, prefix + ".demandLatency",
                                "demand round-trip distribution");
    mshr_.exportStats(set, prefix + ".mshr");
    prefCache_.exportStats(set, prefix + ".prefCache");
    if (throttle_)
        throttle_->exportStats(set, prefix + ".throttle");
    if (prefetcher_)
        prefetcher_->exportStats(set, prefix + ".hwPref");
}

} // namespace mtp
