#include "sim/gpu.hh"

#include <algorithm>
#include <atomic>
#include <string>

#include "common/log.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"

namespace mtp {

namespace {

/** Global run sequence for flight-recorder gauge namespaces. */
std::uint64_t
nextHostRunSeq()
{
    static std::atomic<std::uint64_t> seq{0};
    return seq.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

Gpu::Gpu(const SimConfig &cfg, const KernelDesc &kernel,
         obs::Observer *obs)
    : cfg_(cfg), kernel_(kernel)
{
    cfg_.validate();
    if (!kernel_.finalized())
        kernel_.finalize();
    mem_ = std::make_unique<MemSystem>(cfg_);
    cores_.reserve(cfg_.numCores);
    for (CoreId c = 0; c < cfg_.numCores; ++c)
        cores_.push_back(std::make_unique<Core>(cfg_, c, &kernel_,
                                                mem_.get()));

    // Contiguous block partitioning: core c executes a consecutive
    // range of block ids, in order. Consecutive blocks therefore run
    // consecutively in time on the same core — the locality
    // inter-thread prefetching depends on (Sec. III-A2: an IP prefetch
    // is wasted exactly when the target warp's block lands on a
    // different core).
    std::uint64_t blocks = kernel_.numBlocks;
    pendingBlocks_ = blocks;
    unsigned n = cfg_.numCores;
    nextBlockOfCore_.resize(n);
    endBlockOfCore_.resize(n);
    for (unsigned c = 0; c < n; ++c) {
        nextBlockOfCore_[c] = blocks * c / n;
        endBlockOfCore_[c] = blocks * (c + 1) / n;
    }
    if (!cfg_.dispatchContiguous) {
        // Round-robin ablation: one shared cursor over the whole grid.
        for (unsigned c = 0; c < n; ++c) {
            nextBlockOfCore_[c] = 0;
            endBlockOfCore_[c] = 0;
        }
        nextBlockOfCore_[0] = 0;
        endBlockOfCore_[0] = blocks;
    }

    if (obs && obs->config().enabled())
        attachObserver(obs);
}

void
Gpu::attachObserver(obs::Observer *obs)
{
    obs_ = obs;
    obs::TraceRecorder *tracer = obs->tracer();
    if (tracer) {
        mem_->setTracer(tracer);
        for (auto &core : cores_)
            core->setTracer(tracer);
    }

    for (CoreId c = 0; c < cores_.size(); ++c)
        obs->declareTrack(obs::trackForCore(c),
                          "core" + std::to_string(c));
    for (unsigned ch = 0; ch < mem_->numChannels(); ++ch)
        obs->declareTrack(obs::trackForChannel(ch),
                          "dram" + std::to_string(ch));
    obs->declareTrack(obs::trackGlobal, "memSystem");

    if (!obs->config().wantsSampling())
        return;

    // Probes close over live component state; every reader is
    // side-effect free, so sampling cannot change simulated results.
    using Kind = obs::Sampler::Kind;
    obs::Sampler &s = obs->sampler();
    for (CoreId c = 0; c < cores_.size(); ++c) {
        std::string p = "core" + std::to_string(c) + ".";
        int pid = obs::trackForCore(c);
        const Core *core = cores_[c].get();
        s.addProbe(p + "ipc", pid, Kind::Rate, [core](Cycle) {
            return static_cast<double>(core->counters().warpInstsIssued);
        });
        const MemSystem *mem = mem_.get();
        s.addProbe(p + "mrqOcc", pid, Kind::Gauge, [mem, c](Cycle) {
            return static_cast<double>(mem->mrq(c).size());
        });
        s.addProbe(p + "mshrOcc", pid, Kind::Gauge, [core](Cycle) {
            return static_cast<double>(core->mshr().size());
        });
        auto fills = [core](Cycle) {
            return static_cast<double>(core->prefCache().counters().fills);
        };
        s.addProbe(
            p + "prefAccuracy", pid, Kind::Ratio,
            [core](Cycle) {
                return static_cast<double>(
                    core->prefCache().counters().useful);
            },
            fills);
        s.addProbe(
            p + "prefLateness", pid, Kind::Ratio,
            [core](Cycle) {
                return static_cast<double>(
                    core->mshr().counters().demandIntoPref);
            },
            fills);
        s.addProbe(
            p + "prefPollution", pid, Kind::Ratio,
            [core](Cycle) {
                return static_cast<double>(
                    core->prefCache().counters().earlyEvictions);
            },
            fills);
        if (core->throttle()) {
            s.addProbe(p + "throttleDegree", pid, Kind::Gauge,
                       [core](Cycle) {
                           return static_cast<double>(
                               core->throttle()->degree());
                       });
        }
        // Cycle-accounting categories as per-period fractions: the
        // delta of each exclusive tally divided by the period, so the
        // nine tracks of one core sum to 1 in every sample row.
        for (unsigned k = 0; k < numCycleCats; ++k) {
            auto cat = static_cast<CycleCat>(k);
            s.addProbe(p + "cycles." + cycleCatName(cat), pid,
                       Kind::Rate, [core, cat](Cycle) {
                           return static_cast<double>(
                               core->cycleCount(cat));
                       });
        }
    }
    for (unsigned ch = 0; ch < mem_->numChannels(); ++ch) {
        std::string p = "dram" + std::to_string(ch) + ".";
        int pid = obs::trackForChannel(ch);
        const DramChannel *channel = &mem_->channel(ch);
        s.addProbe(
            p + "rowHitRate", pid, Kind::Ratio,
            [channel](Cycle) {
                return static_cast<double>(channel->counters().rowHits);
            },
            [channel](Cycle) {
                return static_cast<double>(channel->counters().reads +
                                           channel->counters().writes);
            });
        s.addProbe(p + "blp", pid, Kind::Gauge, [channel](Cycle now) {
            return static_cast<double>(channel->busyBanks(now));
        });
        s.addProbe(p + "bufOcc", pid, Kind::Gauge, [channel](Cycle) {
            return static_cast<double>(channel->bufferOccupancy());
        });
    }
    s.addProbe("mem.injCreditStalls", obs::trackGlobal, Kind::Rate,
               [mem = mem_.get()](Cycle) {
                   return static_cast<double>(mem->injCreditStalls());
               });
    s.start(obs->config().samplePeriod);
}

void
Gpu::dispatchBlocks()
{
    dispatchedScratch_.clear();
    if (!cfg_.dispatchContiguous) {
        // Round-robin ablation: hand the globally next block to each
        // core with a free slot. The scan origin rotates every cycle —
        // a fixed origin would always favour core 0 when blocks are
        // scarce, which is first-fit, not round-robin.
        unsigned n = static_cast<unsigned>(cores_.size());
        for (unsigned k = 0; k < n; ++k) {
            CoreId c = (rrStartCore_ + k) % n;
            if (nextBlockOfCore_[0] < endBlockOfCore_[0] &&
                cores_[c]->hasBlockCapacity()) {
                if (cores_[c]->idle())
                    ++busyCores_;
                cores_[c]->dispatchBlock(nextBlockOfCore_[0]++);
                MTP_ASSERT(pendingBlocks_ > 0, "pending-block underflow");
                --pendingBlocks_;
                dispatchedScratch_.push_back(c);
            }
        }
        rrStartCore_ = (rrStartCore_ + 1) % n;
        return;
    }
    // Each core pulls the next block of its contiguous range (one
    // dispatch per core per cycle).
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (nextBlockOfCore_[c] < endBlockOfCore_[c] &&
            cores_[c]->hasBlockCapacity()) {
            if (cores_[c]->idle())
                ++busyCores_;
            cores_[c]->dispatchBlock(nextBlockOfCore_[c]++);
            MTP_ASSERT(pendingBlocks_ > 0, "pending-block underflow");
            --pendingBlocks_;
            dispatchedScratch_.push_back(c);
        }
    }
}

bool
Gpu::blocksPendingFor(CoreId c) const
{
    // In round-robin mode every core draws from the shared cursor.
    return cfg_.dispatchContiguous
               ? nextBlockOfCore_[c] < endBlockOfCore_[c]
               : pendingBlocks_ > 0;
}

bool
Gpu::dispatchPossible() const
{
    if (pendingBlocks_ == 0)
        return false;
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (blocksPendingFor(c) && cores_[c]->hasBlockCapacity())
            return true;
    }
    return false;
}

void
Gpu::step()
{
    ++sched_.cyclesStepped;
    dispatchBlocks();
    for (auto &core : cores_) {
        bool was_busy = !core->idle();
        ++sched_.coreTicks;
        core->tick(now_);
        if (was_busy && core->idle()) {
            MTP_ASSERT(busyCores_ > 0, "busy-core underflow");
            --busyCores_;
        }
    }
    mem_->tick(now_);
    if ((now_ & 127) == 0) {
        for (auto &core : cores_) {
            unsigned a = core->activeWarps();
            if (a > 0) {
                activeWarpSum_ += a;
                ++activeWarpSamples_;
            }
        }
        obs::FlightRecorder::beat();
        cycleGauge_.set(now_);
    }
    // Sample after every component ticked this cycle: the row reflects
    // end-of-cycle state. Reading counters has no side effects, so the
    // step stays bit-identical with sampling on or off.
    if (obs_ && obs_->sampler().due(now_))
        obs_->sampler().sample(now_);
    ++now_;
}

bool
Gpu::done() const
{
    bool fast = pendingBlocks_ == 0 && busyCores_ == 0 && mem_->drained();
#if MTP_SLOW_CHECKS
    MTP_ASSERT(fast == doneScan(),
               "done() counters disagree with exhaustive scan");
#endif
    return fast;
}

bool
Gpu::doneScan() const
{
    for (CoreId c = 0; c < cores_.size(); ++c) {
        if (nextBlockOfCore_[c] < endBlockOfCore_[c])
            return false;
    }
    for (const auto &core : cores_) {
        if (!core->idle())
            return false;
    }
    return mem_->drainedScan();
}

void
Gpu::bulkWarpSamples(Cycle from, Cycle to)
{
    // The active-warp samples the skipped per-cycle loop would have
    // taken at each (cycle & 127) == 0 in [from, to): no component
    // acts in the window, so every sample sees the current state.
    Cycle first = (from + 127) & ~Cycle{127};
    if (first < to) {
        std::uint64_t m = (to - 1 - first) / 128 + 1;
        for (const auto &core : cores_) {
            unsigned a = core->activeWarps();
            if (a > 0) {
                activeWarpSum_ += static_cast<std::uint64_t>(a) * m;
                activeWarpSamples_ += m;
            }
        }
    }
}

RunResult
Gpu::run()
{
    cycleGauge_ = obs::FlightRecorder::acquireGauge(
        "run" + std::to_string(nextHostRunSeq()) + ".cycle");
    if (cfg_.fastForward)
        runQueued();
    else
        runNaive();
    obs::FlightRecorder::releaseGauge(cycleGauge_);
    RunResult result = summarize();
    if (obs_)
        obs_->finish();
    return result;
}

void
Gpu::runNaive()
{
    while (!done()) {
        if (now_ >= cfg_.maxCycles)
            MTP_FATAL("simulation of '", kernel_.name, "' exceeded ",
                      cfg_.maxCycles, " cycles; likely deadlock or ",
                      "an unreasonable configuration");
        step();
    }
}

void
Gpu::runQueued()
{
    const auto n = static_cast<unsigned>(cores_.size());
    // Queue slots: one per core, then the memory system, the block
    // dispatcher, and the observer sampler.
    const std::size_t memId = n;
    const std::size_t dispatchId = n + 1;
    const std::size_t samplerId = n + 2;
    queue_.reset(n + 3); // everything due at cycle 0
    coreSettledTo_.assign(n, 0);
    rrSyncedAt_ = 0;
    queue_.arm(samplerId, invalidCycle);
    if (obs_)
        queue_.arm(samplerId, obs_->sampler().nextSampleAt());
    // Host-profiler scopes test this hoisted bool: the per-iteration
    // disabled cost is a predicted branch.
    const bool hp = obs::HostProfiler::enabled();
    while (!done()) {
        if (now_ >= cfg_.maxCycles)
            MTP_FATAL("simulation of '", kernel_.name, "' exceeded ",
                      cfg_.maxCycles, " cycles; likely deadlock or ",
                      "an unreasonable configuration");
        const Cycle t = now_;
        ++sched_.cyclesStepped;
#if MTP_SLOW_CHECKS
        // Parked components must be provably non-actionable: ticking
        // them would be a no-op, which is exactly why the queued loop
        // may leave them unticked. A parked blocked LSU's retry is
        // re-run without side effects: it must still fail as recorded.
        for (CoreId c = 0; c < n; ++c) {
            if (queue_.key(c) > t)
                MTP_ASSERT(cores_[c]->nextEventAt(t) > t &&
                               mem_->completions(c).empty() &&
                               cores_[c]->lsuBlockHolds(),
                           "parked core ", c, " is actionable at ", t);
        }
        if (queue_.key(memId) > t)
            MTP_ASSERT(mem_->mrqOccupancy() == 0 &&
                           mem_->nextSelfEventAt(t) > t,
                       "parked memory system is actionable at ", t);
        if (queue_.key(dispatchId) > t)
            MTP_ASSERT(!dispatchPossible(),
                       "parked dispatcher is actionable at ", t);
#endif
        // Phase order matches step(): dispatch, cores in ascending id,
        // memory, warp sample, observer sample.
        if (queue_.key(dispatchId) <= t) {
            obs::HostScope hostDispatch(obs::HostPhase::Dispatch, hp);
            queue_.notePop();
            // Catch the round-robin origin up with the cycles the
            // dispatcher sat parked (it rotates once per cycle even
            // when nothing dispatches).
            if (!cfg_.dispatchContiguous && t > rrSyncedAt_)
                rrStartCore_ = static_cast<unsigned>(
                    (rrStartCore_ + (t - rrSyncedAt_)) % n);
            dispatchBlocks();
            rrSyncedAt_ = t + 1; // dispatchBlocks rotated once itself
            for (CoreId c : dispatchedScratch_)
                queue_.armEarlier(c, t);
            queue_.arm(dispatchId,
                       dispatchPossible() ? t + 1 : invalidCycle);
        }
        {
            obs::HostScope hostCores(obs::HostPhase::CoreTick, hp);
            for (CoreId c = 0; c < n; ++c) {
                if (queue_.key(c) > t)
                    continue;
                queue_.notePop();
                Core &core = *cores_[c];
                // Settle the parked window first: accountSkip() gives its
                // cycles the stall attribution (and a blocked LSU's
                // retry counters) their ticks would have recorded.
                if (coreSettledTo_[c] < t)
                    core.accountSkip(coreSettledTo_[c], t);
                bool was_busy = !core.idle();
                bool had_capacity = core.hasBlockCapacity();
                ++sched_.coreTicks;
                core.tick(t);
                if (was_busy && core.idle()) {
                    MTP_ASSERT(busyCores_ > 0, "busy-core underflow");
                    --busyCores_;
                }
                coreSettledTo_[c] = t + 1;
                queue_.arm(c, core.nextEventAt(t + 1));
                // Freeing an occupancy slot revives the dispatcher.
                if (!had_capacity && core.hasBlockCapacity() &&
                    blocksPendingFor(c))
                    queue_.armEarlier(dispatchId, t + 1);
            }
        }
        // Cores run before memory within a cycle, so a request pushed
        // into an MRQ this very cycle is visible to the occupancy
        // check — no wake edge needed for core -> mem.
        if (queue_.key(memId) <= t || mem_->mrqOccupancy() > 0) {
            obs::HostScope hostMem(obs::HostPhase::MemTick, hp);
            queue_.notePop();
            mem_->tickQueued(t);
            for (CoreId c : mem_->deliveredCores())
                queue_.armEarlier(c, t + 1);
            for (CoreId c : mem_->mrqFreedCores())
                queue_.armEarlier(c, t + 1);
            queue_.arm(memId, mem_->nextSelfEventAt(t + 1));
        }
        if ((t & 127) == 0) {
            for (auto &core : cores_) {
                unsigned a = core->activeWarps();
                if (a > 0) {
                    activeWarpSum_ += a;
                    ++activeWarpSamples_;
                }
            }
            obs::FlightRecorder::beat();
            cycleGauge_.set(t);
        }
        if (obs_ && queue_.key(samplerId) <= t) {
            obs::HostScope hostSample(obs::HostPhase::Sample, hp);
            queue_.notePop();
            // Sample rows read per-core cycle-accounting counters, which
            // this loop attributes lazily; settle every parked core's
            // window through this cycle (the attribution is the same
            // split its no-op ticks would have recorded) so the row
            // matches the naive loop's end-of-cycle state.
            for (CoreId c = 0; c < n; ++c) {
                if (coreSettledTo_[c] <= t) {
                    cores_[c]->accountSkip(coreSettledTo_[c], t + 1);
                    coreSettledTo_[c] = t + 1;
                }
            }
            obs_->sampler().sample(t);
            obs_->recordHostSync(t);
            queue_.arm(samplerId, obs_->sampler().nextSampleAt());
        }
        now_ = t + 1;
        if (done())
            break;
        {
            obs::HostScope hostSkip(obs::HostPhase::HorizonSkip, hp);
            // Jump straight to the earliest armed event. Capping at
            // maxCycles keeps the deadlock diagnostic identical.
            Cycle next = queue_.earliest(now_);
            Cycle target = std::min(next, cfg_.maxCycles);
            if (target > now_) {
                bulkWarpSamples(now_, target);
                sched_.cyclesSkipped += target - now_;
                ++sched_.skipSuccesses;
                now_ = target;
            }
        }
    }
    // Settle every core's trailing parked window so summarize()'s
    // cycle-accounting verification sees all elapsed cycles attributed.
    for (CoreId c = 0; c < n; ++c)
        if (coreSettledTo_[c] < now_)
            cores_[c]->accountSkip(coreSettledTo_[c], now_);
}

RunResult
Gpu::summarize() const
{
    obs::HostScope hostScope(obs::HostPhase::Summarize);
    RunResult r;
    r.cycles = now_;
    std::uint64_t demand_count = 0;
    std::uint64_t demand_sum = 0;
    std::uint64_t pref_count = 0;
    std::uint64_t pref_sum = 0;
    for (CoreId id = 0; id < cores_.size(); ++id) {
        const auto &c = cores_[id]->counters();
        r.warpInsts += c.warpInstsIssued;
        r.prefCacheHits += c.prefCacheHitTxns;
        r.demandTxns += c.demandTxns;
        demand_count += c.demandCount;
        demand_sum += c.demandLatencySum;
        pref_count += c.prefCount;
        pref_sum += c.prefLatencySum;
        const auto &pc = cores_[id]->prefCache().counters();
        r.prefFills += pc.fills;
        r.prefUseful += pc.useful;
        r.prefEarlyEvicted += pc.earlyEvictions;
        r.prefLate += cores_[id]->mshr().counters().demandIntoPref;
    }
    r.cpi = r.warpInsts
                ? static_cast<double>(r.cycles) * cfg_.numCores /
                      static_cast<double>(r.warpInsts)
                : 0.0;
    r.avgDemandLatency =
        demand_count ? static_cast<double>(demand_sum) / demand_count
                     : 0.0;
    r.avgPrefetchLatency =
        pref_count ? static_cast<double>(pref_sum) / pref_count : 0.0;
    r.dramBytes = mem_->dramBytes();
    r.avgActiveWarps =
        activeWarpSamples_
            ? static_cast<double>(activeWarpSum_) / activeWarpSamples_
            : 0.0;

    r.stats.add("sim.cycles", static_cast<double>(r.cycles),
                "total execution cycles");
    r.stats.add("sim.warpInsts", static_cast<double>(r.warpInsts),
                "warp instructions issued");
    r.stats.add("sim.cpi", r.cpi, "per-core cycles per warp instruction");
    r.stats.add("sim.avgActiveWarps", r.avgActiveWarps,
                "mean resident warps per busy core");
    r.stats.add("sim.numCores", static_cast<double>(cfg_.numCores),
                "cores simulated");
    // Cycle-accounting invariants (DESIGN.md §9): every elapsed cycle
    // of every core attributed to exactly one category, and the Issued
    // category reconciled against Counters::issueCycles.
    for (const auto &core : cores_)
        core->verifyCycleAccounting(now_);
    for (unsigned k = 0; k < numCycleCats; ++k) {
        auto cat = static_cast<CycleCat>(k);
        std::uint64_t sum = 0;
        for (const auto &core : cores_)
            sum += core->cycleCount(cat);
        r.stats.add(std::string("sim.cycles.") + cycleCatName(cat),
                    static_cast<double>(sum), cycleCatDesc(cat));
    }
    for (CoreId c = 0; c < cores_.size(); ++c)
        cores_[c]->exportStats(r.stats, "core" + std::to_string(c));
    mem_->exportStats(r.stats, "mem");

    // Scheduler introspection: how the host simulated the run. Kept in
    // the separate RunResult::sched set — see its doc comment.
    r.sched.add("sim.sched.cyclesStepped",
                static_cast<double>(sched_.cyclesStepped),
                "cycles executed by the per-cycle loop");
    r.sched.add("sim.sched.cyclesSkipped",
                static_cast<double>(sched_.cyclesSkipped),
                "cycles fast-forwarded without stepping");
    r.sched.add("sim.sched.skipSuccesses",
                static_cast<double>(sched_.skipSuccesses),
                "fast-forward jumps that moved the clock");
    r.sched.add("sim.sched.coreTicks",
                static_cast<double>(sched_.coreTicks),
                "per-core tick() calls executed");
    std::uint64_t elided =
        sched_.cyclesStepped * cores_.size() - sched_.coreTicks;
    r.sched.add("sim.sched.coreTicksElided", static_cast<double>(elided),
                "core ticks skipped by the event queue");
    r.sched.add("sim.sched.queuePushes",
                static_cast<double>(queue_.pushes()),
                "event-queue arm operations");
    r.sched.add("sim.sched.queuePops", static_cast<double>(queue_.pops()),
                "event-queue due-component pops");
    r.sched.add("sim.sched.horizonHits",
                static_cast<double>(mem_->horizonHits()),
                "DRAM channel horizon-cache hits");
    r.sched.add("sim.sched.horizonMisses",
                static_cast<double>(mem_->horizonMisses()),
                "DRAM channel horizon-cache recomputes");
    return r;
}

RunResult
simulate(const SimConfig &cfg, const KernelDesc &kernel)
{
    Gpu gpu(cfg, kernel);
    return gpu.run();
}

RunResult
simulate(const SimConfig &cfg, const KernelDesc &kernel,
         const obs::ObsConfig &ocfg)
{
    if (ocfg.enabled()) {
        obs::Observer observer(ocfg);
        Gpu gpu(cfg, kernel, &observer);
        return gpu.run();
    }
    return simulate(cfg, kernel);
}

} // namespace mtp
