#include "perfbench/replay.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "core/lru_table.hh"

namespace perfbench {

using namespace mtp;

namespace {

/** One warp-level execution of a memory instruction. */
struct Access
{
    const StaticInst *inst;
    std::uint64_t wid;
    std::uint64_t iter;
};

/** Warps of a grid whose accesses are replayed (the first few blocks). */
constexpr std::uint64_t kReplayWarps = 64;

/** Timed repetitions of each replay; the median is reported. */
constexpr int kReps = 5;

/** Receives every timed result, so no replay loop is optimized away. */
volatile std::uint64_t g_sink = 0;

std::vector<Access>
accessStream(const std::vector<KernelDesc> &kernels, std::size_t maxAccesses)
{
    std::vector<Access> out;
    const std::size_t perKernel =
        maxAccesses / std::max<std::size_t>(1, kernels.size());
    for (const KernelDesc &k : kernels) {
        const std::uint64_t warps = std::min(k.totalWarps(), kReplayWarps);
        const std::size_t end = out.size() + perKernel;
        for (const Segment &seg : k.segments)
            for (std::uint32_t trip = 0; trip < seg.trips; ++trip)
                for (const StaticInst &inst : seg.insts)
                    if (inst.op == Opcode::Load || inst.op == Opcode::Store)
                        for (std::uint64_t w = 0;
                             w < warps && out.size() < end; ++w)
                            out.push_back({&inst, w, trip});
    }
    return out;
}

/** Median ns per op of @p body (which returns its op count). */
template <typename Body>
double
timePerOp(Body &&body)
{
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        std::uint64_t ops = body();
        double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
        samples.push_back(ops ? ns / static_cast<double>(ops) : 0.0);
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

ReplayTimes
replayLayers(const std::vector<KernelDesc> &kernels, const SimConfig &cfg,
             std::size_t maxAccesses)
{
    ReplayTimes t;
    const std::vector<Access> stream = accessStream(kernels, maxAccesses);
    if (stream.empty())
        return t;

    // Materialize the coalesced transactions once, untimed: the DRAM,
    // prefetch-cache and prefetcher replays consume them.
    std::vector<std::vector<MemTxn>> txns(stream.size());
    std::uint64_t totalTxns = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
        const Access &a = stream[i];
        coalesceWarpAccess(a.inst->pattern, a.wid * warpSize, a.iter,
                           txns[i]);
        totalTxns += txns[i].size();
    }
    t.txnsPerAccess =
        static_cast<double>(totalTxns) / static_cast<double>(stream.size());

    std::uint64_t sink = 0;
    std::vector<MemTxn> scratch;
    t.coalesceNs = timePerOp([&] {
        for (const Access &a : stream) {
            coalesceWarpAccess(a.inst->pattern, a.wid * warpSize, a.iter,
                               scratch);
            sink += scratch.size();
        }
        return static_cast<std::uint64_t>(stream.size());
    });

    // DRAM channel 0 sees the blocks the memory system would route to
    // it (block index modulo the channel count).
    std::vector<Addr> chan0;
    for (const auto &list : txns)
        for (const MemTxn &x : list)
            if (blockIndex(x.addr) % cfg.dramChannels == 0)
                chan0.push_back(x.addr);
    t.dramTickNs = timePerOp([&] {
        DramChannel ch(cfg, 0);
        std::vector<MemRequest> done;
        Cycle now = 0;
        for (Addr a : chan0) {
            while (ch.bufferFull()) {
                done.clear();
                ch.tick(now++, done);
                sink += done.size();
            }
            ch.insert(MemRequest::make(a, ReqType::DemandLoad, 0, now));
            done.clear();
            ch.tick(now++, done);
            sink += done.size();
        }
        return static_cast<std::uint64_t>(now);
    });

    t.pcacheNs = timePerOp([&] {
        PrefetchCache pc(cfg.prefCacheBytes, cfg.prefCacheAssoc);
        std::uint64_t ops = 0;
        for (const auto &list : txns) {
            for (const MemTxn &x : list) {
                ++ops;
                if (pc.demandAccess(x.addr)) {
                    ++sink;
                } else {
                    pc.fill(x.addr);
                    ++ops;
                }
            }
        }
        return ops;
    });

    t.observeNs = timePerOp([&] {
        MtHwpPrefetcher pref(cfg);
        std::vector<Addr> out;
        std::uint64_t ops = 0;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const Access &a = stream[i];
            if (a.inst->op != Opcode::Load)
                continue;
            PrefObservation obs{
                a.inst->pc, static_cast<std::uint32_t>(a.wid % warpSize),
                a.wid, a.inst->pattern.laneAddr(a.wid * warpSize, a.iter),
                &txns[i]};
            out.clear();
            pref.observe(obs, out);
            sink += out.size();
            ++ops;
        }
        return ops;
    });

    t.lruNs = timePerOp([&] {
        LruTable<PcWid, std::uint64_t, PcWidHash> table(cfg.pwsEntries);
        std::uint64_t ops = 0;
        for (const Access &a : stream) {
            if (a.inst->op != Opcode::Load)
                continue;
            table.findOrInsert(PcWid{a.inst->pc, a.wid}) += a.iter;
            ++ops;
        }
        sink += table.size();
        return ops;
    });

    g_sink = sink;
    return t;
}

} // namespace perfbench
