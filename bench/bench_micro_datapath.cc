/**
 * @file
 * Microbenchmarks (google-benchmark) of the simulator's hot paths:
 * prefetcher training/lookup, coalescing, the LRU table, the prefetch
 * cache and whole-GPU simulation throughput. These guard the
 * simulator's own performance rather than reproducing a paper figure.
 */

#include <benchmark/benchmark.h>

#include "common/bitutils.hh"
#include "core/lru_table.hh"
#include "mtprefetch/mtprefetch.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

void
BM_CoalesceCoalesced(benchmark::State &state)
{
    AddressPattern p;
    p.base = 0x1000'0000ULL;
    p.threadStride = 4;
    std::vector<MemTxn> txns;
    std::uint64_t tid = 0;
    for (auto _ : state) {
        coalesceWarpAccess(p, tid, 0, txns);
        benchmark::DoNotOptimize(txns.data());
        tid += warpSize;
    }
}
BENCHMARK(BM_CoalesceCoalesced);

void
BM_CoalesceUncoalesced(benchmark::State &state)
{
    AddressPattern p;
    p.base = 0x1000'0000ULL;
    p.threadStride = 2112;
    std::vector<MemTxn> txns;
    std::uint64_t tid = 0;
    for (auto _ : state) {
        coalesceWarpAccess(p, tid, 0, txns);
        benchmark::DoNotOptimize(txns.data());
        tid += warpSize;
    }
}
BENCHMARK(BM_CoalesceUncoalesced);

void
BM_LruTableChurn(benchmark::State &state)
{
    LruTable<PcWid, int, PcWidHash> table(
        static_cast<unsigned>(state.range(0)));
    std::uint64_t i = 0;
    for (auto _ : state) {
        PcWid key{i % 97, static_cast<std::uint64_t>(i % 13)};
        table.findOrInsert(key) = static_cast<int>(i);
        benchmark::DoNotOptimize(table.find(key));
        ++i;
    }
}
BENCHMARK(BM_LruTableChurn)->Arg(8)->Arg(32)->Arg(1024);

void
BM_MtHwpObserve(benchmark::State &state)
{
    SimConfig cfg;
    MtHwpPrefetcher pref(cfg);
    std::vector<MemTxn> txns = {{0x1000, 64}, {0x1040, 64}};
    std::vector<Addr> out;
    std::uint64_t i = 0;
    for (auto _ : state) {
        PrefObservation obs{0x10 + (i % 4) * 4,
                            static_cast<std::uint32_t>(i % 16), i % 16,
                            0x1000 + i * 0x100, &txns};
        out.clear();
        pref.observe(obs, out);
        benchmark::DoNotOptimize(out.data());
        ++i;
    }
}
BENCHMARK(BM_MtHwpObserve);

void
BM_StridePcObserve(benchmark::State &state)
{
    SimConfig cfg;
    StridePcPrefetcher pref(cfg);
    std::vector<MemTxn> txns = {{0x1000, 64}};
    std::vector<Addr> out;
    std::uint64_t i = 0;
    for (auto _ : state) {
        PrefObservation obs{0x10, static_cast<std::uint32_t>(i % 16),
                            i % 16, 0x1000 + i * 0x100, &txns};
        out.clear();
        pref.observe(obs, out);
        benchmark::DoNotOptimize(out.data());
        ++i;
    }
}
BENCHMARK(BM_StridePcObserve);

void
BM_PrefetchCacheAccess(benchmark::State &state)
{
    PrefetchCache pc(16 * 1024, 8);
    std::uint64_t i = 0;
    for (auto _ : state) {
        Addr a = (mix64(i) % 4096) * blockBytes;
        if (i % 2)
            pc.fill(a);
        else
            benchmark::DoNotOptimize(pc.demandAccess(a));
        ++i;
    }
}
BENCHMARK(BM_PrefetchCacheAccess);

void
BM_DramChannelTick(benchmark::State &state)
{
    SimConfig cfg;
    DramChannel ch(cfg, 0);
    std::vector<MemRequest> done;
    Cycle now = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        if (!ch.bufferFull())
            ch.insert(MemRequest::make((mix64(i) % 65536) * blockBytes *
                                           cfg.dramChannels,
                                       ReqType::DemandLoad, 0, now));
        done.clear();
        ch.tick(now, done);
        benchmark::DoNotOptimize(done.data());
        ++now;
        ++i;
    }
}
BENCHMARK(BM_DramChannelTick);

void
BM_DramChannelTickFull(benchmark::State &state)
{
    // The saturated regime of memory-bound runs: the buffer is topped
    // up to memBufEntries before every tick, with one prefetch in four
    // and blocks spread over many rows of both banks.
    SimConfig cfg;
    DramChannel ch(cfg, 0);
    std::vector<MemRequest> done;
    Cycle now = 0;
    std::uint64_t i = 0;
    for (auto _ : state) {
        while (!ch.bufferFull()) {
            ch.insert(MemRequest::make(
                (mix64(i) % 65536) * blockBytes * cfg.dramChannels,
                i % 4 ? ReqType::DemandLoad : ReqType::HwPrefetch, 0, now));
            ++i;
        }
        done.clear();
        ch.tick(now, done);
        benchmark::DoNotOptimize(done.data());
        ++now;
    }
}
BENCHMARK(BM_DramChannelTickFull);

void
BM_GpuSimulationThroughput(benchmark::State &state)
{
    // Cycles simulated per second on a small but realistic machine.
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    KernelDesc k = test::tinyStreamKernel(2, 16, 8, 2);
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        RunResult r = simulate(cfg, k);
        cycles += r.cycles;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GpuSimulationThroughput)->Unit(benchmark::kMillisecond);

} // namespace
} // namespace mtp

BENCHMARK_MAIN();
