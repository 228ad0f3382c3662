/**
 * @file
 * The 26 benchmarks of Tables III and IV as kernel texts. Each row
 * holds what the paper reports for one benchmark and its kernel in the
 * kernel-file grammar of trace/kernel_io.hh, at the paper's grid,
 * exactly as `mtp-sim --bench <name> --scale 1 --dump-kernel` writes
 * it. Everything else is derived: the name from the `kernel` line, the
 * published warp and block counts from the `grid` line, the name lists
 * from table order and type. README.md says how to edit or add a row.
 *
 * Array k of benchmark b starts at 0x10000000 * (1 + 16b + k), so no
 * two streams collide; stores use arrays 8 and up.
 */

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "trace/kernel_io.hh"
#include "workloads/workload.hh"

namespace mtp {

std::string
toString(WorkloadType type)
{
    switch (type) {
      case WorkloadType::Stride:  return "stride";
      case WorkloadType::Mp:      return "mp";
      case WorkloadType::Uncoal:  return "uncoal";
      case WorkloadType::Compute: return "compute";
    }
    MTP_PANIC("bad WorkloadType ", static_cast<int>(type));
}

namespace {

/** One benchmark: its published characteristics and its kernel text. */
struct Row
{
    const char *suite;
    WorkloadType type;
    double baseCpi, pmemCpi, hwpCpi; //!< Tables III / IV (hwp: IV only)
    unsigned delinquentStride, delinquentIp; //!< Table III
    const char *kernel;
};

using enum WorkloadType;

// Table III's 14 memory-intensive benchmarks, then Table IV's 12, in
// the paper's order.
constexpr Row rows[] = {
    // Stride type: loops whose loads advance by a constant per-thread
    // stride each iteration, which is what stride SW prefetching and
    // PC-based HW stride prefetchers exploit. Several chain their loads
    // (index -> data lookups), which keeps their baselines
    // latency-bound: the regime Sec. IV identifies as the prefetching
    // opportunity. The IP transform prefetches for the next warp
    // (swp ip 1, Fig. 4); their loops make larger distances stale by
    // the time the target block arrives.
    //
    // BlackScholes: option pricing; three chained half-word input
    // streams (strike/price/time lookups feed each other's index math).
    {"sdk", Stride, 8.86, 4.15, 0, 3, 0, R"(kernel black
grid 4 480 3
swp 1 1 2
segment 1
  comp 2
end
segment 8
  load 0 0x10000000 2 61440 2
  load 1 0x20000000 2 61440 2 src=0
  load 2 0x30000000 2 61440 2 src=1
  comp 12 0 2
  imul 0 -1
  store 0 0x90000000 2 61440 2
  branch
end
segment 1
  store 0 0xa0000000 4 0 4
end
)"},
    // convolutionSeparable: one strided image stream, filter compute.
    {"sdk", Stride, 7.98, 4.21, 0, 1, 0, R"(kernel conv
grid 6 688 2
swp 1 1 1
segment 1
  comp 2
end
segment 6
  load 0 0x110000000 4 131072 4
  comp 8 0 -1
  imul 0 -1
  store 0 0x190000000 2 131072 2
  branch
end
segment 1
  store 0 0x1a0000000 4 0 4
end
)"},
    // MersenneTwister: few blocks, long state-update loops; the state
    // reload depends on the twist vector read (chained pair).
    {"sdk", Stride, 7.09, 4.99, 0, 2, 0, R"(kernel mersenne
grid 4 32 2
swp 1 1 1
segment 1
  comp 2
end
segment 48
  load 0 0x210000000 4 16384 4
  load 1 0x220000000 4 16384 4 src=0
  comp 20 0 1
  imul 0 -1
  imul 0 -1
  store 0 0x290000000 4 16384 4
  branch
end
segment 1
  store 0 0x2a0000000 4 0 4
end
)"},
    // MonteCarlo: one strided sample stream whose value feeds a
    // divide-heavy path sum; per-warp MLP is 1, so the baseline is
    // firmly latency-bound (the paper's biggest stride-prefetch win).
    {"sdk", Stride, 13.69, 5.36, 0, 1, 0, R"(kernel monte
grid 8 256 2
swp 1 1 1
segment 1
  comp 2
end
segment 16
  load 0 0x310000000 2 262144 2
  comp 6 0 -1
  fdiv 0 -1
  branch
end
segment 1
  store 0 0x3a0000000 4 0 4
end
)"},
    // Petri-net simulation: small grid (18 blocks, one per core) with
    // chained place/transition lookups.
    {"parboil", Stride, 18.87, 5.25, 0, 1, 1, R"(kernel pns
grid 8 18 1
swp 1 1 0
segment 1
  comp 2
end
segment 32
  load 0 0x410000000 4 32768 4
  load 1 0x420000000 4 32768 4 src=0
  comp 14 0 1
  imul 0 -1
  imul 0 -1
  store 0 0x490000000 4 32768 4
  branch
end
segment 1
  store 0 0x4a0000000 4 0 4
end
)"},
    // scalarProd: dot products, a chained index/data stream pair with
    // very little compute per element.
    {"sdk", Stride, 19.25, 4.19, 0, 2, 0, R"(kernel scalar
grid 8 128 2
swp 1 1 1
segment 1
  comp 2
end
segment 16
  load 0 0x510000000 2 131072 2
  load 1 0x520000000 2 131072 2 src=0
  comp 4 0 1
  branch
end
segment 1
  store 0 0x5a0000000 4 0 4
end
)"},
    // streamcluster: two chained streams (point then centre) and
    // minimal compute; the memory system saturates, so distance-1
    // prefetches are chronically late (Sec. VII-A, IX-B).
    {"rodinia", Stride, 18.93, 4.21, 0, 2, 5, R"(kernel stream
grid 16 128 1
swp 1 1 0
segment 1
  comp 2
end
segment 24
  load 0 0x610000000 4 262144 4
  load 1 0x620000000 4 262144 4 src=0
  comp 3 0 1
  store 0 0x690000000 4 262144 4
  branch
end
segment 1
  store 0 0x6a0000000 4 0 4
end
)"},
    // Massively parallel (mp) type: enormous grids of loop-free threads,
    // each touching only a few elements. There is no place for an
    // intra-thread prefetch; inter-thread prefetching was designed for
    // these (Sec. III-A2). Its prefetches target the corresponding warp
    // one block ahead (swp ip = warps per block, tid + blockDim), which
    // runs next on the same core.
    //
    // backprop: layer-weight updates. Each thread walks the connection
    // list: node -> weight -> delta lookups chain through indices
    // (Table III counts five IP-delinquent loads), so per-warp MLP is 1
    // and the baseline is badly latency-bound.
    {"rodinia", Mp, 21.47, 4.16, 0, 0, 5, R"(kernel backprop
grid 8 2048 2
swp 1 8 0
segment 1
  comp 1
  load 0 0x710000000 2 0 2
  load 1 0x720000000 2 0 2 src=0
  load 2 0x730000000 2 0 2 src=1
  load 3 0x740000000 2 0 2 src=2
  load 4 0x750000000 2 0 2 src=3
  comp 5 0 4
  store 0 0x790000000 2 0 2
end
)"},
    // cell (Leukocyte tracking stage): one load per thread but a
    // comparatively fat compute tail.
    {"rodinia", Mp, 8.81, 4.19, 0, 0, 1, R"(kernel cell
grid 16 1331 1
swp 1 16 0
segment 1
  comp 2
  load 0 0x810000000 4 0 4
  comp 12 0 -1
  imul 0 -1
  store 0 0x890000000 4 0 4
end
)"},
    // oceanFFT surface update: a huge grid of two-warp blocks doing a
    // transposed read (lanes one 16448 B row pitch apart), so every lane
    // of a warp lands in the same DRAM channel, serializing on two
    // banks. The most memory-bound mp benchmark, and one prefetching
    // cannot fix (the paper observes IP slightly degrades it).
    {"sdk", Mp, 62.63, 4.19, 0, 0, 1, R"(kernel ocean
grid 2 16384 8
swp 1 2 0
segment 1
  comp 1
  load 0 0x910000000 16448 0 4
  comp 2 0 -1
  store 0 0x990000000 4 0 4
end
)"},
    // Uncoalesced (uncoal) type: one warp load touches many distinct
    // blocks and serializes through the LSU. The loads chain through
    // index lookups, so the baselines are badly latency-bound; the
    // regular cross-thread structure still gives inter-thread
    // prefetching something to train on. Each swp ip distance is far
    // enough ahead that the target warp has not issued its demand yet,
    // near enough that the fill survives in the 16 KB prefetch cache.
    //
    // bfs: frontier-driven graph traversal. The frontier read is
    // coalesced; the edge-offset, neighbour, visited and cost lookups
    // depend on it and chain through each other (graph indirection),
    // lanes 48 B apart with 10% data-dependent scatter over the
    // frontier's working set. Loops over a few levels, so both stride-
    // and IP-delinquent loads exist (Table III: 4 stride / 3 IP).
    {"rodinia", Uncoal, 102.02, 4.19, 0, 4, 3, R"(kernel bfs
grid 16 128 1
swp 1 1 0
segment 1
  comp 2
end
segment 4
  load 0 0xa10000000 4 65536 4
  load 1 0xa20000000 48 0 4 0.1 4194304 11 src=0
  load 2 0xa20000800 48 0 4 0.1 4194304 12 src=1
  load 3 0xa20001000 48 0 4 0.1 4194304 13 src=2
  load 4 0xa20001800 48 0 4 0.1 4194304 14 src=3
  comp 12 3 4
  store 1 0xa90000000 4 65536 4
  branch
end
)"},
    // cfd (Euler3D): per-cell flux computation. The eight flux-field
    // loads walk one cell-record array (fields 2 KB apart) through an
    // element-of-structure layout, lanes 8 B apart, so one warp access
    // spreads over four sparse transactions; they chain through the
    // neighbour index (Table III counts 36 IP-delinquent loads; eight
    // model the same aggregate behaviour).
    {"rodinia", Uncoal, 29.01, 4.37, 0, 0, 36, R"(kernel cfd
grid 6 1212 1
swp 1 3 0
segment 1
  comp 2
  load 0 0xb10000000 8 0 4
  load 1 0xb10000800 8 0 4 src=0
  load 2 0xb10001000 8 0 4 src=1
  load 3 0xb10001800 8 0 4 src=2
  load 4 0xb10002000 8 0 4 src=3
  load 5 0xb10002800 8 0 4 src=4
  load 6 0xb10003000 8 0 4 src=5
  load 7 0xb10003800 8 0 4 src=6
  comp 14 6 7
  fdiv 2 -1
  comp 2 3 4
  store 0 0xbd0000000 8 0 4
  store 1 0xbe0000000 8 0 4
end
)"},
    // linear regression: each thread walks a column of a row-major
    // image, so every lane touches its own row. Four neighbourhood
    // samples (lanes 48 B apart) form one long dependent walk, each
    // sample's address coming from the previous pixel record (Table III:
    // 27 IP-delinquent loads from a 3x3 neighbourhood of three images).
    {"merge", Uncoal, 408.9, 4.18, 0, 0, 27, R"(kernel linear
grid 8 1024 2
swp 1 4 0
segment 1
  comp 2
  load 0 0xc10000000 48 0 4
  load 1 0xc1000000c 48 0 4 src=0
  load 2 0xc10000018 48 0 4 src=1
  load 3 0xc10000024 48 0 4 src=2
  comp 4 0 2
  comp 2 3 -1
  store 0 0xc90000000 4 0 4
end
)"},
    // sepia filter: RGB pixel records at 48 B per lane leave every
    // lane in (nearly) its own block; the three channel loads chain
    // through the pixel pointer.
    {"merge", Uncoal, 149.46, 4.19, 0, 0, 2, R"(kernel sepia
grid 8 1024 3
swp 1 8 0
segment 1
  comp 1
  load 0 0xd10000000 48 0 4
  load 1 0xd10000010 48 0 4 src=0
  load 2 0xd10000020 48 0 4 src=1
  comp 6 0 1
  comp 2 2 -1
  store 0 0xd90000000 48 0 4
end
)"},
    // Non-memory-intensive (Table IV): CPIs close to the perfect-memory
    // CPI, so neither hardware prefetching nor a perfect memory moves
    // them much. All share one compute-loop shape with a low
    // memory-instruction density.
    {"sdk", Compute, 4.29, 4.27, 4.25, 0, 0, R"(kernel binomial
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1010000000 4 0 4
end
segment 12
  load 1 0x1020000000 4 4096 4
  comp 28 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1030000000 4 0 4
end
)"},
    {"sdk", Compute, 4.6, 4.37, 4.45, 0, 0, R"(kernel dwthaar1d
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1110000000 4 0 4
end
segment 6
  load 1 0x1120000000 4 4096 4
  comp 20 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1130000000 4 0 4
end
)"},
    {"sdk", Compute, 4.73, 4.72, 4.73, 0, 0, R"(kernel eigenvalue
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1210000000 4 0 4
end
segment 16
  load 1 0x1220000000 4 4096 4
  comp 30 0 1
  branch
end
segment 1
  store 1 0x1230000000 4 0 4
end
)"},
    // Slightly memory-sensitive (Table IV: 6.36 base vs 4.18 PMEM).
    {"rodinia", Compute, 6.36, 4.18, 5.94, 0, 0, R"(kernel gaussian
grid 4 256 2
swp 1 1 0
segment 1
  comp 2
  load 0 0x1310000000 4 0 4
end
segment 8
  load 1 0x1320000000 4 4096 4
  comp 10 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1330000000 4 0 4
end
)"},
    // Elevated PMEM CPI (5.17): multiply-heavy binning.
    {"sdk", Compute, 6.29, 5.17, 6.31, 0, 0, R"(kernel histogram
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1410000000 4 0 4
end
segment 8
  load 1 0x1420000000 4 4096 4
  comp 10 0 1
  imul 1 -1
  imul 1 -1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1430000000 4 0 4
end
)"},
    {"rodinia", Compute, 4.23, 4.2, 4.23, 0, 0, R"(kernel leukocyte
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1510000000 4 0 4
end
segment 10
  load 1 0x1520000000 4 4096 4
  comp 32 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1530000000 4 0 4
end
)"},
    {"sdk", Compute, 5.14, 4.14, 4.98, 0, 0, R"(kernel matrix
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1610000000 4 0 4
end
segment 8
  load 1 0x1620000000 4 4096 4
  comp 16 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1630000000 4 0 4
end
)"},
    {"parboil", Compute, 4.36, 4.26, 4.33, 0, 0, R"(kernel mri-fhd
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1710000000 4 0 4
end
segment 12
  load 1 0x1720000000 4 4096 4
  comp 26 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1730000000 4 0 4
end
)"},
    {"parboil", Compute, 4.31, 4.23, 4.31, 0, 0, R"(kernel mri-q
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1810000000 4 0 4
end
segment 12
  load 1 0x1820000000 4 4096 4
  comp 28 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1830000000 4 0 4
end
)"},
    {"sdk", Compute, 4.72, 4.54, 4.72, 0, 0, R"(kernel nbody
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1910000000 4 0 4
end
segment 16
  load 1 0x1920000000 4 4096 4
  comp 24 0 1
  imul 1 -1
  fdiv 1 -1
  branch
end
segment 1
  store 1 0x1930000000 4 0 4
end
)"},
    {"sdk", Compute, 4.12, 4.12, 4.12, 0, 0, R"(kernel quasirandom
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1a10000000 4 0 4
end
segment 20
  comp 30 0 1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1a30000000 4 0 4
end
)"},
    {"rodinia", Compute, 5.28, 4.17, 5.18, 0, 0, R"(kernel sad
grid 8 256 3
swp 1 1 0
segment 1
  comp 2
  load 0 0x1b10000000 4 0 4
end
segment 8
  load 1 0x1b20000000 4 4096 4
  comp 14 0 1
  imul 1 -1
  imul 1 -1
  branch
end
segment 1
  store 1 0x1b30000000 4 0 4
end
)"},
};

/** Every row, parsed on first use. */
const std::vector<Workload> &
suite()
{
    static const std::vector<Workload> parsed = [] {
        std::vector<Workload> out;
        for (const Row &row : rows) {
            std::istringstream text(row.kernel);
            Workload w;
            w.kernel = readKernel(text, "suite kernel " +
                                            std::to_string(out.size()));
            w.info = {.name = w.kernel.name,
                      .suite = row.suite,
                      .type = row.type,
                      .paperBaseCpi = row.baseCpi,
                      .paperPmemCpi = row.pmemCpi,
                      .paperHwpCpi = row.hwpCpi,
                      .paperWarps = w.kernel.totalWarps(),
                      .paperBlocks = w.kernel.numBlocks,
                      .paperDelinquentStride = row.delinquentStride,
                      .paperDelinquentIp = row.delinquentIp};
            out.push_back(std::move(w));
        }
        return out;
    }();
    return parsed;
}

const Workload *
find(const std::string &name)
{
    for (const Workload &w : suite())
        if (w.info.name == name)
            return &w;
    return nullptr;
}

/** The names of the rows @p pick accepts, in table order. */
template <typename Pick>
std::vector<std::string>
names(Pick pick)
{
    std::vector<std::string> out;
    for (const Workload &w : suite())
        if (pick(w.info.type))
            out.push_back(w.info.name);
    return out;
}

/**
 * Scale a grid's block count down by @p scaleDiv, keeping at least
 * three dispatch waves on a 14-core machine so steady-state behaviour
 * is preserved.
 */
std::uint64_t
scaledBlocks(std::uint64_t paper_blocks, unsigned scaleDiv,
             unsigned maxBlocksPerCore)
{
    MTP_ASSERT(scaleDiv > 0, "scaleDiv must be >= 1");
    std::uint64_t floor_blocks =
        3ULL * 14 * std::max(1u, maxBlocksPerCore);
    std::uint64_t scaled = paper_blocks / scaleDiv;
    return std::max<std::uint64_t>(1,
                                   std::min(paper_blocks,
                                            std::max(scaled,
                                                     floor_blocks)));
}

} // namespace

const std::vector<std::string> &
Suite::memoryIntensiveNames()
{
    static const std::vector<std::string> list =
        names([](WorkloadType t) { return t != Compute; });
    return list;
}

const std::vector<std::string> &
Suite::computeNames()
{
    static const std::vector<std::string> list =
        names([](WorkloadType t) { return t == Compute; });
    return list;
}

std::vector<std::string>
Suite::namesOfType(WorkloadType type)
{
    return names([type](WorkloadType t) { return t == type; });
}

Workload
Suite::get(const std::string &name, unsigned scaleDiv)
{
    const Workload *w = find(name);
    if (!w)
        MTP_FATAL("unknown benchmark '", name, "'");
    Workload out = *w;
    out.kernel.numBlocks = scaledBlocks(out.kernel.numBlocks, scaleDiv,
                                        out.kernel.maxBlocksPerCore);
    return out;
}

bool
Suite::has(const std::string &name)
{
    return find(name) != nullptr;
}

} // namespace mtp
