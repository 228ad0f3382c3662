/**
 * @file
 * Simulator configuration. SimConfig's defaults are the paper's baseline
 * GPGPU (Table II, an NVIDIA 8800GT-like part) plus the default prefetcher
 * settings used throughout the evaluation (prefetch distance 1, degree 1,
 * 16 KB 8-way prefetch cache, 100K-cycle throttle period, initial throttle
 * degree 2).
 */

#ifndef MTP_COMMON_CONFIG_HH
#define MTP_COMMON_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace mtp {

/** Which hardware prefetcher a core instantiates. */
enum class HwPrefKind
{
    None,      //!< no hardware prefetching
    StrideRPT, //!< region-indexed stride prefetcher [Iacobovici04]
    StridePC,  //!< PC-indexed stride prefetcher [Chen95, Fu92]
    Stream,    //!< Power5-like stream prefetcher [Sinharoy05]
    GHB,       //!< global history buffer AC/DC prefetcher [Nesbit04]
    MTHWP,     //!< the paper's many-thread aware prefetcher (Fig. 6)
};

/** Which software-prefetch transform a workload variant applies. */
enum class SwPrefKind
{
    None,     //!< unmodified baseline binary
    Register, //!< binding prefetch into registers [Ryoo08]
    Stride,   //!< stride prefetch into the prefetch cache
    IP,       //!< inter-thread prefetching (Sec. III-A2)
    StrideIP, //!< MT-SWP: stride + IP combined
};

/** Parse "none|register|stride|ip|mtswp" etc. */
HwPrefKind parseHwPrefKind(const std::string &s);
SwPrefKind parseSwPrefKind(const std::string &s);
std::string toString(HwPrefKind kind);
std::string toString(SwPrefKind kind);

/**
 * Checked number parsers for config values and CLI flags: the whole of
 * @p value must parse as the result type, so a sign on an unsigned
 * type, trailing text or an out-of-range value exits 1 with one line
 * naming @p key (a config key or a flag such as "--scale").
 */
unsigned parseUnsigned(const std::string &key, const std::string &value);
std::uint64_t parseU64(const std::string &key, const std::string &value);
double parseDouble(const std::string &key, const std::string &value);

/**
 * Complete configuration of one simulation. Aggregate-initializable;
 * every field has the paper's baseline value as default.
 */
struct SimConfig
{
    // ------------------------------------------------------------------
    // Cores (Table II: 14 cores, 8-wide SIMD, 900 MHz, in-order)
    // ------------------------------------------------------------------
    unsigned numCores = 14;       //!< number of SIMT cores
    unsigned simdWidth = 8;       //!< SIMD lanes per core
    unsigned fetchWidth = 1;      //!< warp-instructions fetched per cycle
    unsigned decodeCycles = 5;    //!< decode depth; stall on branch
    unsigned latencyOther = 4;    //!< cycles/warp for ordinary instructions
    unsigned latencyImul = 16;    //!< cycles/warp for integer multiply
    unsigned latencyFdiv = 32;    //!< cycles/warp for FP divide
    unsigned mrqEntries = 64;     //!< per-core memory request queue depth
    unsigned mshrEntries = 64;    //!< per-core in-flight demand trackers
    /**
     * In-flight prefetch trackers per core (the prefetch engine's own
     * request bookkeeping, separate from the demand MSHRs).
     */
    unsigned prefMshrEntries = 256;
    unsigned maxBlocksPerCore = 8; //!< upper bound; workloads tighten it

    // ------------------------------------------------------------------
    // Interconnect (Table II: 20-cycle fixed latency, at most one
    // request from every two cores per cycle)
    // ------------------------------------------------------------------
    unsigned icntLatency = 20;    //!< fixed network traversal latency
    unsigned icntCoresPerPort = 2; //!< cores sharing one injection port

    // ------------------------------------------------------------------
    // DRAM (Table II: 2 KB page, 16 banks, 8 channels, 57.6 GB/s,
    // 1.2 GHz memory / 900 MHz bus, tCL=11 tRCD=11 tRP=13)
    // ------------------------------------------------------------------
    unsigned dramChannels = 8;    //!< independent DRAM channels
    unsigned dramBanks = 2;       //!< banks per channel (16 total)
    unsigned dramRowBytes = 2048; //!< row-buffer (page) size
    unsigned dramTCL = 11;        //!< CAS latency (memory cycles)
    unsigned dramTRCD = 11;       //!< RAS-to-CAS delay (memory cycles)
    unsigned dramTRP = 13;        //!< row precharge (memory cycles)
    unsigned memBufEntries = 64;  //!< per-channel memory request buffer
    /**
     * Per-channel data-bus bandwidth in bytes per *core* cycle.
     * 8 B/cycle x 8 channels x 900 MHz = 57.6 GB/s aggregate.
     */
    unsigned dramBusBytesPerCycle = 8;
    /** Memory-to-core clock ratio numerator/denominator (1.2 GHz / 900 MHz). */
    unsigned memClockNum = 4;
    unsigned memClockDen = 3;
    bool demandPriority = true;   //!< demands beat prefetches in DRAM
    /**
     * Fixed pipeline latency (core cycles) added to every DRAM response:
     * controller front/back end, GDDR I/O and return path. Together with
     * the interconnect this yields the ~400-700 cycle unloaded global
     * memory latency of the modeled 8800GT-class part.
     */
    unsigned memLatencyExtra = 600;

    // ------------------------------------------------------------------
    // On-chip storage (Table II)
    // ------------------------------------------------------------------
    unsigned sharedMemBytes = 16 * 1024; //!< software-managed cache
    unsigned prefCacheBytes = 16 * 1024; //!< prefetch cache capacity
    unsigned prefCacheAssoc = 8;         //!< prefetch cache associativity

    // ------------------------------------------------------------------
    // Prefetching configuration (Sec. II-C3, VIII)
    // ------------------------------------------------------------------
    HwPrefKind hwPref = HwPrefKind::None; //!< hardware prefetcher kind
    bool hwPrefWarpTraining = true; //!< index/train tables with warp ids
    unsigned prefDistance = 1;    //!< prefetch distance (in strides)
    unsigned prefDegree = 1;      //!< requests per prefetch trigger
    /**
     * Warps ahead targeted by the hardware IP table per unit of
     * prefetch distance. Co-resident warps pass a PC nearly together,
     * so useful inter-thread prefetches target the next thread block
     * (~one block of warps ahead), which runs later on the same core.
     */
    unsigned ipDistanceWarps = 4;

    // Table V configurations of the evaluated baselines.
    unsigned strideRptEntries = 1024; //!< Stride RPT table entries
    unsigned strideRptRegionBits = 16; //!< Stride RPT region index bits
    unsigned stridePcEntries = 1024;  //!< StridePC table entries
    unsigned streamEntries = 512;     //!< stream prefetcher entries
    unsigned ghbEntries = 1024;       //!< GHB FIFO entries
    unsigned ghbCzoneBits = 12;       //!< GHB CZone tag bits
    unsigned ghbIndexEntries = 128;   //!< GHB index table entries

    // MT-HWP table sizes (Sec. VIII-B).
    unsigned pwsEntries = 32;     //!< per-warp stride table entries
    unsigned gsEntries = 8;       //!< global stride table entries
    unsigned ipEntries = 8;       //!< inter-thread prefetch table entries
    unsigned gsPromoteCount = 3;  //!< same-stride warps needed to promote
    unsigned ipTrainCount = 3;    //!< cross-warp matches needed to train

    // MT-HWP table enables (the Fig. 14 ablation).
    bool mthwpPws = true;         //!< instantiate the PWS table
    bool mthwpGs = true;          //!< instantiate the GS table
    bool mthwpIp = true;          //!< instantiate the IP table

    // ------------------------------------------------------------------
    // Adaptive prefetch throttling (Sec. V)
    // ------------------------------------------------------------------
    bool throttleEnable = false;   //!< run the adaptive throttle engine
    Cycle throttlePeriod = 100000; //!< metric/update period in cycles
    unsigned throttleInitDegree = 2; //!< initial throttle degree (of 0..5)
    /**
     * Early-eviction-rate thresholds (Eq. 5: early evictions per useful
     * prefetch). The paper used 0.02/0.01, tuned experimentally to its
     * testbed (footnote 5); this simulator's healthy equilibria sit at
     * 0.05-0.3 and its harmful ones above 1, so the recalibrated bounds
     * below separate the same populations.
     */
    double earlyEvictHigh = 1.5;   //!< "high" bound: harmful prefetching
    double earlyEvictLow = 0.5;    //!< "low" bound: healthy prefetching
    double mergeHigh = 0.15;       //!< merge-ratio "high" bound

    // Baseline feedback schemes compared in Fig. 15.
    bool ghbFeedback = false;      //!< GHB+F: accuracy-driven degree
    bool stridePcLateThrottle = false; //!< StridePC+T: lateness throttling

    // ------------------------------------------------------------------
    // Microarchitecture ablation knobs (not part of Table II; defaults
    // are the modeled baseline's behaviour)
    // ------------------------------------------------------------------
    /**
     * Warp selection: true = greedy-then-round-robin (keep issuing the
     * current warp until it stalls, Table II's "switching to another
     * warp if source operands are not ready"); false = pure round-robin
     * (switch every issue).
     */
    bool schedGreedy = true;
    /**
     * Block dispatch: true = contiguous per-core block ranges (the
     * locality inter-thread prefetching relies on; see DESIGN.md);
     * false = round-robin dispatch of blocks to free cores.
     */
    bool dispatchContiguous = true;

    // ------------------------------------------------------------------
    // Simulation control
    // ------------------------------------------------------------------
    bool perfectMemory = false;   //!< all memory requests take 1 cycle
    Cycle maxCycles = 400'000'000; //!< safety cap; runs must finish first
    std::uint64_t seed = 1;       //!< deterministic RNG seed
    /**
     * Event-driven cycle skipping: true (the default) runs the
     * event-queue loop — components self-schedule their next tick, only
     * due components tick each stepped cycle, and the clock jumps over
     * cycles in which nothing can act. false runs the naive loop that
     * ticks everything every cycle. Results and statistics are
     * bit-identical either way (the naive loop is kept as the oracle;
     * DESIGN.md §7); turning this off only makes runs slower.
     */
    bool fastForward = true;

    /**
     * Apply a textual "key=value" override (used by bench/example CLIs).
     * Unknown keys are fatal. @return *this for chaining.
     */
    SimConfig &applyOverride(const std::string &kv);

    /** Apply a list of overrides (e.g. argv tail). */
    SimConfig &applyOverrides(const std::vector<std::string> &kvs);

    /** Validate invariants (power-of-two sizes etc.); fatal on violation. */
    void validate() const;

    /** Print every field as "key = value" lines. */
    void dump(std::ostream &os) const;
};

} // namespace mtp

#endif // MTP_COMMON_CONFIG_HH
