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
#include <span>
#include <string>
#include <variant>
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
 * Checked number parser for config values, CLI flags and kernel files:
 * the whole of @p value must parse as T (std::from_chars; an unsigned T
 * also takes 0x hex), so a sign on an unsigned type, trailing text or
 * an out-of-range value exits @p status with one line naming @p key (a
 * config key, a flag such as "--scale" or a kernel file's file:line).
 */
template <typename T>
T parseNumber(const std::string &key, const std::string &value,
              int status = 1);

/** Largest maxBlocksPerCore a config key or a kernel may ask for. */
inline constexpr unsigned maxBlocksPerCoreLimit = 32;

/**
 * Complete configuration of one simulation. Aggregate-initializable;
 * every field has the paper's baseline value as default and one entry
 * in the key table (configKeys()), which gives its override name and
 * accepted range.
 */
struct SimConfig
{
    // ------------------------------------------------------------------
    // Cores (Table II: 14 cores, 8-wide SIMD, 900 MHz, in-order). The
    // core model fixes SIMD and fetch width: it issues at most one warp
    // instruction per cycle, and latencyOther's 4 cycles per 32-thread
    // warp are what 8 lanes give.
    // ------------------------------------------------------------------
    unsigned numCores = 14;       //!< number of SIMT cores
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
    // On-chip storage (Table II; shared memory is folded into compute
    // instructions, DESIGN.md §1)
    // ------------------------------------------------------------------
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
     * Unknown keys and unparsable values are fatal; ranges are checked
     * by validate(). @return *this for chaining.
     */
    SimConfig &applyOverride(const std::string &kv);

    /** Apply a list of overrides (e.g. argv tail). */
    SimConfig &applyOverrides(const std::vector<std::string> &kvs);

    /** Check each key's [min, max], then cross-field rules; fatal if not. */
    void validate() const;

    /**
     * Print the key table as "key = value" lines in table order;
     * memClockNum and memClockDen share one "memClock = N/D" line.
     */
    void dump(std::ostream &os) const;
};

/** One settable key: the member it sets and its accepted [min, max]. */
template <typename T>
struct ConfigField
{
    T SimConfig::*member;
    T min;
    T max;
};

/**
 * The fixed dump value of a removed key: run fingerprints hash the
 * dump, so it keeps its line, but applyOverride() rejects its name.
 */
struct PinnedLine
{
    const char *value;
};

/** One row of the SimConfig key table. */
struct ConfigKey
{
    const char *name; //!< override key and dump label
    std::variant<ConfigField<unsigned>, ConfigField<std::uint64_t>,
                 ConfigField<double>, ConfigField<bool>,
                 ConfigField<HwPrefKind>, PinnedLine>
        field;
};

/**
 * The key table in dump order: one ConfigField per SimConfig member,
 * plus the pinned lines. applyOverride(), validate() and dump() are
 * each one loop over it.
 */
std::span<const ConfigKey> configKeys();

} // namespace mtp

#endif // MTP_COMMON_CONFIG_HH
