/**
 * @file
 * Benchmark workloads. Each of the paper's 26 CUDA benchmarks
 * (Tables III and IV) is reproduced as a synthetic kernel whose launch
 * geometry (warps, blocks, occupancy) comes straight from Table III and
 * whose instruction mix and address patterns are tuned so the baseline
 * and perfect-memory CPIs land in the regime the paper reports. The
 * kernels are texts in the kernel-file grammar (trace/kernel_io.hh),
 * one table row each in suite.cc. See DESIGN.md for the substitution
 * rationale.
 */

#ifndef MTP_WORKLOADS_WORKLOAD_HH
#define MTP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "core/sw_prefetch.hh"
#include "trace/kernel.hh"

namespace mtp {

/** Benchmark class (Sec. VI-B). */
enum class WorkloadType
{
    Stride,  //!< strong (possibly multi-dimensional) stride behaviour
    Mp,      //!< massively parallel: huge thread count, loop-free threads
    Uncoal,  //!< dominated by uncoalesced accesses
    Compute, //!< non-memory-intensive (Table IV)
};

/** Printable name of a WorkloadType. */
std::string toString(WorkloadType type);

/** Static metadata of one benchmark. */
struct WorkloadInfo
{
    std::string name;   //!< paper's short name, e.g. "backprop"
    std::string suite;  //!< sdk / rodinia / parboil / merge
    WorkloadType type = WorkloadType::Stride;

    // Published characteristics (Tables III / IV), kept for reporting.
    double paperBaseCpi = 0.0;
    double paperPmemCpi = 0.0;
    double paperHwpCpi = 0.0; //!< Table IV only (0 when unpublished)
    std::uint64_t paperWarps = 0;
    std::uint64_t paperBlocks = 0;
    unsigned paperDelinquentStride = 0; //!< stride-delinquent loads
    unsigned paperDelinquentIp = 0;     //!< IP-delinquent loads
};

/** A benchmark: metadata plus its baseline kernel. */
struct Workload
{
    WorkloadInfo info;
    KernelDesc kernel; //!< finalized baseline kernel

    /** Kernel with the given software-prefetch transform applied. */
    KernelDesc
    variant(SwPrefKind kind) const
    {
        return applySwPrefetch(kernel, kind);
    }
};

/** Registry of all reproduced benchmarks. */
class Suite
{
  public:
    /** The 14 memory-intensive benchmarks, in Table III order. */
    static const std::vector<std::string> &memoryIntensiveNames();

    /** The 12 non-memory-intensive benchmarks, in Table IV order. */
    static const std::vector<std::string> &computeNames();

    /** Names of memory-intensive benchmarks of one class, paper order. */
    static std::vector<std::string> namesOfType(WorkloadType type);

    /**
     * A benchmark: a copy of its parsed row.
     * @param name a name from the lists above
     * @param scaleDiv divide the grid's block count by this factor to
     *        shorten simulations (occupancy and per-warp behaviour are
     *        unchanged; a floor keeps every core busy). 1 = the paper's
     *        full geometry.
     */
    static Workload get(const std::string &name, unsigned scaleDiv = 1);

    /** @return true iff @p name names a known benchmark. */
    static bool has(const std::string &name);
};

} // namespace mtp

#endif // MTP_WORKLOADS_WORKLOAD_HH
