/**
 * @file
 * Kernel descriptors and the per-warp dynamic instruction cursor.
 *
 * A KernelDesc is a compact program: an ordered list of segments, each a
 * list of StaticInsts replayed `trips` times. Every warp of the launch
 * executes the same program (no divergence modeling; the paper's
 * uncoal-type irregularity is expressed through address scattering).
 * This is the trace *generator* that substitutes for the paper's
 * GPUOcelot trace files.
 */

#ifndef MTP_TRACE_KERNEL_HH
#define MTP_TRACE_KERNEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"
#include "trace/instruction.hh"

namespace mtp {

/** A straight-line run of instructions executed @p trips times. */
struct Segment
{
    std::vector<StaticInst> insts;
    std::uint32_t trips = 1;

    /** @return true iff this segment loops (more than one trip). */
    bool isLoop() const { return trips > 1; }
};

/** Most warps in one thread block: CUDA's 1024-thread block. */
inline constexpr unsigned maxWarpsPerBlock = 32;

/** A complete kernel launch description. */
class KernelDesc
{
  public:
    std::string name;            //!< benchmark/kernel name
    unsigned warpsPerBlock = 1;  //!< warps per thread block
    std::uint64_t numBlocks = 1; //!< thread blocks in the grid
    unsigned maxBlocksPerCore = 1; //!< occupancy limit (Table III)
    std::vector<Segment> segments; //!< program body

    /**
     * Assign unique PCs to every static instruction and validate the
     * program (grid limits, slot ranges, loop structure); fatal on a
     * violation. Must be called once after construction and before
     * simulation; re-finalizing after a transform is allowed and
     * reassigns PCs.
     */
    void finalize();

    /** @return true once finalize() has run. */
    bool finalized() const { return finalized_; }

    /** Dynamic warp-instructions one warp executes (incl. repeats). */
    std::uint64_t warpInstsPerWarp() const;

    /** Dynamic demand memory instructions (Load/Store) per warp. */
    std::uint64_t memInstsPerWarp() const;

    /** Dynamic software-prefetch instructions per warp. */
    std::uint64_t prefInstsPerWarp() const;

    /** Total warps in the launch. */
    std::uint64_t totalWarps() const { return numBlocks * warpsPerBlock; }

    /** Total threads in the launch. */
    std::uint64_t totalThreads() const { return totalWarps() * warpSize; }

    /**
     * The compute-to-memory warp-instruction ratio used by the MTAML
     * analytic model (Eq. 1): #comp_inst / #mem_inst.
     */
    double compToMemRatio() const;

  private:
    bool finalized_ = false;
};

/**
 * Lazily walks one warp's dynamic instruction stream
 * (segment -> trip -> instruction -> repetition).
 */
class WarpCursor
{
  public:
    WarpCursor() = default;

    /** Bind to a finalized kernel and position at the first instruction. */
    explicit WarpCursor(const KernelDesc *kernel);

    /** @return true when the warp has retired its last instruction. */
    bool done() const { return done_; }

    /** Current static instruction; cursor must not be done. */
    const StaticInst &
    inst() const
    {
        MTP_ASSERT(!done_, "inst() on a finished WarpCursor");
        return kernel_->segments[seg_].insts[idx_];
    }

    /** Loop iteration (trip index) of the current instruction. */
    std::uint64_t iter() const { return trip_; }

    /** Move to the next dynamic instruction. */
    void advance();

  private:
    /** Skip empty segments / position on a valid instruction. */
    void normalize();

    const KernelDesc *kernel_ = nullptr;
    std::uint32_t seg_ = 0;
    std::uint32_t trip_ = 0;
    std::uint32_t idx_ = 0;
    std::uint16_t rep_ = 0;
    bool done_ = true;
};

} // namespace mtp

#endif // MTP_TRACE_KERNEL_HH
