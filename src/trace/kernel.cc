#include "trace/kernel.hh"

#include "common/config.hh"
#include "common/log.hh"

namespace mtp {

void
KernelDesc::finalize()
{
    if (segments.empty())
        MTP_FATAL("kernel '", name, "' has no segments");
    if (warpsPerBlock == 0 || numBlocks == 0)
        MTP_FATAL("kernel '", name, "' has an empty launch grid");
    // A core allocates warp slots for warpsPerBlock x maxBlocksPerCore.
    if (warpsPerBlock > maxWarpsPerBlock)
        MTP_FATAL("kernel '", name, "' has ", warpsPerBlock,
                  " warps per block; the limit is ", maxWarpsPerBlock);
    if (maxBlocksPerCore == 0 || maxBlocksPerCore > maxBlocksPerCoreLimit)
        MTP_FATAL("kernel '", name, "' allows ", maxBlocksPerCore,
                  " blocks per core; the range is [1, ",
                  maxBlocksPerCoreLimit, "]");
    // The ranges of the matching hardware keys (prefDistance,
    // ipDistanceWarps) and of the occupancy a core can lose.
    const SwPrefetchOptions &swp = swpOpts;
    if (swp.strideDistance < 1 || swp.strideDistance > 256 ||
        swp.ipDistanceWarps > 1024 ||
        swp.registerBlocksLost > maxBlocksPerCoreLimit)
        MTP_FATAL("kernel '", name, "' has swp ", swp.strideDistance, ' ',
                  swp.ipDistanceWarps, ' ', swp.registerBlocksLost,
                  "; the ranges are [1, 256] [0, 1024] [0, ",
                  maxBlocksPerCoreLimit, "]");

    Pc next_pc = 4; // leave 0 free as a sentinel
    for (auto &seg : segments) {
        if (seg.trips == 0)
            MTP_FATAL("kernel '", name, "' has a zero-trip segment");
        for (auto &inst : seg.insts) {
            if (inst.repeat == 0)
                MTP_FATAL("kernel '", name, "' has a zero-repeat inst");
            if (inst.destSlot >= static_cast<int>(numValueSlots))
                MTP_FATAL("kernel '", name, "' writes slot out of range");
            for (auto s : inst.srcSlots) {
                if (s >= static_cast<int>(numValueSlots))
                    MTP_FATAL("kernel '", name,
                              "' reads slot out of range");
            }
            if (inst.regPrefetch && inst.op != Opcode::Load)
                MTP_FATAL("kernel '", name,
                          "' marks a non-load as regPrefetch");
            if (isMemOp(inst.op) && inst.pattern.elemBytes == 0)
                MTP_FATAL("kernel '", name, "' memory op with elemBytes=0");
            // A scatter draws element slots from the span: it needs one.
            if (isMemOp(inst.op) && inst.pattern.scatters() &&
                inst.pattern.scatterSpan < inst.pattern.elemBytes)
                MTP_FATAL("kernel '", name,
                          "' has a scatter span smaller than an element");
            inst.pc = next_pc;
            next_pc += 4;
        }
    }
    finalized_ = true;
}

std::uint64_t
KernelDesc::warpInstsPerWarp() const
{
    std::uint64_t n = 0;
    for (const auto &seg : segments) {
        std::uint64_t per_trip = 0;
        for (const auto &inst : seg.insts)
            per_trip += inst.repeat;
        n += per_trip * seg.trips;
    }
    return n;
}

std::uint64_t
KernelDesc::memInstsPerWarp() const
{
    std::uint64_t n = 0;
    for (const auto &seg : segments) {
        std::uint64_t per_trip = 0;
        for (const auto &inst : seg.insts) {
            if (inst.op == Opcode::Load || inst.op == Opcode::Store)
                per_trip += inst.repeat;
        }
        n += per_trip * seg.trips;
    }
    return n;
}

std::uint64_t
KernelDesc::prefInstsPerWarp() const
{
    std::uint64_t n = 0;
    for (const auto &seg : segments) {
        std::uint64_t per_trip = 0;
        for (const auto &inst : seg.insts) {
            if (inst.op == Opcode::Prefetch)
                per_trip += inst.repeat;
        }
        n += per_trip * seg.trips;
    }
    return n;
}

double
KernelDesc::compToMemRatio() const
{
    std::uint64_t mem = memInstsPerWarp();
    std::uint64_t comp = warpInstsPerWarp() - mem - prefInstsPerWarp();
    if (mem == 0)
        return static_cast<double>(comp);
    return static_cast<double>(comp) / static_cast<double>(mem);
}

WarpCursor::WarpCursor(const KernelDesc *kernel)
    : kernel_(kernel), done_(false)
{
    MTP_ASSERT(kernel_ && kernel_->finalized(),
               "WarpCursor needs a finalized kernel");
    normalize();
}

void
WarpCursor::advance()
{
    MTP_ASSERT(!done_, "advance() on a finished WarpCursor");
    const auto &seg = kernel_->segments[seg_];
    if (++rep_ < seg.insts[idx_].repeat)
        return;
    rep_ = 0;
    if (++idx_ < seg.insts.size())
        return;
    idx_ = 0;
    if (++trip_ < seg.trips)
        return;
    trip_ = 0;
    ++seg_;
    normalize();
}

void
WarpCursor::normalize()
{
    while (seg_ < kernel_->segments.size() &&
           kernel_->segments[seg_].insts.empty())
        ++seg_;
    if (seg_ >= kernel_->segments.size())
        done_ = true;
}

} // namespace mtp
