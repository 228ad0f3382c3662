#include "core/sw_prefetch.hh"

#include "common/log.hh"

namespace mtp {

namespace {

/** @return true iff @p inst is a load a transform may target. */
bool
targetLoad(const StaticInst &inst)
{
    return inst.op == Opcode::Load && inst.swPrefetchable;
}

} // namespace

KernelDesc
applyStridePrefetch(const KernelDesc &kernel)
{
    KernelDesc out = kernel;
    out.name = kernel.name + "+swp_stride";
    for (auto &seg : out.segments) {
        if (!seg.isLoop())
            continue;
        std::vector<StaticInst> body;
        body.reserve(seg.insts.size() * 2);
        for (const auto &inst : seg.insts) {
            if (targetLoad(inst) && inst.pattern.iterStride != 0) {
                body.push_back(StaticInst::prefetch(
                    inst.pattern.shiftedByIters(
                        static_cast<int>(kernel.swpOpts.strideDistance))));
            }
            body.push_back(inst);
        }
        seg.insts = std::move(body);
    }
    out.finalize();
    return out;
}

KernelDesc
applyInterThreadPrefetch(const KernelDesc &kernel, bool skipStrideCovered)
{
    KernelDesc out = kernel;
    out.name = kernel.name + "+swp_ip";
    for (auto &seg : out.segments) {
        std::vector<StaticInst> body;
        body.reserve(seg.insts.size() * 2);
        for (const auto &inst : seg.insts) {
            bool covered = skipStrideCovered && seg.isLoop() &&
                           inst.pattern.iterStride != 0;
            // Each prefetch sits right before its load (Fig. 4a): it
            // needs no loaded value, so it issues even when the load
            // itself is waiting on a chained index.
            if (targetLoad(inst) && !covered) {
                body.push_back(StaticInst::prefetch(
                    inst.pattern.shiftedByWarps(
                        static_cast<int>(kernel.swpOpts.ipDistanceWarps))));
            }
            body.push_back(inst);
        }
        seg.insts = std::move(body);
    }
    out.finalize();
    return out;
}

KernelDesc
applyRegisterPrefetch(const KernelDesc &kernel)
{
    KernelDesc out = kernel;
    out.name = kernel.name + "+swp_reg";
    for (auto &seg : out.segments) {
        if (!seg.isLoop())
            continue;
        unsigned marked = 0;
        for (auto &inst : seg.insts) {
            if (targetLoad(inst)) {
                inst.regPrefetch = true;
                ++marked;
            }
        }
        // One next-iteration address computation per pipelined load.
        if (marked > 0)
            seg.insts.insert(seg.insts.begin(), StaticInst::comp(marked));
    }
    if (kernel.swpOpts.registerBlocksLost > 0) {
        unsigned lost = kernel.swpOpts.registerBlocksLost;
        out.maxBlocksPerCore = out.maxBlocksPerCore > lost
                                   ? out.maxBlocksPerCore - lost
                                   : 1;
    }
    out.finalize();
    return out;
}

KernelDesc
applySwPrefetch(const KernelDesc &kernel, SwPrefKind kind)
{
    switch (kind) {
      case SwPrefKind::None: {
        KernelDesc out = kernel;
        out.finalize();
        return out;
      }
      case SwPrefKind::Register:
        return applyRegisterPrefetch(kernel);
      case SwPrefKind::Stride:
        return applyStridePrefetch(kernel);
      case SwPrefKind::IP:
        return applyInterThreadPrefetch(kernel);
      case SwPrefKind::StrideIP:
        // MT-SWP: stride prefetching covers loop loads; inter-thread
        // prefetching covers the rest.
        return applyInterThreadPrefetch(applyStridePrefetch(kernel),
                                        /*skipStrideCovered=*/true);
    }
    MTP_PANIC("bad SwPrefKind ", static_cast<int>(kind));
}

} // namespace mtp
