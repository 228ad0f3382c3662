#include "trace/address_pattern.hh"

#include "common/bitutils.hh"

namespace mtp {

Addr
AddressPattern::laneAddr(std::uint64_t tid, std::uint64_t iter) const
{
    if (scatters()) {
        // Deterministic per-(thread, iteration) scatter decision. The
        // hash is uniform in [0, 2^64); compare against the fraction.
        std::uint64_t h = mix64(tid * 0x100000001b3ULL + iter +
                                scatterSalt * 0x9e3779b97f4a7c15ULL);
        // frac >= 1 would overflow the double->u64 cast; clamp first.
        std::uint64_t threshold =
            scatterFrac >= 1.0
                ? ~0ULL
                : static_cast<std::uint64_t>(
                      scatterFrac * 18446744073709551616.0);
        if (h <= threshold) {
            std::uint64_t off = mix64(h) % (scatterSpan / elemBytes);
            return base + off * elemBytes;
        }
    }
    return regularAddr(tid, iter);
}

AddressPattern
AddressPattern::shiftedByWarps(int warps) const
{
    AddressPattern p = *this;
    p.base += static_cast<Addr>(static_cast<Stride>(warps) *
                                static_cast<Stride>(warpSize) *
                                threadStride);
    return p;
}

AddressPattern
AddressPattern::shiftedByIters(int iters) const
{
    AddressPattern p = *this;
    p.base += static_cast<Addr>(static_cast<Stride>(iters) * iterStride);
    return p;
}

} // namespace mtp
