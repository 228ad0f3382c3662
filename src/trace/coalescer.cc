#include "trace/coalescer.hh"

#include <algorithm>

namespace mtp {

namespace {

/** The transaction of the block at @p addr, appended if new. */
MemTxn &
txnOf(std::vector<MemTxn> &out, Addr addr)
{
    auto it = std::find_if(out.begin(), out.end(),
                           [addr](const MemTxn &t) { return t.addr == addr; });
    if (it != out.end())
        return *it;
    return out.emplace_back(MemTxn{addr, 0});
}

/** Accumulate @p bytes touched within the block at @p addr. */
inline void
touch(std::vector<MemTxn> &out, Addr addr, unsigned bytes)
{
    // Neighbouring lanes mostly share the latest lane's block.
    MemTxn &txn = !out.empty() && out.back().addr == addr ? out.back()
                                                          : txnOf(out, addr);
    txn.bytes = static_cast<std::uint16_t>(
        std::min<unsigned>(blockBytes, txn.bytes + bytes));
}

} // namespace

void
coalesceWarpAccess(const AddressPattern &pattern, std::uint64_t lane0Tid,
                   std::uint64_t iter, std::vector<MemTxn> &out)
{
    out.clear();
    // Locals, not pattern fields: the appends below could alias them.
    const bool scatters = pattern.scatters();
    const unsigned elemBytes = pattern.elemBytes;
    const auto laneStep = static_cast<Addr>(pattern.threadStride);
    Addr regular = pattern.regularAddr(lane0Tid, iter);
    if (!scatters && pattern.threadStride == static_cast<Stride>(elemBytes)) {
        // Contiguous lanes read one byte range, in ascending blocks; a
        // block's lanes add up to its overlap with the range.
        const Addr end = regular + warpSize * elemBytes;
        for (Addr block = blockAlign(regular); block < end;
             block += blockBytes) {
            Addr from = std::max(block, regular);
            Addr to = std::min(block + blockBytes, end);
            out.push_back({block, static_cast<std::uint16_t>(to - from)});
        }
    } else {
        for (unsigned lane = 0; lane < warpSize; ++lane, regular += laneStep) {
            Addr a = scatters ? pattern.laneAddr(lane0Tid + lane, iter)
                              : regular;
            Addr first = blockAlign(a);
            Addr last = blockAlign(a + elemBytes - 1);
            if (first == last) {
                touch(out, first, elemBytes);
            } else {
                // An element straddling a block boundary touches both.
                unsigned head = static_cast<unsigned>(first + blockBytes - a);
                touch(out, first, head);
                touch(out, last, elemBytes - head);
            }
        }
    }
    // Sparse transactions move the minimum 32-byte segment; dense ones
    // the full block.
    for (auto &txn : out)
        txn.bytes = txn.bytes <= minTxnBytes
                        ? static_cast<std::uint16_t>(minTxnBytes)
                        : static_cast<std::uint16_t>(blockBytes);
}

unsigned
countWarpTransactions(const AddressPattern &pattern, std::uint64_t lane0Tid,
                      std::uint64_t iter)
{
    std::vector<MemTxn> tmp;
    tmp.reserve(warpSize);
    coalesceWarpAccess(pattern, lane0Tid, iter, tmp);
    return static_cast<unsigned>(tmp.size());
}

} // namespace mtp
