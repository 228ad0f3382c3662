/**
 * @file
 * Memory transaction type shared by the MRQ, interconnect and DRAM
 * controller. All requests are block-granular; a core's waiting warps
 * are tracked core-side in its MSHR file, so the request itself only
 * carries routing and scheduling state.
 */

#ifndef MTP_MEM_MEM_REQUEST_HH
#define MTP_MEM_MEM_REQUEST_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace mtp {

/** Class of a memory transaction. */
enum class ReqType : std::uint8_t
{
    DemandLoad,  //!< read needed by an executing warp
    DemandStore, //!< write; fire-and-forget
    SwPrefetch,  //!< software prefetch instruction
    HwPrefetch,  //!< hardware-prefetcher generated
};

/** @return true for either prefetch class. */
constexpr bool
isPrefetch(ReqType t)
{
    return t == ReqType::SwPrefetch || t == ReqType::HwPrefetch;
}

/** @return true for demand loads/stores. */
constexpr bool
isDemand(ReqType t)
{
    return !isPrefetch(t);
}

/**
 * The cores a request answers, in the order they joined: the first
 * requester, then every core an inter-core merge added, each once.
 * The first few live in place, so an unmerged request never touches
 * the heap; only a merge of more cores' requests than that spills.
 */
class Sharers
{
  public:
    std::size_t size() const { return size_; }

    CoreId
    operator[](std::size_t i) const
    {
        return i < inPlace ? first_[i] : spill_[i - inPlace];
    }

    CoreId front() const { return first_[0]; }

    /** Add @p core unless it is already a sharer. */
    void
    add(CoreId core)
    {
        for (std::size_t i = 0; i < size_; ++i) {
            if ((*this)[i] == core)
                return;
        }
        if (size_ < inPlace)
            first_[size_] = core;
        else
            spill_.push_back(core);
        ++size_;
    }

    bool
    operator==(const Sharers &other) const
    {
        if (size_ != other.size_)
            return false;
        for (std::size_t i = 0; i < size_; ++i) {
            if ((*this)[i] != other[i])
                return false;
        }
        return true;
    }

  private:
    static constexpr std::size_t inPlace = 3;
    std::uint32_t size_ = 0;
    std::array<CoreId, inPlace> first_{};
    std::vector<CoreId> spill_; //!< sharers past the first inPlace
};

/**
 * One in-flight block transaction. Created at a core's MRQ, possibly
 * merged with other cores' same-block transactions at the DRAM
 * controller's request buffer (Fig. 2b), serviced by a DRAM bank and
 * returned to every sharer core, whose MSHR files know what to do
 * with the data.
 */
struct MemRequest
{
    Addr addr = 0;           //!< block-aligned address
    ReqType type = ReqType::DemandLoad; //!< merged type (demand wins)
    CoreId core = 0;         //!< originating core (first requester)
    Cycle created = 0;       //!< cycle the first transaction was issued
    std::uint16_t bytes = blockBytes; //!< transfer size (32 B segment or
                                      //!< full 64 B block)

    /** Cores that must receive the completion (inter-core merge adds). */
    Sharers sharers;

    /** Construct a fresh single-core request. */
    static MemRequest
    make(Addr block_addr, ReqType type, CoreId core, Cycle now,
         std::uint16_t bytes = blockBytes)
    {
        MemRequest r;
        r.addr = block_addr;
        r.type = type;
        r.core = core;
        r.created = now;
        r.bytes = bytes;
        r.sharers.add(core);
        return r;
    }

    /**
     * @return true iff requests of types @p a and @p b may merge: reads
     * (loads and prefetches) merge among themselves; stores only merge
     * with stores.
     */
    static constexpr bool
    mergeable(ReqType a, ReqType b)
    {
        return (a == ReqType::DemandStore) == (b == ReqType::DemandStore);
    }

    /**
     * Merge @p other (same block, mergeable type) into this request.
     * Demand requests dominate the merged type so DRAM priority is
     * preserved.
     */
    void
    mergeFrom(MemRequest &&other)
    {
        if (other.type == ReqType::DemandLoad)
            type = ReqType::DemandLoad;
        bytes = bytes > other.bytes ? bytes : other.bytes;
        for (std::size_t i = 0; i < other.sharers.size(); ++i)
            sharers.add(other.sharers[i]);
        created = std::min(created, other.created);
    }
};

} // namespace mtp

#endif // MTP_MEM_MEM_REQUEST_HH
