#include <gtest/gtest.h>

#include "mem/mrq.hh"

namespace mtp {
namespace {

MemRequest
req(Addr addr, ReqType type, CoreId core = 0)
{
    return MemRequest::make(blockAlign(addr), type, core, 0);
}

TEST(Mrq, FifoWithinCapacity)
{
    Mrq q(2);
    EXPECT_TRUE(q.push(req(0x000, ReqType::DemandLoad)));
    EXPECT_TRUE(q.push(req(0x040, ReqType::DemandLoad)));
    EXPECT_TRUE(q.full());
    EXPECT_FALSE(q.push(req(0x080, ReqType::DemandLoad)));
    EXPECT_EQ(q.counters().fullStalls, 1u);
    EXPECT_EQ(q.pop().addr, 0x000u);
    EXPECT_EQ(q.pop().addr, 0x040u);
    EXPECT_TRUE(q.empty());
}

TEST(Mrq, FifoOrderMixesDemandAndPrefetch)
{
    Mrq q(4);
    q.push(req(0x000, ReqType::SwPrefetch));
    q.push(req(0x040, ReqType::DemandLoad));
    // FIFO drain: the prefetch queued first leaves first (Sec. IV-B:
    // prefetch requests delay later demands in the core's queue).
    EXPECT_EQ(q.head().addr, 0x000u);
    EXPECT_EQ(q.pop().type, ReqType::SwPrefetch);
    EXPECT_EQ(q.pop().type, ReqType::DemandLoad);
}

TEST(Mrq, UpgradeToDemand)
{
    Mrq q(4);
    q.push(req(0x000, ReqType::HwPrefetch));
    q.push(req(0x040, ReqType::DemandStore));
    EXPECT_TRUE(q.upgradeToDemand(0x000));
    EXPECT_EQ(q.head().type, ReqType::DemandLoad);
    // Upgrading an absent or non-prefetch request is a no-op.
    EXPECT_FALSE(q.upgradeToDemand(0x080));
    EXPECT_FALSE(q.upgradeToDemand(0x040));
}

TEST(Mrq, CountersExport)
{
    Mrq q(4);
    q.push(req(0, ReqType::DemandLoad));
    StatSet s;
    q.exportStats(s, "mrq");
    EXPECT_DOUBLE_EQ(s.get("mrq.pushes"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("mrq.fullStalls"), 0.0);
}

TEST(MemRequest, MergeRules)
{
    EXPECT_TRUE(MemRequest::mergeable(ReqType::DemandLoad,
                                      ReqType::SwPrefetch));
    EXPECT_TRUE(MemRequest::mergeable(ReqType::HwPrefetch,
                                      ReqType::SwPrefetch));
    EXPECT_FALSE(MemRequest::mergeable(ReqType::DemandStore,
                                       ReqType::DemandLoad));
    EXPECT_TRUE(MemRequest::mergeable(ReqType::DemandStore,
                                      ReqType::DemandStore));

    MemRequest a = MemRequest::make(0x100 & ~63ULL, ReqType::HwPrefetch,
                                    0, 10, 32);
    MemRequest b = MemRequest::make(0x100 & ~63ULL, ReqType::DemandLoad,
                                    1, 5, 64);
    a.mergeFrom(std::move(b));
    EXPECT_EQ(a.type, ReqType::DemandLoad); // demand wins
    EXPECT_EQ(a.bytes, 64);                 // max transfer size
    EXPECT_EQ(a.created, 5u);               // earliest creation
    ASSERT_EQ(a.sharers.size(), 2u);
    EXPECT_EQ(a.sharers[0], 0u);
    EXPECT_EQ(a.sharers[1], 1u);
}

TEST(MemRequest, MergeDeduplicatesSharers)
{
    MemRequest a = MemRequest::make(0, ReqType::DemandLoad, 3, 0);
    MemRequest b = MemRequest::make(0, ReqType::DemandLoad, 3, 1);
    a.mergeFrom(std::move(b));
    EXPECT_EQ(a.sharers.size(), 1u);

    // Past the sharers held in place, in join order, each core once.
    for (CoreId core : {1u, 2u, 4u, 2u, 5u, 3u})
        a.mergeFrom(MemRequest::make(0, ReqType::DemandLoad, core, 2));
    const CoreId joined[] = {3, 1, 2, 4, 5};
    ASSERT_EQ(a.sharers.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(a.sharers[i], joined[i]) << "sharer " << i;
    MemRequest copy = a;
    EXPECT_TRUE(copy.sharers == a.sharers);
}

} // namespace
} // namespace mtp
