#include <gtest/gtest.h>

#include <cstring>
#include <sstream>

#include "common/config.hh"
#include "driver/fingerprint.hh"

namespace mtp {
namespace {

TEST(Config, DefaultsMatchTableII)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numCores, 14u);
    EXPECT_EQ(cfg.simdWidth, 8u);
    EXPECT_EQ(cfg.latencyImul, 16u);
    EXPECT_EQ(cfg.latencyFdiv, 32u);
    EXPECT_EQ(cfg.latencyOther, 4u);
    EXPECT_EQ(cfg.decodeCycles, 5u);
    EXPECT_EQ(cfg.icntLatency, 20u);
    EXPECT_EQ(cfg.icntCoresPerPort, 2u);
    EXPECT_EQ(cfg.dramChannels, 8u);
    EXPECT_EQ(cfg.dramBanks * cfg.dramChannels, 16u); // 16 banks total
    EXPECT_EQ(cfg.dramRowBytes, 2048u);
    EXPECT_EQ(cfg.dramTCL, 11u);
    EXPECT_EQ(cfg.dramTRCD, 11u);
    EXPECT_EQ(cfg.dramTRP, 13u);
    EXPECT_EQ(cfg.prefCacheBytes, 16u * 1024);
    EXPECT_EQ(cfg.prefCacheAssoc, 8u);
    // 8 B/cycle x 8 channels x 900 MHz = 57.6 GB/s
    EXPECT_EQ(cfg.dramBusBytesPerCycle * cfg.dramChannels * 900u,
              57600u);
    EXPECT_EQ(cfg.prefDistance, 1u);
    EXPECT_EQ(cfg.prefDegree, 1u);
    EXPECT_EQ(cfg.throttlePeriod, 100000u);
    EXPECT_EQ(cfg.throttleInitDegree, 2u);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ApplyOverride)
{
    SimConfig cfg;
    cfg.applyOverride("numCores=20");
    EXPECT_EQ(cfg.numCores, 20u);
    cfg.applyOverride("hwPref=mthwp");
    EXPECT_EQ(cfg.hwPref, HwPrefKind::MTHWP);
    cfg.applyOverride("throttleEnable=true");
    EXPECT_TRUE(cfg.throttleEnable);
    cfg.applyOverride("earlyEvictHigh=0.5");
    EXPECT_DOUBLE_EQ(cfg.earlyEvictHigh, 0.5);
    cfg.applyOverrides({"prefDistance=3", "prefDegree=2"});
    EXPECT_EQ(cfg.prefDistance, 3u);
    EXPECT_EQ(cfg.prefDegree, 2u);
}

TEST(Config, ParseKinds)
{
    EXPECT_EQ(parseHwPrefKind("stride_pc"), HwPrefKind::StridePC);
    EXPECT_EQ(parseHwPrefKind("ghb"), HwPrefKind::GHB);
    EXPECT_EQ(parseHwPrefKind("mthwp"), HwPrefKind::MTHWP);
    EXPECT_EQ(parseSwPrefKind("stride_ip"), SwPrefKind::StrideIP);
    EXPECT_EQ(parseSwPrefKind("register"), SwPrefKind::Register);
    EXPECT_EQ(toString(HwPrefKind::Stream), "stream");
    EXPECT_EQ(toString(SwPrefKind::IP), "ip");
}

TEST(Config, RoundTripThroughStrings)
{
    for (auto kind : {HwPrefKind::None, HwPrefKind::StrideRPT,
                      HwPrefKind::StridePC, HwPrefKind::Stream,
                      HwPrefKind::GHB, HwPrefKind::MTHWP})
        EXPECT_EQ(parseHwPrefKind(toString(kind)), kind);
    for (auto kind : {SwPrefKind::None, SwPrefKind::Register,
                      SwPrefKind::Stride, SwPrefKind::IP,
                      SwPrefKind::StrideIP})
        EXPECT_EQ(parseSwPrefKind(toString(kind)), kind);
}

TEST(Config, DumpContainsKeys)
{
    SimConfig cfg;
    std::ostringstream os;
    cfg.dump(os);
    EXPECT_NE(os.str().find("numCores = 14"), std::string::npos);
    EXPECT_NE(os.str().find("hwPref = none"), std::string::npos);
}

/**
 * Run fingerprints hash the config dump, and committed manifests and
 * golden files carry those fingerprints: the default dump's bytes are
 * pinned, including the fixed lines for the removed eventQueue and
 * shards knobs, whose keys no longer parse.
 */
TEST(Config, DumpBytesArePinned)
{
    std::ostringstream os;
    SimConfig{}.dump(os);
    driver::Fnv1a hash;
    hash.add(os.str());
    EXPECT_EQ(hash.value(), 0xa6daf7dfea7887f0ULL) << os.str();
    EXPECT_EXIT(SimConfig{}.applyOverride("eventQueue=0"),
                ::testing::ExitedWithCode(1), "unknown config key");
    EXPECT_EXIT(SimConfig{}.applyOverride("shards=2"),
                ::testing::ExitedWithCode(1), "unknown config key");
}

/** Values that would divide by zero or never finish are rejected. */
TEST(Config, ValidateRejectsZeroes)
{
    for (const char *key : {"dramBusBytesPerCycle", "maxBlocksPerCore",
                            "throttlePeriod"}) {
        SimConfig cfg;
        cfg.applyOverride(std::string(key) + "=0");
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1), key);
    }
}

/** Signed or too-large integers exit naming the key; never wrap. */
TEST(Config, OverridesRejectSignAndOverflow)
{
    for (const char *kv : {"numCores=-1", "memBufEntries=-1",
                           "numCores=99999999999",
                           "prefDegree=4294967296", "maxCycles=-1"}) {
        std::string key(kv, std::strchr(kv, '='));
        EXPECT_EXIT(SimConfig{}.applyOverride(kv),
                    ::testing::ExitedWithCode(1), "'" + key + "'");
    }
}

} // namespace
} // namespace mtp
