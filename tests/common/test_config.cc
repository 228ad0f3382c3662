#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>

#include "common/config.hh"
#include "driver/fingerprint.hh"

namespace mtp {
namespace {

TEST(Config, DefaultsMatchTableII)
{
    SimConfig cfg;
    EXPECT_EQ(cfg.numCores, 14u);
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

/**
 * A dump with every key moved off its default, pinned for the same
 * reason as the default one: it covers the formatting of every value
 * type (bools as 0/1, doubles through the stream, the one-line memory
 * clock ratio, the enum by name). The removed simdWidth, fetchWidth
 * and sharedMemBytes keys keep fixed lines but no longer parse.
 */
TEST(Config, NonDefaultDumpBytesArePinned)
{
    SimConfig cfg;
    for (const ConfigKey &k : configKeys()) {
        std::visit([&](const auto &f) {
            using F = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<F, ConfigField<bool>>)
                cfg.*f.member = !(cfg.*f.member);
            else if constexpr (std::is_same_v<F, ConfigField<HwPrefKind>>)
                cfg.*f.member = HwPrefKind::MTHWP;
            else if constexpr (std::is_same_v<F, ConfigField<double>>)
                cfg.*f.member = cfg.*f.member + 1.0 / 3;
            else if constexpr (!std::is_same_v<F, PinnedLine>)
                cfg.*f.member = cfg.*f.member + 1;
        }, k.field);
    }
    std::ostringstream os;
    cfg.dump(os);
    driver::Fnv1a hash;
    hash.add(os.str());
    EXPECT_EQ(hash.value(), 0xe62bd7ae841ba25cULL) << os.str();
    for (const char *kv :
         {"simdWidth=8", "fetchWidth=1", "sharedMemBytes=16384"})
        EXPECT_EXIT(SimConfig{}.applyOverride(kv),
                    ::testing::ExitedWithCode(1), "unknown config key");
}

/** Converts to any field type, so T{AnyField{}...} counts T's fields. */
struct AnyField
{
    template <typename T>
    operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

/**
 * Every SimConfig member has exactly one table entry: as many member
 * entries as the aggregate has fields, and no member twice. A new
 * member without an entry fails here rather than going unchecked.
 */
TEST(Config, TableCoversEveryMember)
{
    auto keys = configKeys();
    std::size_t members = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (!std::holds_alternative<PinnedLine>(keys[i].field))
            ++members;
        for (std::size_t j = i + 1; j < keys.size(); ++j) {
            EXPECT_STRNE(keys[i].name, keys[j].name);
            std::visit([&](const auto &a, const auto &b) {
                using A = std::decay_t<decltype(a)>;
                using B = std::decay_t<decltype(b)>;
                if constexpr (std::is_same_v<A, B> &&
                              !std::is_same_v<A, PinnedLine>) {
                    EXPECT_TRUE(a.member != b.member)
                        << keys[i].name << " and " << keys[j].name;
                }
            }, keys[i].field, keys[j].field);
        }
    }
    EXPECT_EQ(members, fieldCount<SimConfig>());
}

/**
 * Each numeric key's range, read from the table: its min and max pass
 * validate(), and one step outside either (where the type has one)
 * exits 1 naming the key. Doubles also reject NaN.
 */
TEST(Config, EveryKeyRangeIsEnforced)
{
    for (const ConfigKey &k : configKeys()) {
        std::visit([&](const auto &f) {
            using F = std::decay_t<decltype(f)>;
            if constexpr (!std::is_same_v<F, PinnedLine> &&
                          !std::is_same_v<F, ConfigField<bool>> &&
                          !std::is_same_v<F, ConfigField<HwPrefKind>>) {
                using T = decltype(f.min);
                auto validateWith = [&](T v) {
                    SimConfig cfg;
                    cfg.*f.member = v;
                    cfg.validate();
                };
                auto accepts = [&](T v) {
                    EXPECT_EXIT(
                        {
                            validateWith(v);
                            std::exit(0);
                        },
                        ::testing::ExitedWithCode(0), "")
                        << k.name << " = " << v;
                };
                auto rejects = [&](T v) {
                    EXPECT_EXIT(validateWith(v),
                                ::testing::ExitedWithCode(1),
                                std::string(k.name) + " = .* is outside")
                        << k.name << " = " << v;
                };
                accepts(f.min);
                accepts(f.max);
                if constexpr (std::is_floating_point_v<T>) {
                    rejects(std::nextafter(f.min, -INFINITY));
                    rejects(std::nextafter(f.max, INFINITY));
                    rejects(NAN);
                } else {
                    if (f.min > 0)
                        rejects(f.min - 1);
                    if (f.max < std::numeric_limits<T>::max())
                        rejects(f.max + 1);
                }
            }
        }, k.field);
    }
}

/**
 * One-line probes that used to abort, trap, shift by 64 or spin to
 * the cycle cap now exit 1 from validate() naming the key.
 */
TEST(Config, ProbesExitNamingTheKey)
{
    for (const char *kv :
         {"numCores=4294967295", "memBufEntries=4294967295",
          "numCores=100000", "ghbEntries=0", "ghbIndexEntries=0",
          "stridePcEntries=0", "strideRptEntries=0", "streamEntries=0",
          "pwsEntries=0", "gsEntries=0", "ipEntries=0", "ghbCzoneBits=64",
          "strideRptRegionBits=64", "decodeCycles=4294967295",
          "memLatencyExtra=4294967295", "earlyEvictHigh=nan",
          "earlyEvictHigh=-1"}) {
        std::string key(kv, std::strchr(kv, '='));
        SimConfig cfg;
        cfg.applyOverride(kv);
        EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                    "fatal: " + key + " = .* is outside");
    }
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
