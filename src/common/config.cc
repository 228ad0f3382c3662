#include "common/config.hh"

#include <charconv>
#include <limits>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "common/bitutils.hh"
#include "common/cli.hh"
#include "common/log.hh"

namespace mtp {

HwPrefKind
parseHwPrefKind(const std::string &s)
{
    if (s == "none")
        return HwPrefKind::None;
    if (s == "stride_rpt" || s == "rpt")
        return HwPrefKind::StrideRPT;
    if (s == "stride_pc" || s == "stridepc")
        return HwPrefKind::StridePC;
    if (s == "stream")
        return HwPrefKind::Stream;
    if (s == "ghb")
        return HwPrefKind::GHB;
    if (s == "mthwp" || s == "mt_hwp")
        return HwPrefKind::MTHWP;
    MTP_FATAL("unknown hardware prefetcher '", s, "'");
}

SwPrefKind
parseSwPrefKind(const std::string &s)
{
    if (s == "none")
        return SwPrefKind::None;
    if (s == "register" || s == "reg")
        return SwPrefKind::Register;
    if (s == "stride")
        return SwPrefKind::Stride;
    if (s == "ip")
        return SwPrefKind::IP;
    if (s == "stride_ip" || s == "mtswp")
        return SwPrefKind::StrideIP;
    MTP_FATAL("unknown software prefetch scheme '", s, "'");
}

std::string
toString(HwPrefKind kind)
{
    switch (kind) {
      case HwPrefKind::None:      return "none";
      case HwPrefKind::StrideRPT: return "stride_rpt";
      case HwPrefKind::StridePC:  return "stride_pc";
      case HwPrefKind::Stream:    return "stream";
      case HwPrefKind::GHB:       return "ghb";
      case HwPrefKind::MTHWP:     return "mthwp";
    }
    MTP_PANIC("bad HwPrefKind ", static_cast<int>(kind));
}

std::string
toString(SwPrefKind kind)
{
    switch (kind) {
      case SwPrefKind::None:     return "none";
      case SwPrefKind::Register: return "register";
      case SwPrefKind::Stride:   return "stride";
      case SwPrefKind::IP:       return "ip";
      case SwPrefKind::StrideIP: return "stride_ip";
    }
    MTP_PANIC("bad SwPrefKind ", static_cast<int>(kind));
}

template <typename T>
T
parseNumber(const std::string &key, const std::string &value, int status)
{
    const char *kind = std::is_floating_point_v<T> ? "float"
                       : std::is_signed_v<T>       ? "integer"
                                                   : "unsigned";
    const char *begin = value.data();
    const char *end = begin + value.size();
    int base = 10;
    if constexpr (std::is_unsigned_v<T>) {
        if (value.starts_with("0x") || value.starts_with("0X")) {
            begin += 2;
            base = 16;
        }
    }
    T v{};
    std::from_chars_result r;
    if constexpr (std::is_floating_point_v<T>)
        r = std::from_chars(begin, end, v);
    else
        r = std::from_chars(begin, end, v, base);
    if (r.ec == std::errc::result_out_of_range)
        cli::fail(detail::concat(kind, " value '", value,
                                 "' out of range for '", key, "'"),
                  status);
    if (r.ec != std::errc() || r.ptr != end)
        cli::fail(detail::concat("bad ", kind, " value '", value, "' for '",
                                 key, "'"),
                  status);
    return v;
}

template unsigned parseNumber(const std::string &, const std::string &, int);
template std::uint16_t parseNumber(const std::string &, const std::string &,
                                   int);
template std::uint64_t parseNumber(const std::string &, const std::string &,
                                   int);
template std::int8_t parseNumber(const std::string &, const std::string &, int);
template std::int64_t parseNumber(const std::string &, const std::string &,
                                  int);
template double parseNumber(const std::string &, const std::string &, int);

namespace {

template <typename T>
constexpr ConfigKey
key(const char *name, T SimConfig::*member, std::type_identity_t<T> min,
    std::type_identity_t<T> max)
{
    return {name, ConfigField<T>{member, min, max}};
}

constexpr unsigned tableMax = 65536; //!< prefetcher tables and queues
constexpr double finiteMax = std::numeric_limits<double>::max();
constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();

/**
 * The one key list. The ranges reject values that would crash, shift
 * out of range or spin to the cycle cap, and admit every value the
 * harnesses, tests and examples set.
 *
 * The lines of removed keys are pinned: simdWidth and fetchWidth (the
 * core model fixes both), sharedMemBytes (folded into compute) and the
 * eventQueue and shards engine knobs.
 */
constexpr ConfigKey keyTable[] = {
    key("numCores", &SimConfig::numCores, 1, 1024),
    {"simdWidth", PinnedLine{"8"}},
    {"fetchWidth", PinnedLine{"1"}},
    key("decodeCycles", &SimConfig::decodeCycles, 0, 1024),
    key("latencyOther", &SimConfig::latencyOther, 1, 1024),
    key("latencyImul", &SimConfig::latencyImul, 1, 1024),
    key("latencyFdiv", &SimConfig::latencyFdiv, 1, 1024),
    key("mrqEntries", &SimConfig::mrqEntries, 1, tableMax),
    key("mshrEntries", &SimConfig::mshrEntries, 1, tableMax),
    key("prefMshrEntries", &SimConfig::prefMshrEntries, 0, tableMax),
    key("maxBlocksPerCore", &SimConfig::maxBlocksPerCore, 1,
        maxBlocksPerCoreLimit),
    key("icntLatency", &SimConfig::icntLatency, 0, 1024),
    key("icntCoresPerPort", &SimConfig::icntCoresPerPort, 1, 1024),
    key("dramChannels", &SimConfig::dramChannels, 1, 64),
    key("dramBanks", &SimConfig::dramBanks, 1, 64),
    key("dramRowBytes", &SimConfig::dramRowBytes, blockBytes, 65536),
    key("dramTCL", &SimConfig::dramTCL, 0, 1024),
    key("dramTRCD", &SimConfig::dramTRCD, 0, 1024),
    key("dramTRP", &SimConfig::dramTRP, 0, 1024),
    key("memBufEntries", &SimConfig::memBufEntries, 1, tableMax),
    key("dramBusBytesPerCycle", &SimConfig::dramBusBytesPerCycle, 1,
        blockBytes),
    key("memClockNum", &SimConfig::memClockNum, 1, 64),
    key("memClockDen", &SimConfig::memClockDen, 1, 64),
    key("demandPriority", &SimConfig::demandPriority, false, true),
    key("memLatencyExtra", &SimConfig::memLatencyExtra, 0, 10000),
    {"sharedMemBytes", PinnedLine{"16384"}},
    key("prefCacheBytes", &SimConfig::prefCacheBytes, 1024, 1 << 20),
    key("prefCacheAssoc", &SimConfig::prefCacheAssoc, 1, 256),
    key("hwPref", &SimConfig::hwPref, HwPrefKind::None, HwPrefKind::MTHWP),
    key("hwPrefWarpTraining", &SimConfig::hwPrefWarpTraining, false, true),
    key("prefDistance", &SimConfig::prefDistance, 1, 256),
    key("prefDegree", &SimConfig::prefDegree, 1, 64),
    key("ipDistanceWarps", &SimConfig::ipDistanceWarps, 0, 1024),
    key("strideRptEntries", &SimConfig::strideRptEntries, 1, tableMax),
    key("strideRptRegionBits", &SimConfig::strideRptRegionBits, 0, 63),
    key("stridePcEntries", &SimConfig::stridePcEntries, 1, tableMax),
    key("streamEntries", &SimConfig::streamEntries, 1, tableMax),
    key("ghbEntries", &SimConfig::ghbEntries, 1, tableMax),
    key("ghbCzoneBits", &SimConfig::ghbCzoneBits, 0, 63),
    key("ghbIndexEntries", &SimConfig::ghbIndexEntries, 1, tableMax),
    key("pwsEntries", &SimConfig::pwsEntries, 1, tableMax),
    key("gsEntries", &SimConfig::gsEntries, 1, tableMax),
    key("ipEntries", &SimConfig::ipEntries, 1, tableMax),
    key("gsPromoteCount", &SimConfig::gsPromoteCount, 0, 1024),
    key("ipTrainCount", &SimConfig::ipTrainCount, 0, 1024),
    key("mthwpPws", &SimConfig::mthwpPws, false, true),
    key("mthwpGs", &SimConfig::mthwpGs, false, true),
    key("mthwpIp", &SimConfig::mthwpIp, false, true),
    key("throttleEnable", &SimConfig::throttleEnable, false, true),
    key("throttlePeriod", &SimConfig::throttlePeriod, 1, 1'000'000'000),
    key("throttleInitDegree", &SimConfig::throttleInitDegree, 0, 5),
    key("earlyEvictHigh", &SimConfig::earlyEvictHigh, 0, finiteMax),
    key("earlyEvictLow", &SimConfig::earlyEvictLow, 0, finiteMax),
    // -1 makes every merge ratio read high (bench_abl_throttle_metrics).
    key("mergeHigh", &SimConfig::mergeHigh, -1, 1),
    key("ghbFeedback", &SimConfig::ghbFeedback, false, true),
    key("stridePcLateThrottle", &SimConfig::stridePcLateThrottle, false, true),
    key("schedGreedy", &SimConfig::schedGreedy, false, true),
    key("dispatchContiguous", &SimConfig::dispatchContiguous, false, true),
    key("perfectMemory", &SimConfig::perfectMemory, false, true),
    key("maxCycles", &SimConfig::maxCycles, 1, u64Max),
    key("seed", &SimConfig::seed, 0, u64Max),
    key("fastForward", &SimConfig::fastForward, false, true),
    {"eventQueue", PinnedLine{"1"}},
    {"shards", PinnedLine{"1"}},
};

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    MTP_FATAL("bad bool value '", value, "' for '", key, "'");
}

template <typename F>
constexpr bool isPinned = std::is_same_v<F, PinnedLine>;

/** A field value as dump() and validate() print it. */
template <typename T>
auto
printable(const T &v)
{
    if constexpr (std::is_same_v<T, HwPrefKind>)
        return toString(v);
    else
        return v;
}

} // namespace

std::span<const ConfigKey>
configKeys()
{
    return keyTable;
}

SimConfig &
SimConfig::applyOverride(const std::string &kv)
{
    auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        MTP_FATAL("config override '", kv, "' is not of the form key=value");
    std::string key = kv.substr(0, eq);
    std::string value = kv.substr(eq + 1);
    for (const ConfigKey &k : keyTable) {
        if (key != k.name || std::holds_alternative<PinnedLine>(k.field))
            continue;
        std::visit([&](const auto &f) {
            using F = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<F, ConfigField<bool>>)
                this->*f.member = parseBool(key, value);
            else if constexpr (std::is_same_v<F, ConfigField<HwPrefKind>>)
                this->*f.member = parseHwPrefKind(value);
            else if constexpr (!isPinned<F>)
                this->*f.member = parseNumber<decltype(f.min)>(key, value);
        }, k.field);
        return *this;
    }
    MTP_FATAL("unknown config key '", key, "'");
}

SimConfig &
SimConfig::applyOverrides(const std::vector<std::string> &kvs)
{
    for (const auto &kv : kvs)
        applyOverride(kv);
    return *this;
}

void
SimConfig::validate() const
{
    for (const ConfigKey &k : keyTable) {
        std::visit([&](const auto &f) {
            if constexpr (!isPinned<std::decay_t<decltype(f)>>) {
                // Written so that NaN fails too.
                const auto &v = this->*f.member;
                if (!(v >= f.min && v <= f.max))
                    MTP_FATAL(k.name, " = ", printable(v), " is outside [",
                              printable(f.min), ", ", printable(f.max), "]");
            }
        }, k.field);
    }
    if (!isPowerOf2(prefCacheBytes))
        MTP_FATAL("prefCacheBytes must be a power of two");
    if ((prefCacheBytes / blockBytes) % prefCacheAssoc != 0)
        MTP_FATAL("prefCacheAssoc must divide the prefetch cache blocks");
    if (!isPowerOf2(dramRowBytes))
        MTP_FATAL("dramRowBytes must be a power of two");
}

void
SimConfig::dump(std::ostream &os) const
{
    for (const ConfigKey &k : keyTable) {
        // The clock ratio's two keys share one "memClock = N/D" line.
        std::string_view name = k.name;
        if (name == "memClockNum")
            os << "memClock = " << memClockNum << '/' << memClockDen << '\n';
        if (name == "memClockNum" || name == "memClockDen")
            continue;
        std::visit([&](const auto &f) {
            os << k.name << " = ";
            if constexpr (isPinned<std::decay_t<decltype(f)>>)
                os << f.value;
            else
                os << printable(this->*f.member);
            os << '\n';
        }, k.field);
    }
}

} // namespace mtp
