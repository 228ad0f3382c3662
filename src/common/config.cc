#include "common/config.hh"

#include <charconv>
#include <functional>
#include <map>
#include <ostream>

#include "common/bitutils.hh"
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

namespace {

using Setter = std::function<void(SimConfig &, const std::string &)>;

/** std::from_chars over all of @p value; fatal naming @p key if not. */
template <typename T>
T
parseWhole(const std::string &key, const std::string &value,
           const char *kind)
{
    T v{};
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (ec == std::errc::result_out_of_range)
        MTP_FATAL(kind, " value '", value, "' out of range for '", key,
                  "'");
    if (ec != std::errc() || ptr != end)
        MTP_FATAL("bad ", kind, " value '", value, "' for '", key, "'");
    return v;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "no")
        return false;
    MTP_FATAL("bad bool value '", value, "' for '", key, "'");
}

#define UNSIGNED_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseUnsigned(#field, v); }}
#define U64_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseU64(#field, v); }}
#define DOUBLE_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseDouble(#field, v); }}
#define BOOL_FIELD(field) \
    {#field, [](SimConfig &c, const std::string &v) { \
        c.field = parseBool(#field, v); }}

const std::map<std::string, Setter> &
setters()
{
    static const std::map<std::string, Setter> table = {
        UNSIGNED_FIELD(numCores),
        UNSIGNED_FIELD(simdWidth),
        UNSIGNED_FIELD(fetchWidth),
        UNSIGNED_FIELD(decodeCycles),
        UNSIGNED_FIELD(latencyOther),
        UNSIGNED_FIELD(latencyImul),
        UNSIGNED_FIELD(latencyFdiv),
        UNSIGNED_FIELD(mrqEntries),
        UNSIGNED_FIELD(mshrEntries),
        UNSIGNED_FIELD(prefMshrEntries),
        UNSIGNED_FIELD(maxBlocksPerCore),
        UNSIGNED_FIELD(icntLatency),
        UNSIGNED_FIELD(icntCoresPerPort),
        UNSIGNED_FIELD(dramChannels),
        UNSIGNED_FIELD(dramBanks),
        UNSIGNED_FIELD(dramRowBytes),
        UNSIGNED_FIELD(dramTCL),
        UNSIGNED_FIELD(dramTRCD),
        UNSIGNED_FIELD(dramTRP),
        UNSIGNED_FIELD(memBufEntries),
        UNSIGNED_FIELD(dramBusBytesPerCycle),
        UNSIGNED_FIELD(memClockNum),
        UNSIGNED_FIELD(memClockDen),
        BOOL_FIELD(demandPriority),
        UNSIGNED_FIELD(memLatencyExtra),
        UNSIGNED_FIELD(sharedMemBytes),
        UNSIGNED_FIELD(prefCacheBytes),
        UNSIGNED_FIELD(prefCacheAssoc),
        {"hwPref", [](SimConfig &c, const std::string &v) {
             c.hwPref = parseHwPrefKind(v); }},
        BOOL_FIELD(hwPrefWarpTraining),
        UNSIGNED_FIELD(prefDistance),
        UNSIGNED_FIELD(prefDegree),
        UNSIGNED_FIELD(ipDistanceWarps),
        UNSIGNED_FIELD(strideRptEntries),
        UNSIGNED_FIELD(strideRptRegionBits),
        UNSIGNED_FIELD(stridePcEntries),
        UNSIGNED_FIELD(streamEntries),
        UNSIGNED_FIELD(ghbEntries),
        UNSIGNED_FIELD(ghbCzoneBits),
        UNSIGNED_FIELD(ghbIndexEntries),
        UNSIGNED_FIELD(pwsEntries),
        UNSIGNED_FIELD(gsEntries),
        UNSIGNED_FIELD(ipEntries),
        UNSIGNED_FIELD(gsPromoteCount),
        UNSIGNED_FIELD(ipTrainCount),
        BOOL_FIELD(mthwpPws),
        BOOL_FIELD(mthwpGs),
        BOOL_FIELD(mthwpIp),
        BOOL_FIELD(throttleEnable),
        U64_FIELD(throttlePeriod),
        UNSIGNED_FIELD(throttleInitDegree),
        DOUBLE_FIELD(earlyEvictHigh),
        DOUBLE_FIELD(earlyEvictLow),
        DOUBLE_FIELD(mergeHigh),
        BOOL_FIELD(ghbFeedback),
        BOOL_FIELD(stridePcLateThrottle),
        BOOL_FIELD(schedGreedy),
        BOOL_FIELD(dispatchContiguous),
        BOOL_FIELD(perfectMemory),
        U64_FIELD(maxCycles),
        U64_FIELD(seed),
        BOOL_FIELD(fastForward),
    };
    return table;
}

#undef UNSIGNED_FIELD
#undef U64_FIELD
#undef DOUBLE_FIELD
#undef BOOL_FIELD

} // namespace

unsigned
parseUnsigned(const std::string &key, const std::string &value)
{
    return parseWhole<unsigned>(key, value, "unsigned");
}

std::uint64_t
parseU64(const std::string &key, const std::string &value)
{
    return parseWhole<std::uint64_t>(key, value, "unsigned");
}

double
parseDouble(const std::string &key, const std::string &value)
{
    return parseWhole<double>(key, value, "float");
}

SimConfig &
SimConfig::applyOverride(const std::string &kv)
{
    auto eq = kv.find('=');
    if (eq == std::string::npos || eq == 0)
        MTP_FATAL("config override '", kv, "' is not of the form key=value");
    std::string key = kv.substr(0, eq);
    std::string value = kv.substr(eq + 1);
    auto it = setters().find(key);
    if (it == setters().end())
        MTP_FATAL("unknown config key '", key, "'");
    it->second(*this, value);
    return *this;
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
    if (numCores == 0)
        MTP_FATAL("numCores must be > 0");
    if (simdWidth == 0 || warpSize % simdWidth != 0)
        MTP_FATAL("simdWidth must divide the warp size (32)");
    if (!isPowerOf2(prefCacheBytes) || prefCacheBytes < blockBytes)
        MTP_FATAL("prefCacheBytes must be a power of two >= ", blockBytes);
    unsigned pref_blocks = prefCacheBytes / blockBytes;
    if (prefCacheAssoc == 0 || pref_blocks % prefCacheAssoc != 0)
        MTP_FATAL("prefCacheAssoc must divide the prefetch cache blocks");
    if (!isPowerOf2(dramRowBytes) || dramRowBytes < blockBytes)
        MTP_FATAL("dramRowBytes must be a power of two >= ", blockBytes);
    if (dramChannels == 0 || dramBanks == 0)
        MTP_FATAL("dramChannels and dramBanks must be > 0");
    if (memClockNum == 0 || memClockDen == 0)
        MTP_FATAL("memory clock ratio must be positive");
    if (prefDegree == 0 || prefDistance == 0)
        MTP_FATAL("prefDegree and prefDistance must be >= 1");
    if (throttleInitDegree > 5)
        MTP_FATAL("throttleInitDegree must be in [0,5]");
    if (mrqEntries == 0 || memBufEntries == 0 || mshrEntries == 0)
        MTP_FATAL("queue sizes must be > 0");
    if (icntCoresPerPort == 0)
        MTP_FATAL("icntCoresPerPort must be > 0");
    if (maxBlocksPerCore == 0)
        MTP_FATAL("maxBlocksPerCore must be > 0");
    if (dramBusBytesPerCycle == 0)
        MTP_FATAL("dramBusBytesPerCycle must be > 0");
    if (throttlePeriod == 0)
        MTP_FATAL("throttlePeriod must be > 0");
}

void
SimConfig::dump(std::ostream &os) const
{
    os << "numCores = " << numCores << '\n'
       << "simdWidth = " << simdWidth << '\n'
       << "fetchWidth = " << fetchWidth << '\n'
       << "decodeCycles = " << decodeCycles << '\n'
       << "latencyOther = " << latencyOther << '\n'
       << "latencyImul = " << latencyImul << '\n'
       << "latencyFdiv = " << latencyFdiv << '\n'
       << "mrqEntries = " << mrqEntries << '\n'
       << "mshrEntries = " << mshrEntries << '\n'
       << "prefMshrEntries = " << prefMshrEntries << '\n'
       << "maxBlocksPerCore = " << maxBlocksPerCore << '\n'
       << "icntLatency = " << icntLatency << '\n'
       << "icntCoresPerPort = " << icntCoresPerPort << '\n'
       << "dramChannels = " << dramChannels << '\n'
       << "dramBanks = " << dramBanks << '\n'
       << "dramRowBytes = " << dramRowBytes << '\n'
       << "dramTCL = " << dramTCL << '\n'
       << "dramTRCD = " << dramTRCD << '\n'
       << "dramTRP = " << dramTRP << '\n'
       << "memBufEntries = " << memBufEntries << '\n'
       << "dramBusBytesPerCycle = " << dramBusBytesPerCycle << '\n'
       << "memClock = " << memClockNum << '/' << memClockDen << '\n'
       << "demandPriority = " << demandPriority << '\n'
       << "memLatencyExtra = " << memLatencyExtra << '\n'
       << "sharedMemBytes = " << sharedMemBytes << '\n'
       << "prefCacheBytes = " << prefCacheBytes << '\n'
       << "prefCacheAssoc = " << prefCacheAssoc << '\n'
       << "hwPref = " << toString(hwPref) << '\n'
       << "hwPrefWarpTraining = " << hwPrefWarpTraining << '\n'
       << "prefDistance = " << prefDistance << '\n'
       << "prefDegree = " << prefDegree << '\n'
       << "ipDistanceWarps = " << ipDistanceWarps << '\n'
       << "strideRptEntries = " << strideRptEntries << '\n'
       << "strideRptRegionBits = " << strideRptRegionBits << '\n'
       << "stridePcEntries = " << stridePcEntries << '\n'
       << "streamEntries = " << streamEntries << '\n'
       << "ghbEntries = " << ghbEntries << '\n'
       << "ghbCzoneBits = " << ghbCzoneBits << '\n'
       << "ghbIndexEntries = " << ghbIndexEntries << '\n'
       << "pwsEntries = " << pwsEntries << '\n'
       << "gsEntries = " << gsEntries << '\n'
       << "ipEntries = " << ipEntries << '\n'
       << "gsPromoteCount = " << gsPromoteCount << '\n'
       << "ipTrainCount = " << ipTrainCount << '\n'
       << "mthwpPws = " << mthwpPws << '\n'
       << "mthwpGs = " << mthwpGs << '\n'
       << "mthwpIp = " << mthwpIp << '\n'
       << "throttleEnable = " << throttleEnable << '\n'
       << "throttlePeriod = " << throttlePeriod << '\n'
       << "throttleInitDegree = " << throttleInitDegree << '\n'
       << "earlyEvictHigh = " << earlyEvictHigh << '\n'
       << "earlyEvictLow = " << earlyEvictLow << '\n'
       << "mergeHigh = " << mergeHigh << '\n'
       << "ghbFeedback = " << ghbFeedback << '\n'
       << "stridePcLateThrottle = " << stridePcLateThrottle << '\n'
       << "schedGreedy = " << schedGreedy << '\n'
       << "dispatchContiguous = " << dispatchContiguous << '\n'
       << "perfectMemory = " << perfectMemory << '\n'
       << "maxCycles = " << maxCycles << '\n'
       << "seed = " << seed << '\n'
       << "fastForward = " << fastForward << '\n'
       // Fixed text for two removed engine knobs: run fingerprints hash
       // this dump, and committed manifests and golden files carry
       // those fingerprints, so the bytes must not change.
       << "eventQueue = 1\n"
       << "shards = 1\n";
}

} // namespace mtp
