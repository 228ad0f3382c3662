#include "bench/provenance.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unistd.h>

#include "obs/json.hh"

namespace mtp {
namespace bench {

Provenance
collectProvenance(unsigned scaleDiv, Cycle throttlePeriod,
                  std::vector<std::string> overrides,
                  std::vector<std::string> benchFilter)
{
    Provenance p;
    p.paper = "Many-Thread Aware Prefetching Mechanisms for GPGPU "
              "Applications (MICRO-43, 2010)";
    p.gitSha = "unknown";
    if (std::FILE *git = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128] = {0};
        if (std::fgets(buf, sizeof(buf), git)) {
            std::string sha(buf);
            while (!sha.empty() &&
                   (sha.back() == '\n' || sha.back() == '\r'))
                sha.pop_back();
            if (sha.size() == 40 &&
                sha.find_first_not_of("0123456789abcdef") ==
                    std::string::npos)
                p.gitSha = sha;
        }
        ::pclose(git);
    }
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0 && host[0])
        p.host = host;
    else
        p.host = "unknown";
    p.hostThreads = std::max(1u, std::thread::hardware_concurrency());
    p.scaleDiv = scaleDiv;
    p.throttlePeriod = throttlePeriod;
    p.overrides = std::move(overrides);
    p.benchFilter = std::move(benchFilter);
    return p;
}

void
appendJsonIndent(std::string &out, int indent)
{
    out.append(static_cast<std::size_t>(indent) * 2, ' ');
}

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    out += obs::jsonEscape(s);
    out += '"';
}

void
appendJsonNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        // JSON has no inf/nan; null keeps the document parseable and
        // the diff layer treats it as "not comparable".
        out += "null";
        return;
    }
    // Locale-independent shortest round-trip (same idiom as
    // StatSet::dumpJson) so manifests never depend on the host locale.
    std::array<char, 64> buf;
    auto res = std::to_chars(buf.data(), buf.data() + buf.size(), v);
    out.append(buf.data(), res.ptr);
}

namespace {

void
appendStringArray(std::string &out, const std::vector<std::string> &v,
                  int indent)
{
    if (v.empty()) {
        out += "[]";
        return;
    }
    out += "[\n";
    for (std::size_t i = 0; i < v.size(); ++i) {
        appendJsonIndent(out, indent + 1);
        appendJsonString(out, v[i]);
        if (i + 1 < v.size())
            out += ',';
        out += '\n';
    }
    appendJsonIndent(out, indent);
    out += ']';
}

} // namespace

void
appendProvenance(std::string &out, const Provenance &p, int indent)
{
    appendJsonIndent(out, indent);
    out += "\"provenance\": {\n";
    appendJsonIndent(out, indent + 1);
    out += "\"paper\": ";
    appendJsonString(out, p.paper);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"gitSha\": ";
    appendJsonString(out, p.gitSha);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"host\": ";
    appendJsonString(out, p.host);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"hostThreads\": ";
    out += std::to_string(p.hostThreads);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"scaleDiv\": ";
    out += std::to_string(p.scaleDiv);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"throttlePeriod\": ";
    out += std::to_string(p.throttlePeriod);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"overrides\": ";
    appendStringArray(out, p.overrides, indent + 1);
    out += ",\n";
    appendJsonIndent(out, indent + 1);
    out += "\"benchFilter\": ";
    appendStringArray(out, p.benchFilter, indent + 1);
    out += '\n';
    appendJsonIndent(out, indent);
    out += '}';
}

} // namespace bench
} // namespace mtp
