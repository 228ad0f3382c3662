#include "bench/provenance.hh"

#include <algorithm>
#include <cstdio>
#include <thread>
#include <unistd.h>

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
appendProvenance(json::Writer &w, const Provenance &p)
{
    w.key("provenance")
        .beginObject()
        .field("paper", p.paper)
        .field("gitSha", p.gitSha)
        .field("host", p.host)
        .field("hostThreads", p.hostThreads)
        .field("scaleDiv", p.scaleDiv)
        .field("throttlePeriod", p.throttlePeriod)
        .field("overrides", p.overrides)
        .field("benchFilter", p.benchFilter)
        .endObject();
}

} // namespace bench
} // namespace mtp
