/**
 * @file
 * The reproducibility header shared by every campaign-path JSON
 * artifact. Part of the mtp_bench_common library, so every harness,
 * the campaign manifest and the repository benchmark (perfbench/) emit
 * the same provenance block. appendJsonString and appendJsonNumber
 * forward to common/json_writer.hh for perfbench/.
 */

#ifndef MTP_BENCH_PROVENANCE_HH
#define MTP_BENCH_PROVENANCE_HH

#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "common/types.hh"

namespace mtp {
namespace bench {

/** Reproducibility header shared by every campaign-path artifact. */
struct Provenance
{
    std::string paper;
    std::string gitSha; //!< "unknown" outside a git checkout
    std::string host;
    unsigned hostThreads = 1; //!< hardware threads of the host
    unsigned scaleDiv = 8;
    Cycle throttlePeriod = 0;
    std::vector<std::string> overrides;
    std::vector<std::string> benchFilter;
};

/**
 * Collect the git SHA, hostname and host thread count plus the passed
 * knobs. Field-based (not Options-based) so callers without a
 * bench::Options can fill it; bench/campaign.hh adds the Options
 * overload.
 */
Provenance collectProvenance(unsigned scaleDiv, Cycle throttlePeriod,
                             std::vector<std::string> overrides = {},
                             std::vector<std::string> benchFilter = {});

/** Append a quoted, escaped JSON string literal. */
inline void
appendJsonString(std::string &out, const std::string &s)
{
    json::appendString(out, s);
}

/** Append one JSON number, locale-independent (std::to_chars). */
inline void
appendJsonNumber(std::string &out, double v)
{
    json::appendNumber(out, v);
}

/** Write the `"provenance": {...}` member into the open object. */
void appendProvenance(json::Writer &w, const Provenance &p);

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_PROVENANCE_HH
