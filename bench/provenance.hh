/**
 * @file
 * The reproducibility header shared by every campaign-path JSON
 * artifact, plus the low-level JSON append helpers it is built from.
 * Part of the mtp_bench_common library, so every harness, the campaign
 * manifest and the repository benchmark (perfbench/) emit the same
 * provenance block.
 */

#ifndef MTP_BENCH_PROVENANCE_HH
#define MTP_BENCH_PROVENANCE_HH

#include <string>
#include <vector>

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

/** Append @p indent levels of 2-space indentation. */
void appendJsonIndent(std::string &out, int indent);

/** Append a quoted, escaped JSON string literal. */
void appendJsonString(std::string &out, const std::string &s);

/** Append one JSON number, locale-independent (std::to_chars). */
void appendJsonNumber(std::string &out, double v);

/** Append the `"provenance": {...}` member (no trailing comma). */
void appendProvenance(std::string &out, const Provenance &p,
                      int indent);

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_PROVENANCE_HH
