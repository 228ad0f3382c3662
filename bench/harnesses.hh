/**
 * @file
 * Spec factories of every figure/table harness. Each bench_*.cc file
 * defines one factory; campaignSpecs() lists them explicitly (an
 * explicit registry instead of static-initializer registration, so a
 * static link can never silently drop a figure).
 *
 * A harness declares each of its runs once: a RunMatrix for the
 * benchmark x column figures, or the handles Runner::submit() returns
 * for the rest. Its submission order is the order of the figure's
 * manifest fingerprints, so it must not change without a new golden.
 */

#ifndef MTP_BENCH_HARNESSES_HH
#define MTP_BENCH_HARNESSES_HH

#include "bench/campaign.hh"

namespace mtp {
namespace bench {

CampaignSpec specTab02Config();
CampaignSpec specTab03Characteristics();
CampaignSpec specTab04Nonmem();
CampaignSpec specTab06Cost();
CampaignSpec specFig07Mtaml();
CampaignSpec specFig08Latency();
CampaignSpec specFig10Swp();
CampaignSpec specFig11SwpThrottle();
CampaignSpec specFig12EarlyBw();
CampaignSpec specFig13HwBaselines();
CampaignSpec specFig14MthwpAblation();
CampaignSpec specFig15HwThrottle();
CampaignSpec specFig16PcacheSize();
CampaignSpec specFig17Distance();
CampaignSpec specFig18Cores();
CampaignSpec specAblDegree();
CampaignSpec specAblLocality();
CampaignSpec specAblThrottleMetrics();

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_HARNESSES_HH
