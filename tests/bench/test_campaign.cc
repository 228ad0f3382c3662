/**
 * @file
 * The campaign layer's contracts: manifests round-trip through the
 * obs JSON parser, the golden-snapshot gate passes on itself and
 * fails with a named metric when perturbed, and a two-harness
 * mini-campaign writes a byte-identical manifest at every --jobs
 * setting (the "session" block excluded).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "bench/campaign.hh"
#include "bench/campaign_diff.hh"

namespace mtp {
namespace bench {
namespace {

/** The two-harness mini-campaign every test here runs: 1/64 scale,
 *  one benchmark, one table harness + one figure harness. */
Options
miniOptions()
{
    Options opts;
    opts.scaleDiv = 64;
    opts.throttlePeriod = 1000;
    opts.benchmarks = {"stream"};
    return opts;
}

const std::vector<std::string> &
miniFigures()
{
    static const std::vector<std::string> figs = {
        "tab03_characteristics", "fig11_swp_throttle"};
    return figs;
}

std::string
miniManifest(unsigned jobs, bool includeSession)
{
    Options opts = miniOptions();
    opts.jobs = jobs;
    CampaignResult res = runCampaign(opts, miniFigures());
    std::ostringstream os;
    writeManifest(os, res, includeSession);
    return os.str();
}

TEST(CampaignDiff, GlobMatch)
{
    EXPECT_TRUE(globMatch("abc", "abc"));
    EXPECT_FALSE(globMatch("abc", "abx"));
    EXPECT_TRUE(globMatch("*", "anything/at/all"));
    EXPECT_TRUE(globMatch("fig10_swp/*", "fig10_swp/summary/x"));
    EXPECT_FALSE(globMatch("fig10_swp/*", "fig11_swp/summary/x"));
    EXPECT_TRUE(globMatch("*/summary/*", "fig10_swp/summary/geomean"));
    EXPECT_FALSE(globMatch("*/summary", "fig10_swp/summary/geomean"));
    EXPECT_TRUE(globMatch("*geomean*", "a/summary/geomean.stride"));
}

TEST(CampaignDiff, ToleranceRulesFirstMatchWins)
{
    Tolerances tol;
    tol.relPct = 1.0;
    tol.rules = {{"fig10_swp/*", 10.0}, {"*/summary/*", 5.0}};
    EXPECT_DOUBLE_EQ(tol.relPctFor("fig10_swp/summary/x"), 10.0);
    EXPECT_DOUBLE_EQ(tol.relPctFor("fig11_swp/summary/x"), 5.0);
    EXPECT_DOUBLE_EQ(tol.relPctFor("fig11_swp/speedups/r/c"), 1.0);
}

TEST(Campaign, SpecsAreRegisteredAndNamed)
{
    ASSERT_GE(campaignSpecs().size(), 18u);
    for (const auto &spec : campaignSpecs()) {
        EXPECT_FALSE(spec.name.empty());
        EXPECT_FALSE(spec.anchor.empty());
        EXPECT_NE(spec.run, nullptr);
        EXPECT_EQ(findSpec(spec.name), &spec);
    }
    EXPECT_EQ(findSpec("no_such_figure"), nullptr);
}

TEST(Campaign, ManifestRoundTripsThroughObsJson)
{
    std::string manifest = miniManifest(1, true);

    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parseJson(manifest, doc, &error)) << error;
    ASSERT_TRUE(doc.isObject());

    const obs::JsonValue *schema = doc.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->str, "mtp-campaign-v1");

    const obs::JsonValue *prov = doc.find("provenance");
    ASSERT_NE(prov, nullptr);
    EXPECT_NE(prov->find("gitSha"), nullptr);
    EXPECT_NE(prov->find("host"), nullptr);
    const obs::JsonValue *threads = prov->find("hostThreads");
    ASSERT_NE(threads, nullptr);
    EXPECT_GE(threads->number, 1.0);

    const obs::JsonValue *session = doc.find("session");
    ASSERT_NE(session, nullptr);
    EXPECT_NE(session->find("wallSeconds"), nullptr);

    const obs::JsonValue *figs = doc.find("figures");
    ASSERT_NE(figs, nullptr);
    ASSERT_EQ(figs->array.size(), 2u);
    const obs::JsonValue &fig = figs->array[1];
    EXPECT_EQ(fig.find("name")->str, "fig11_swp_throttle");
    EXPECT_GT(fig.find("runs")->number, 0.0);
    EXPECT_FALSE(fig.find("fingerprints")->array.empty());
    ASSERT_NE(fig.find("tables"), nullptr);
    ASSERT_FALSE(fig.find("tables")->array.empty());
    const obs::JsonValue &table = fig.find("tables")->array[0];
    EXPECT_FALSE(table.find("columns")->array.empty());
    EXPECT_FALSE(table.find("rows")->array.empty());
    ASSERT_NE(fig.find("summary"), nullptr);
    EXPECT_FALSE(fig.find("summary")->object.empty());
}

TEST(Campaign, GatePassesAgainstItselfAndNamesPerturbedMetric)
{
    std::string manifest = miniManifest(1, false);
    obs::JsonValue golden;
    std::string error;
    ASSERT_TRUE(obs::parseJson(manifest, golden, &error)) << error;

    // Self-diff: no violations even at zero tolerance.
    Tolerances strict;
    std::vector<DiffViolation> violations;
    EXPECT_TRUE(diffManifests(golden, golden, strict, violations));
    EXPECT_TRUE(violations.empty());

    // Perturb one summary metric by 50% in a copy.
    obs::JsonValue current = golden;
    obs::JsonValue &fig = current.object["figures"].array[1];
    auto &summary = fig.object["summary"].object;
    ASSERT_FALSE(summary.empty());
    const std::string metric = summary.begin()->first;
    summary.begin()->second.number *= 1.5;

    Tolerances tol;
    tol.relPct = 5.0;
    violations.clear();
    EXPECT_FALSE(diffManifests(golden, current, tol, violations));
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].path,
              "fig11_swp_throttle/summary/" + metric);
    EXPECT_EQ(violations[0].kind, DiffViolation::Kind::Number);
    EXPECT_NEAR(violations[0].relPct, 50.0, 1e-6);
    // The one-liner names the metric and both deltas.
    std::string line = violations[0].describe();
    EXPECT_NE(line.find(metric), std::string::npos);
    EXPECT_NE(line.find("rel"), std::string::npos);
    EXPECT_NE(line.find("abs"), std::string::npos);

    // A per-metric rule (or a loose default) absorbs the drift.
    Tolerances loose;
    loose.relPct = 60.0;
    violations.clear();
    EXPECT_TRUE(diffManifests(golden, current, loose, violations));

    Tolerances ruled;
    ruled.relPct = 1.0;
    ruled.rules = {{"*/summary/*", 60.0}};
    violations.clear();
    EXPECT_TRUE(diffManifests(golden, current, ruled, violations));
}

TEST(Campaign, GateFlagsStructuralDrift)
{
    std::string manifest = miniManifest(1, false);
    obs::JsonValue golden;
    std::string error;
    ASSERT_TRUE(obs::parseJson(manifest, golden, &error)) << error;

    // Dropping a whole figure is structural drift, not numeric.
    obs::JsonValue current = golden;
    current.object["figures"].array.pop_back();

    Tolerances tol;
    tol.relPct = 100.0; // numeric slack must not hide missing figures
    std::vector<DiffViolation> violations;
    EXPECT_FALSE(diffManifests(golden, current, tol, violations));
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].kind, DiffViolation::Kind::Structure);
    EXPECT_EQ(violations[0].path, "fig11_swp_throttle");
}

TEST(Campaign, ManifestByteIdenticalAcrossJobs)
{
    std::string serial = miniManifest(1, false);
    std::string parallel = miniManifest(4, false);
    EXPECT_EQ(serial, parallel)
        << "manifest body must not depend on --jobs";

    // The session block is the one legitimate source of variation;
    // with it included the body (everything before "session") must
    // still match.
    std::string withSession = miniManifest(1, true);
    EXPECT_NE(withSession.find("\"session\""), std::string::npos);
    EXPECT_EQ(serial.find("\"session\""), std::string::npos);
}

} // namespace
} // namespace bench
} // namespace mtp
