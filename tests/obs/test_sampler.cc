/**
 * @file
 * Sampler semantics: probe kinds (gauge / rate / ratio),
 * boundary arithmetic, and the nextSampleAt() contract the GPU's
 * cycle-skipping loop relies on.
 */

#include <gtest/gtest.h>

#include "common/types.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"

namespace mtp {
namespace obs {
namespace {

TEST(Sampler, InactiveUntilStart)
{
    Sampler s;
    EXPECT_FALSE(s.active());
    EXPECT_EQ(s.nextSampleAt(), invalidCycle);
    EXPECT_FALSE(s.due(0));
    EXPECT_FALSE(s.due(1'000'000));
}

TEST(Sampler, EmitsSchemaOnStart)
{
    Sampler s;
    CaptureSink cap;
    s.addSink(&cap);
    double x = 0.0;
    s.addProbe("a", trackForCore(0), Sampler::Kind::Gauge,
               [&](Cycle) { return x; });
    s.addProbe("b", trackGlobal, Sampler::Kind::Rate,
               [&](Cycle) { return x; });
    EXPECT_TRUE(cap.schema.empty());
    s.start(100);
    ASSERT_EQ(cap.schema.size(), 2u);
    EXPECT_EQ(cap.schema[0].name, "a");
    EXPECT_EQ(cap.schema[0].pid, trackForCore(0));
    EXPECT_EQ(cap.schema[1].name, "b");
    EXPECT_EQ(cap.schema[1].pid, trackGlobal);
    EXPECT_EQ(cap.column("b"), 1);
    EXPECT_EQ(cap.column("missing"), -1);
}

TEST(Sampler, FirstBoundaryIsOnePeriodIn)
{
    Sampler s;
    double x = 0.0;
    s.addProbe("a", 0, Sampler::Kind::Gauge, [&](Cycle) { return x; });
    s.start(100);
    EXPECT_TRUE(s.active());
    EXPECT_EQ(s.nextSampleAt(), 100u);
    EXPECT_FALSE(s.due(0));
    EXPECT_FALSE(s.due(99));
    EXPECT_TRUE(s.due(100));
    s.sample(100);
    EXPECT_EQ(s.nextSampleAt(), 200u);
    EXPECT_EQ(s.samplesTaken(), 1u);
}

TEST(Sampler, KindSemantics)
{
    Sampler s;
    CaptureSink cap;
    s.addSink(&cap);
    double gauge = 0.0, counter = 0.0, rate = 0.0;
    double num = 0.0, den = 0.0;
    s.addProbe("g", 0, Sampler::Kind::Gauge,
               [&](Cycle) { return gauge; });
    s.addProbe("c", 0, Sampler::Kind::Rate,
               [&](Cycle) { return counter; });
    s.addProbe("r", 0, Sampler::Kind::Rate,
               [&](Cycle) { return rate; });
    s.addProbe(
        "q", 0, Sampler::Kind::Ratio, [&](Cycle) { return num; },
        [&](Cycle) { return den; });
    s.start(100);

    gauge = 7.0;
    counter = 40.0;
    rate = 50.0;
    num = 3.0;
    den = 4.0;
    s.sample(100);
    ASSERT_EQ(cap.samples.size(), 1u);
    EXPECT_EQ(cap.samples[0].cycle, 100u);
    EXPECT_DOUBLE_EQ(cap.samples[0].values[0], 7.0);   // instantaneous
    EXPECT_DOUBLE_EQ(cap.samples[0].values[1], 0.4);   // 40 from 0
    EXPECT_DOUBLE_EQ(cap.samples[0].values[2], 0.5);   // 50 / 100
    EXPECT_DOUBLE_EQ(cap.samples[0].values[3], 0.75);  // 3 / 4

    // Second period: deltas restart from the previous snapshot.
    gauge = 2.0;
    counter = 45.0;
    rate = 150.0;
    num = 3.0; // numerator flat
    den = 8.0;
    s.sample(200);
    ASSERT_EQ(cap.samples.size(), 2u);
    EXPECT_DOUBLE_EQ(cap.samples[1].values[0], 2.0);
    EXPECT_DOUBLE_EQ(cap.samples[1].values[1], 0.05); // 45 - 40
    EXPECT_DOUBLE_EQ(cap.samples[1].values[2], 1.0);
    EXPECT_DOUBLE_EQ(cap.samples[1].values[3], 0.0); // 0 / 4

    // Third period: flat denominator must not divide by zero.
    num = 9.0;
    s.sample(300);
    EXPECT_DOUBLE_EQ(cap.samples[2].values[3], 0.0);

    // Fourth period: the ratio picks up from the stored snapshots.
    num = 11.0;
    den = 12.0;
    s.sample(400);
    EXPECT_DOUBLE_EQ(cap.samples[3].values[3], 0.5); // 2 / 4
}

TEST(Sampler, LateSampleAdvancesPastNow)
{
    Sampler s;
    double x = 0.0;
    s.addProbe("a", 0, Sampler::Kind::Gauge, [&](Cycle) { return x; });
    s.start(100);
    // A sample taken far past several boundaries (only possible when
    // armed late) advances next_ beyond now, not one period at a time.
    s.sample(570);
    EXPECT_EQ(s.nextSampleAt(), 600u);
    EXPECT_FALSE(s.due(599));
    EXPECT_TRUE(s.due(600));
}

} // namespace
} // namespace obs
} // namespace mtp
