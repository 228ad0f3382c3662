#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <locale>
#include <sstream>

#include "common/stats.hh"
#include "obs/json.hh"

namespace mtp {
namespace {

TEST(StatSet, AddAppendsInExportOrder)
{
    StatSet s;
    s.add("a.c", 1.0, "first");
    s.add("a.b", 2.0);
    s.add("a.a", 3.0, "third");
    EXPECT_TRUE(s.has("a.b"));
    EXPECT_FALSE(s.has("a.d"));
    EXPECT_DOUBLE_EQ(s.get("a.c"), 1.0);
    EXPECT_DOUBLE_EQ(s.getOr("a.a", -1.0), 3.0);
    EXPECT_DOUBLE_EQ(s.getOr("a.d", -1.0), -1.0);
    // Entries stay in the order they were added, not sorted by name.
    ASSERT_EQ(s.size(), 3u);
    EXPECT_EQ(s.entries()[0].name, "a.c");
    EXPECT_EQ(s.entries()[1].name, "a.b");
    EXPECT_EQ(s.entries()[2].name, "a.a");
    EXPECT_STREQ(s.entries()[0].desc, "first");
    EXPECT_STREQ(s.entries()[1].desc, "");
    EXPECT_STREQ(s.entries()[2].desc, "third");
}

TEST(StatSet, SumMatching)
{
    StatSet s;
    s.add("core0.pref.issued", 3);
    s.add("core1.pref.issued", 4);
    s.add("core1.pref.dropped", 100);
    EXPECT_DOUBLE_EQ(s.sumMatching("core", ".pref.issued"), 7.0);
    EXPECT_DOUBLE_EQ(s.sumMatching("mem", ".pref.issued"), 0.0);
}

TEST(StatSet, Append)
{
    StatSet a;
    a.add("x", 1, "ex");
    StatSet b;
    b.add("z", 2, "zed");
    b.add("y", 3);
    a.append(b);
    // other's entries follow this set's, in other's order.
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a.entries()[0].name, "x");
    EXPECT_EQ(a.entries()[1].name, "z");
    EXPECT_EQ(a.entries()[2].name, "y");
    EXPECT_DOUBLE_EQ(a.get("z"), 2.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 3.0);
    EXPECT_STREQ(a.entries()[0].desc, "ex");
    EXPECT_STREQ(a.entries()[1].desc, "zed");
    EXPECT_STREQ(a.entries()[2].desc, "");
    EXPECT_EQ(b.size(), 2u);
}

TEST(StatSet, DumpFormats)
{
    StatSet s;
    s.add("name", 1.5, "desc");
    std::ostringstream text;
    s.dumpText(text);
    EXPECT_NE(text.str().find("name"), std::string::npos);
    EXPECT_NE(text.str().find("desc"), std::string::npos);
    std::ostringstream csv;
    s.dumpCsv(csv);
    EXPECT_NE(csv.str().find("name,1.5"), std::string::npos);
}

TEST(StatSet, DumpCsvEscapesSpecialCharacters)
{
    StatSet s;
    s.add("plain", 1.0, "no escaping needed");
    s.add("commas", 2.0, "a, b, and c");
    s.add("quotes", 3.0, "the \"fast\" loop");
    s.add("newline", 4.0, "line one\nline two");
    std::ostringstream os;
    s.dumpCsv(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name,value,description\n"), std::string::npos);
    EXPECT_NE(out.find("plain,1,no escaping needed\n"),
              std::string::npos);
    EXPECT_NE(out.find("commas,2,\"a, b, and c\"\n"), std::string::npos);
    EXPECT_NE(out.find("quotes,3,\"the \"\"fast\"\" loop\"\n"),
              std::string::npos);
    EXPECT_NE(out.find("newline,4,\"line one\nline two\"\n"),
              std::string::npos);
}

TEST(StatSet, DumpJson)
{
    StatSet s;
    s.add("core0.ipc", 0.5, "instructions per cycle");
    s.add("weird\"name", 1.0, "desc with \\ and \"quotes\"");
    std::ostringstream os;
    s.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("\"core0.ipc\": {\"value\": 0.5, "
                       "\"desc\": \"instructions per cycle\"}"),
              std::string::npos);
    EXPECT_NE(out.find("\"weird\\\"name\""), std::string::npos);
    EXPECT_NE(out.find("\"desc with \\\\ and \\\"quotes\\\"\""),
              std::string::npos);
    // Balanced object syntax, one entry per line.
    EXPECT_EQ(out.front(), '{');
    EXPECT_EQ(out[out.size() - 2], '}');
}

/** A numpunct facet with ',' as the decimal point (like de_DE). */
class CommaDecimal : public std::numpunct<char>
{
  protected:
    char
    do_decimal_point() const override
    {
        return ',';
    }
    std::string
    do_grouping() const override
    {
        return "\3";
    }
    char
    do_thousands_sep() const override
    {
        return '.';
    }
};

/**
 * dumpJson output must be valid JSON regardless of the global locale:
 * number formatting goes through std::to_chars, never operator<<, so a
 * comma-decimal locale cannot corrupt the stream.
 */
TEST(StatSet, DumpJsonIsLocaleIndependent)
{
    StatSet s;
    s.add("frac", 1234567.25, "would print '1.234.567,25' via iostream");
    s.add("tiny", 1e-300);

    std::locale old = std::locale::global(
        std::locale(std::locale::classic(), new CommaDecimal));
    std::ostringstream os;
    os.imbue(std::locale()); // pick up the hostile global locale
    s.dumpJson(os);
    std::locale::global(old);

    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parseJson(os.str(), v, &err)) << err << "\n"
                                                   << os.str();
    EXPECT_DOUBLE_EQ(v.find("frac")->find("value")->number, 1234567.25);
}

/**
 * Round trip: every double written by dumpJson must parse back to the
 * exact same bits (to_chars emits shortest-exact representations).
 */
TEST(StatSet, DumpJsonRoundTripsExactDoubles)
{
    StatSet s;
    s.add("tenth", 0.1);
    s.add("third", 1.0 / 3.0);
    s.add("huge", 1.7976931348623157e308);
    s.add("tiny", 5e-324); // smallest subnormal
    s.add("negzero", -0.0);
    s.add("int53", 9007199254740993.0);
    s.add("inf", std::numeric_limits<double>::infinity());
    std::ostringstream os;
    s.dumpJson(os);

    obs::JsonValue v;
    std::string err;
    ASSERT_TRUE(obs::parseJson(os.str(), v, &err)) << err;
    for (const char *name : {"tenth", "third", "huge", "tiny", "negzero",
                             "int53"}) {
        const obs::JsonValue *entry = v.find(name);
        ASSERT_NE(entry, nullptr) << name;
        EXPECT_EQ(entry->find("value")->number, s.get(name)) << name;
    }
    // Non-finite values have no JSON literal; they are emitted as null
    // so the document stays parseable.
    EXPECT_EQ(v.find("inf")->find("value")->kind,
              obs::JsonValue::Kind::Null);
}

TEST(Histogram, BucketsAndSummary)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(0.5);
    h.sample(5.5, 2);
    h.sample(-1.0);
    h.sample(100.0);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(5), 2u);
    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_DOUBLE_EQ(h.minValue(), -1.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 100.0);
    EXPECT_NEAR(h.mean(), (0.5 + 5.5 * 2 - 1.0 + 100.0) / 5.0, 1e-9);
}

TEST(Histogram, BucketEdgeSemantics)
{
    // [0, 10) in 5 buckets of width 2: [0,2) [2,4) [4,6) [6,8) [8,10).
    Histogram h(0.0, 10.0, 5);

    h.sample(0.0); // exactly lo: first bucket, not underflow
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.underflow(), 0u);

    h.sample(2.0); // exactly on an interior boundary: upper bucket
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);

    h.sample(8.0); // last interior boundary
    EXPECT_EQ(h.bucketCount(3), 0u);
    EXPECT_EQ(h.bucketCount(4), 1u);

    h.sample(10.0); // exactly hi: overflow, not the last bucket
    EXPECT_EQ(h.bucketCount(4), 1u);
    EXPECT_EQ(h.overflow(), 1u);

    double below = std::nextafter(0.0, -1.0);
    h.sample(below); // just below lo: underflow
    EXPECT_EQ(h.underflow(), 1u);

    double justUnderHi = std::nextafter(10.0, 0.0);
    h.sample(justUnderHi); // just below hi: last bucket
    EXPECT_EQ(h.bucketCount(4), 2u);
    EXPECT_EQ(h.overflow(), 1u);

    EXPECT_EQ(h.count(), 6u);
}

TEST(Histogram, ZeroCountSampleIsIgnored)
{
    Histogram h(0.0, 10.0, 5);
    h.sample(5.0, 0);
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.0);
    h.sample(5.0, 3);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.bucketCount(2), 3u);
}

TEST(Histogram, ResetAndExport)
{
    Histogram h(0.0, 4.0, 4);
    h.sample(1.0, 3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    h.sample(2.0);
    StatSet s;
    h.exportTo(s, "lat");
    EXPECT_DOUBLE_EQ(s.get("lat.count"), 1.0);
    EXPECT_DOUBLE_EQ(s.get("lat.mean"), 2.0);
}

} // namespace
} // namespace mtp
