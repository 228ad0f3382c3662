/**
 * @file
 * Tests for the one JSON writer: exact bytes in each layout, string
 * escaping and the spelling of numbers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/json_writer.hh"

namespace mtp {
namespace json {
namespace {

/** A nested object, an array, empty containers and an inline row. */
std::string
smallDocument(Layout layout)
{
    std::string out;
    Writer w(out, layout);
    w.beginObject().field("name", "fig").field("runs", 3);
    w.key("rows").beginArray();
    w.beginObject(Layout::Inline)
        .field("bench", "bfs")
        .field("x", 1.5)
        .endObject();
    w.endArray();
    w.key("empty").beginObject().endObject();
    w.field("none", std::vector<std::string>{});
    w.key("nested").beginObject().field("ok", true);
    w.key("list").beginArray().value(1).null().endArray();
    w.endObject().endObject();
    return out;
}

TEST(JsonWriter, PrettyLayoutBytes)
{
    EXPECT_EQ(smallDocument(Layout::Pretty),
              "{\n"
              "  \"name\": \"fig\",\n"
              "  \"runs\": 3,\n"
              "  \"rows\": [\n"
              "    {\"bench\": \"bfs\", \"x\": 1.5}\n"
              "  ],\n"
              "  \"empty\": {},\n"
              "  \"none\": [],\n"
              "  \"nested\": {\n"
              "    \"ok\": true,\n"
              "    \"list\": [\n"
              "      1,\n"
              "      null\n"
              "    ]\n"
              "  }\n"
              "}");
}

TEST(JsonWriter, InlineLayoutBytes)
{
    EXPECT_EQ(smallDocument(Layout::Inline),
              "{\"name\": \"fig\", \"runs\": 3, \"rows\": [{\"bench\": "
              "\"bfs\", \"x\": 1.5}], \"empty\": {}, \"none\": [], "
              "\"nested\": {\"ok\": true, \"list\": [1, null]}}");
}

TEST(JsonWriter, CompactLayoutBytes)
{
    EXPECT_EQ(smallDocument(Layout::Compact),
              "{\"name\":\"fig\",\"runs\":3,\"rows\":[{\"bench\":\"bfs\","
              "\"x\":1.5}],\"empty\":{},\"none\":[],\"nested\":{\"ok\":"
              "true,\"list\":[1,null]}}");
}

TEST(JsonWriter, EmbeddedValueIndentsFromItsDepth)
{
    std::string out = "  \"raw\": ";
    Writer w(out, Layout::Pretty, 1);
    w.beginObject().field("a", 1).endObject();
    EXPECT_EQ(out, "  \"raw\": {\n    \"a\": 1\n  }");
}

TEST(JsonWriter, EscapePassesPlainTextThrough)
{
    std::string out;
    appendString(out, "core0.ipc");
    appendString(out, "");
    EXPECT_EQ(out, "\"core0.ipc\"\"\"");
}

TEST(JsonWriter, EscapesSpecials)
{
    auto quoted = [](std::string_view s) {
        std::string out;
        appendString(out, s);
        return out;
    };
    EXPECT_EQ(quoted("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(quoted("a\nb"), "\"a\\nb\"");
    EXPECT_EQ(quoted("a\tb"), "\"a\\tb\"");
    EXPECT_EQ(quoted(std::string(1, '\x01')), "\"\\u0001\"");
    EXPECT_EQ(quoted("k\x1f\r"), "\"k\\u001f\\r\"");
    // Keys go through the same escaping.
    std::string out;
    Writer(out, Layout::Compact).beginObject().field("q\"", "\\").endObject();
    EXPECT_EQ(out, "{\"q\\\"\":\"\\\\\"}");
}

TEST(JsonWriter, NonFiniteNumbersAreNull)
{
    std::string out;
    Writer w(out, Layout::Compact);
    w.beginArray()
        .value(std::numeric_limits<double>::quiet_NaN())
        .value(std::numeric_limits<double>::infinity())
        .value(-std::numeric_limits<double>::infinity())
        .endArray();
    EXPECT_EQ(out, "[null,null,null]");
}

TEST(JsonWriter, DoublesAreShortestRoundTrip)
{
    std::string out;
    Writer w(out, Layout::Compact);
    w.beginArray().value(0.1).value(1e-05).value(100.0).value(20.0);
    w.value(-0.0).value(1.0 / 3.0).endArray();
    EXPECT_EQ(out, "[0.1,1e-05,100,20,-0,0.3333333333333333]");
}

TEST(JsonWriter, IntegersAreExact)
{
    std::string out;
    Writer w(out, Layout::Compact);
    w.beginArray()
        .value(std::uint64_t{9007199254740993}) // 2^53 + 1
        .value(std::numeric_limits<std::uint64_t>::max())
        .value(std::numeric_limits<std::int64_t>::min())
        .value(-7)
        .value(0u)
        .endArray();
    EXPECT_EQ(out, "[9007199254740993,18446744073709551615,"
                   "-9223372036854775808,-7,0]");
}

} // namespace
} // namespace json
} // namespace mtp
