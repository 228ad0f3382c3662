/**
 * @file
 * Tests for the observability layer's JSON support: the validation
 * parser and the Chrome trace-event schema checker.
 */

#include <gtest/gtest.h>

#include <string>

#include "obs/json.hh"

namespace mtp {
namespace obs {
namespace {

TEST(JsonParse, Scalars)
{
    JsonValue v;
    ASSERT_TRUE(parseJson("42", v));
    EXPECT_TRUE(v.isNumber());
    EXPECT_DOUBLE_EQ(v.number, 42.0);

    ASSERT_TRUE(parseJson("-1.5e3", v));
    EXPECT_DOUBLE_EQ(v.number, -1500.0);

    ASSERT_TRUE(parseJson("true", v));
    EXPECT_EQ(v.kind, JsonValue::Kind::Bool);
    EXPECT_TRUE(v.boolean);

    ASSERT_TRUE(parseJson("null", v));
    EXPECT_EQ(v.kind, JsonValue::Kind::Null);

    ASSERT_TRUE(parseJson("\"a\\n\\\"b\\\"\"", v));
    EXPECT_TRUE(v.isString());
    EXPECT_EQ(v.str, "a\n\"b\"");
}

TEST(JsonParse, NestedStructure)
{
    JsonValue v;
    ASSERT_TRUE(parseJson(
        R"({"a": [1, 2, {"b": "c"}], "d": {"e": false}})", v));
    ASSERT_TRUE(v.isObject());
    const JsonValue *a = v.find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_DOUBLE_EQ(a->array[1].number, 2.0);
    const JsonValue *b = a->array[2].find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->str, "c");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(JsonParse, RejectsMalformedInput)
{
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson("", v, &err));
    EXPECT_FALSE(parseJson("{", v, &err));
    EXPECT_FALSE(parseJson("[1,]", v, &err));
    EXPECT_FALSE(parseJson("{\"a\": 1} trailing", v, &err));
    EXPECT_FALSE(parseJson("\"unterminated", v, &err));
    EXPECT_FALSE(err.empty());
}

TEST(JsonParse, RejectsExcessiveNesting)
{
    std::string deep(100, '[');
    deep += std::string(100, ']');
    JsonValue v;
    std::string err;
    EXPECT_FALSE(parseJson(deep, v, &err));
}

TEST(ChromeTraceSchema, AcceptsMinimalValidTrace)
{
    const char *doc = R"({
        "displayTimeUnit": "ns",
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
             "args": {"name": "core0"}},
            {"name": "req:mrq_enq", "ph": "i", "ts": 10, "pid": 0,
             "tid": 0, "s": "t"},
            {"name": "mem:load", "ph": "X", "ts": 10, "dur": 90,
             "pid": 0, "tid": 0},
            {"name": "core0.ipc", "ph": "C", "ts": 100, "pid": 0,
             "tid": 0, "args": {"value": 0.5}}
        ]
    })";
    std::string err;
    EXPECT_TRUE(validateChromeTrace(doc, &err)) << err;
}

TEST(ChromeTraceSchema, RejectsMissingTraceEvents)
{
    std::string err;
    EXPECT_FALSE(validateChromeTrace("{}", &err));
    EXPECT_FALSE(validateChromeTrace("[1, 2]", &err));
}

TEST(ChromeTraceSchema, RejectsBadEvents)
{
    std::string err;
    // "X" without dur.
    EXPECT_FALSE(validateChromeTrace(
        R"({"traceEvents": [{"name": "a", "ph": "X", "ts": 1,
            "pid": 0, "tid": 0}]})",
        &err));
    // Counter without args.
    EXPECT_FALSE(validateChromeTrace(
        R"({"traceEvents": [{"name": "a", "ph": "C", "ts": 1,
            "pid": 0, "tid": 0}]})",
        &err));
    // Missing name.
    EXPECT_FALSE(validateChromeTrace(
        R"({"traceEvents": [{"ph": "i", "ts": 1, "pid": 0,
            "tid": 0}]})",
        &err));
    // Non-numeric ts.
    EXPECT_FALSE(validateChromeTrace(
        R"({"traceEvents": [{"name": "a", "ph": "i", "ts": "x",
            "pid": 0, "tid": 0}]})",
        &err));
}

} // namespace
} // namespace obs
} // namespace mtp
