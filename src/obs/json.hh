/**
 * @file
 * Minimal JSON reading for the observability layer: a small
 * recursive-descent parser that validates generated Chrome trace-event
 * files in tests and tooling and reads manifests back, so the build
 * needs no JSON library. Writing goes through common/json_writer.hh.
 */

#ifndef MTP_OBS_JSON_HH
#define MTP_OBS_JSON_HH

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/json_writer.hh"

namespace mtp {
namespace obs {

/** Parsed JSON value (tree-owning; good enough for validation). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    // std::map keeps validation output deterministic.
    std::map<std::string, JsonValue> object;

    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** Write this value through @p w (object keys in sorted order). */
    void write(json::Writer &w) const;
};

/**
 * Parse @p text as one JSON document.
 * @return true on success; on failure @p error (if non-null) describes
 * the first problem and its offset.
 */
bool parseJson(std::string_view text, JsonValue &out,
               std::string *error = nullptr);

/**
 * Validate @p text against the Chrome trace-event JSON schema subset
 * this layer emits (and Perfetto consumes): a top-level object with a
 * "traceEvents" array whose entries carry name/ph/pid/tid, a numeric
 * "ts" for timed phases, a numeric "dur" for complete ("X") events and
 * an "args" object for counter ("C") events.
 */
bool validateChromeTrace(std::string_view text,
                         std::string *error = nullptr);

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_JSON_HH
