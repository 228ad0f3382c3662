/**
 * @file
 * The one JSON writer. Every JSON artifact of the tree — StatSet
 * dumps, the campaign manifest, the harness records, the trace sinks,
 * the host profile and the flight recorder's dump — is written through
 * it, so escaping, the spelling of numbers and the layout are decided
 * here and nowhere else.
 *
 *  - Strings: `"` and `\` escaped, `\n`, `\r`, `\t` by name, every
 *    other control byte as `\u00XX`; other bytes pass through.
 *  - Numbers: doubles in std::to_chars' shortest round-trip form (never
 *    locale-dependent), `null` for NaN and ±inf; integers exactly.
 *  - Layouts, chosen per container:
 *      Pretty  — one member per line, 2-space indent, `"key": value`,
 *                `[]` / `{}` when empty (the manifest, StatSet dumps);
 *      Inline  — one line, `{"k": v, "k2": v2}` (table rows, StatSet
 *                entries, harness workload rows);
 *      Compact — one line, `{"k":v,"k2":v2}` (JSONL lines, Chrome
 *                records).
 *    A container is never less compact than the one around it, or
 *    than the writer's layout at the top level.
 *
 * The writer only appends to a caller-owned string, so a streaming
 * producer can drain that string between values.
 */

#ifndef MTP_COMMON_JSON_WRITER_HH
#define MTP_COMMON_JSON_WRITER_HH

#include <array>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mtp {
namespace json {

/** How a container lays out its members, least compact first. */
enum class Layout : std::uint8_t
{
    Pretty,
    Inline,
    Compact,
};

/** Append @p s quoted and escaped. */
void appendString(std::string &out, std::string_view s);

/** Append @p v in shortest round-trip form; null when not finite. */
void appendNumber(std::string &out, double v);

/**
 * A streaming writer over @p out. Containers are opened and closed
 * explicitly; inside an object every value is preceded by key().
 */
class Writer
{
  public:
    /**
     * @param layout the least compact layout a container may take
     * @param depth indent level of the line the first value starts on,
     *        for a value embedded in a pretty document
     */
    explicit Writer(std::string &out, Layout layout = Layout::Pretty,
                    int depth = 0);

    Writer &
    beginObject(Layout layout = Layout::Pretty)
    {
        return open('{', layout);
    }
    Writer &endObject() { return close('}'); }
    Writer &
    beginArray(Layout layout = Layout::Pretty)
    {
        return open('[', layout);
    }
    Writer &endArray() { return close(']'); }

    /** The next member's key. */
    Writer &key(std::string_view k);

    Writer &value(std::string_view s);
    Writer &value(const char *s) { return value(std::string_view(s)); }
    Writer &value(double v);
    Writer &value(bool b);
    Writer &null();

    /** Any integer, written exactly. */
    template <std::integral T>
    Writer &
    value(T v)
    {
        if constexpr (std::signed_integral<T>) {
            if (v < 0)
                return integer(0 - static_cast<std::uint64_t>(v), true);
        }
        return integer(static_cast<std::uint64_t>(v), false);
    }

    /** An array of strings, in the enclosing layout. */
    Writer &value(const std::vector<std::string> &list);

    /** key(@p k).value(@p v). */
    template <typename T>
    Writer &
    field(std::string_view k, const T &v)
    {
        key(k);
        return value(v);
    }

  private:
    struct Frame
    {
        Layout layout;
        char close; //!< '}' or ']'
        bool first; //!< no member written yet
    };

    Writer &open(char bracket, Layout layout);
    Writer &close(char bracket);
    Writer &integer(std::uint64_t magnitude, bool negative);

    /** Separator and indentation before the next value or key. */
    void separate();
    void newline(int level);

    std::string &out_;
    Layout layout_;
    int base_;
    int depth_ = 0;
    bool afterKey_ = false;
    //! Room for obs::parseJson's deepest value inside a manifest.
    std::array<Frame, 80> frames_;
};

} // namespace json
} // namespace mtp

#endif // MTP_COMMON_JSON_WRITER_HH
