#include "obs/json.hh"

#include <cctype>
#include <cstdlib>

namespace mtp {
namespace obs {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

void
JsonValue::write(json::Writer &w) const
{
    switch (kind) {
      case Kind::Null:
        w.null();
        break;
      case Kind::Bool:
        w.value(boolean);
        break;
      case Kind::Number:
        w.value(number);
        break;
      case Kind::String:
        w.value(str);
        break;
      case Kind::Array:
        w.beginArray();
        for (const JsonValue &element : array)
            element.write(w);
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const auto &[key, member] : object) {
            w.key(key);
            member.write(w);
        }
        w.endObject();
        break;
    }
}

namespace {

/** Recursive-descent parser over a string_view with offset tracking. */
class Parser
{
  public:
    Parser(std::string_view text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out, 0))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON value");
        return true;
    }

  private:
    static constexpr unsigned maxDepth = 64;

    bool
    fail(const std::string &what)
    {
        if (error_ && error_->empty())
            *error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    expect(char c)
    {
        if (pos_ >= text_.size() || text_[pos_] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos_;
        return true;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("bad literal");
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    return fail("unterminated escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    // Validation only needs a placeholder, not UTF-8.
                    out += code < 0x80 ? static_cast<char>(code) : '?';
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(double &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("expected number");
        std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        out = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size())
            return fail("malformed number");
        return true;
    }

    bool
    parseValue(JsonValue &out, unsigned depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            out.kind = JsonValue::Kind::Object;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (!expect(':'))
                    return false;
                JsonValue member;
                if (!parseValue(member, depth + 1))
                    return false;
                out.object[key] = std::move(member);
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            ++pos_;
            out.kind = JsonValue::Kind::Array;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue element;
                if (!parseValue(element, depth + 1))
                    return false;
                out.array.push_back(std::move(element));
                skipWs();
                if (pos_ < text_.size() && text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            out.kind = JsonValue::Kind::String;
            return parseString(out.str);
        }
        if (c == 't') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true");
        }
        if (c == 'f') {
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false");
        }
        if (c == 'n') {
            out.kind = JsonValue::Kind::Null;
            return literal("null");
        }
        out.kind = JsonValue::Kind::Number;
        return parseNumber(out.number);
    }

    std::string_view text_;
    std::string *error_;
    std::size_t pos_ = 0;
};

bool
validationFail(std::string *error, const std::string &what)
{
    if (error && error->empty())
        *error = what;
    return false;
}

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string *error)
{
    if (error)
        error->clear();
    Parser p(text, error);
    return p.parseDocument(out);
}

bool
validateChromeTrace(std::string_view text, std::string *error)
{
    if (error)
        error->clear();
    JsonValue doc;
    if (!parseJson(text, doc, error))
        return false;
    if (!doc.isObject())
        return validationFail(error, "top level is not an object");
    const JsonValue *events = doc.find("traceEvents");
    if (!events || !events->isArray())
        return validationFail(error, "missing traceEvents array");
    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &ev = events->array[i];
        std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (!ev.isObject())
            return validationFail(error, at + " is not an object");
        const JsonValue *name = ev.find("name");
        if (!name || !name->isString())
            return validationFail(error, at + " missing string name");
        const JsonValue *ph = ev.find("ph");
        if (!ph || !ph->isString() || ph->str.size() != 1)
            return validationFail(error,
                                  at + " missing one-character ph");
        const JsonValue *pid = ev.find("pid");
        if (!pid || !pid->isNumber())
            return validationFail(error, at + " missing numeric pid");
        const JsonValue *tid = ev.find("tid");
        if (!tid || !tid->isNumber())
            return validationFail(error, at + " missing numeric tid");
        char phase = ph->str[0];
        if (phase != 'M') {
            const JsonValue *ts = ev.find("ts");
            if (!ts || !ts->isNumber())
                return validationFail(error, at + " missing numeric ts");
        }
        if (phase == 'X') {
            const JsonValue *dur = ev.find("dur");
            if (!dur || !dur->isNumber() || dur->number < 0)
                return validationFail(
                    error, at + " complete event without dur >= 0");
        }
        if (phase == 'C') {
            const JsonValue *args = ev.find("args");
            if (!args || !args->isObject() || args->object.empty())
                return validationFail(
                    error, at + " counter event without args");
            for (const auto &[key, value] : args->object) {
                if (!value.isNumber())
                    return validationFail(error, at + " counter arg '" +
                                                     key +
                                                     "' not numeric");
            }
        }
        if (phase == 'M') {
            const JsonValue *args = ev.find("args");
            if (!args || !args->isObject())
                return validationFail(
                    error, at + " metadata event without args");
        }
    }
    return true;
}

} // namespace obs
} // namespace mtp
