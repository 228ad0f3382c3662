#include "common/json_writer.hh"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "common/log.hh"

namespace mtp {
namespace json {

void
appendString(std::string &out, std::string_view s)
{
    out += '"';
    std::size_t plain = 0; // start of the run not yet appended
    for (std::size_t i = 0; i < s.size(); ++i) {
        auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, plain, i - plain);
        plain = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char *hex = "0123456789abcdef";
            const char esc[] = {'\\', 'u', '0', '0', hex[c >> 4],
                                hex[c & 0xf]};
            out.append(esc, sizeof(esc));
            break;
          }
        }
    }
    out.append(s, plain);
    out += '"';
}

void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    char buf[32];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

Writer::Writer(std::string &out, Layout layout, int depth)
    : out_(out), layout_(layout), base_(depth)
{
}

void
Writer::newline(int level)
{
    out_ += '\n';
    out_.append(static_cast<std::size_t>(level) * 2, ' ');
}

void
Writer::separate()
{
    if (afterKey_) {
        afterKey_ = false;
        return;
    }
    if (!depth_)
        return;
    Frame &f = frames_[depth_ - 1];
    if (!f.first)
        out_ += ',';
    if (f.layout == Layout::Pretty)
        newline(base_ + depth_);
    else if (f.layout == Layout::Inline && !f.first)
        out_ += ' ';
    f.first = false;
}

Writer &
Writer::open(char bracket, Layout layout)
{
    MTP_ASSERT(depth_ < static_cast<int>(frames_.size()),
               "JSON nesting deeper than ", frames_.size());
    separate();
    layout = std::max(layout, depth_ ? frames_[depth_ - 1].layout : layout_);
    frames_[depth_++] = {layout, bracket == '{' ? '}' : ']', true};
    out_ += bracket;
    return *this;
}

Writer &
Writer::close(char bracket)
{
    MTP_ASSERT(depth_ > 0 && frames_[depth_ - 1].close == bracket &&
                   !afterKey_,
               "unbalanced JSON '", bracket, "'");
    const Frame &f = frames_[--depth_];
    if (f.layout == Layout::Pretty && !f.first)
        newline(base_ + depth_);
    out_ += bracket;
    return *this;
}

Writer &
Writer::key(std::string_view k)
{
    MTP_ASSERT(depth_ > 0 && frames_[depth_ - 1].close == '}' &&
                   !afterKey_,
               "JSON key '", k, "' outside an object");
    separate();
    appendString(out_, k);
    out_ += frames_[depth_ - 1].layout == Layout::Compact ? ":" : ": ";
    afterKey_ = true;
    return *this;
}

Writer &
Writer::value(std::string_view s)
{
    separate();
    appendString(out_, s);
    return *this;
}

Writer &
Writer::value(double v)
{
    separate();
    appendNumber(out_, v);
    return *this;
}

Writer &
Writer::value(bool b)
{
    separate();
    out_ += b ? "true" : "false";
    return *this;
}

Writer &
Writer::null()
{
    separate();
    out_ += "null";
    return *this;
}

Writer &
Writer::integer(std::uint64_t magnitude, bool negative)
{
    separate();
    if (negative)
        out_ += '-';
    char buf[24];
    auto res = std::to_chars(buf, buf + sizeof(buf), magnitude);
    out_.append(buf, res.ptr);
    return *this;
}

Writer &
Writer::value(const std::vector<std::string> &list)
{
    beginArray();
    for (const std::string &s : list)
        value(s);
    return endArray();
}

} // namespace json
} // namespace mtp
