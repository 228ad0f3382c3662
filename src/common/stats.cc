#include "common/stats.hh"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/json_writer.hh"
#include "common/log.hh"

namespace mtp {

void
StatSet::add(std::string name, double value, const char *desc)
{
    entries_.push_back({std::move(name), value, desc});
}

bool
StatSet::has(const std::string &name) const
{
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry &e) { return e.name == name; });
}

double
StatSet::get(const std::string &name) const
{
    MTP_ASSERT(has(name), "unknown statistic '", name, "'");
    return getOr(name, 0.0);
}

double
StatSet::getOr(const std::string &name, double fallback) const
{
    for (const auto &e : entries_)
        if (e.name == name)
            return e.value;
    return fallback;
}

double
StatSet::sumMatching(const std::string &prefix,
                     const std::string &suffix) const
{
    double total = 0.0;
    for (const auto &e : entries_) {
        if (e.name.size() < prefix.size() + suffix.size())
            continue;
        if (e.name.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (e.name.compare(e.name.size() - suffix.size(), suffix.size(),
                           suffix) != 0)
            continue;
        total += e.value;
    }
    return total;
}

void
StatSet::append(const StatSet &other)
{
    entries_.insert(entries_.end(), other.entries_.begin(),
                    other.entries_.end());
}

void
StatSet::dumpText(std::ostream &os) const
{
    std::size_t width = 0;
    for (const auto &e : entries_)
        width = std::max(width, e.name.size());
    for (const auto &e : entries_) {
        os << std::left << std::setw(static_cast<int>(width) + 2) << e.name
           << std::setprecision(12) << e.value;
        if (*e.desc)
            os << "  # " << e.desc;
        os << '\n';
    }
}

namespace {

/** RFC 4180 field quoting: only when the field needs it. */
void
writeCsvField(std::ostream &os, std::string_view field)
{
    if (field.find_first_of(",\"\n\r") == std::string_view::npos) {
        os << field;
        return;
    }
    os << '"';
    for (char c : field) {
        if (c == '"')
            os << '"';
        os << c;
    }
    os << '"';
}

} // namespace

void
StatSet::dumpCsv(std::ostream &os) const
{
    os << "name,value,description\n";
    for (const auto &e : entries_) {
        writeCsvField(os, e.name);
        os << ',' << std::setprecision(12) << e.value << ',';
        writeCsvField(os, e.desc);
        os << '\n';
    }
}

void
StatSet::dumpJson(std::ostream &os) const
{
    std::string out;
    json::Writer w(out);
    w.beginObject();
    for (const auto &e : entries_)
        w.key(e.name)
            .beginObject(json::Layout::Inline)
            .field("value", e.value)
            .field("desc", e.desc)
            .endObject();
    w.endObject();
    out += '\n';
    os << out;
}

Histogram::Histogram(double lo, double hi, unsigned nbuckets)
    : lo_(lo), hi_(hi), width_((hi - lo) / nbuckets), bucketCounts_(nbuckets)
{
    MTP_ASSERT(hi > lo && nbuckets > 0,
               "invalid histogram bounds [", lo, ", ", hi, ") x ", nbuckets);
}

void
Histogram::sample(double v, std::uint64_t count)
{
    if (count == 0)
        return;
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += count;
    sum_ += v * count;
    if (v < lo_) {
        underflow_ += count;
    } else if (v >= hi_) {
        overflow_ += count;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        idx = std::min(idx, bucketCounts_.size() - 1);
        bucketCounts_[idx] += count;
    }
}

void
Histogram::reset()
{
    std::fill(bucketCounts_.begin(), bucketCounts_.end(), 0);
    underflow_ = overflow_ = count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

std::uint64_t
Histogram::bucketCount(unsigned i) const
{
    MTP_ASSERT(i < bucketCounts_.size(), "bucket ", i, " out of range");
    return bucketCounts_[i];
}

void
Histogram::exportTo(StatSet &set, const std::string &name,
                    const char *desc) const
{
    set.add(name + ".count", static_cast<double>(count_), desc);
    set.add(name + ".mean", mean(), desc);
    set.add(name + ".min", minValue(), desc);
    set.add(name + ".max", maxValue(), desc);
}

} // namespace mtp
