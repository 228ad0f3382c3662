#include "obs/sampler.hh"

#include "common/log.hh"

namespace mtp {
namespace obs {

void
Sampler::addProbe(std::string name, int pid, Kind kind, Fn fn, Fn den)
{
    MTP_ASSERT(!active(), "probes must be registered before start()");
    MTP_ASSERT(fn, "probe '", name, "' without a reader");
    MTP_ASSERT(kind != Kind::Ratio || den,
               "ratio probe '", name, "' without a denominator");
    probes_.push_back(
        {std::move(name), pid, kind, std::move(fn), std::move(den)});
}

void
Sampler::addSink(EventSink *sink)
{
    MTP_ASSERT(sink, "null sink");
    sinks_.push_back(sink);
}

void
Sampler::start(Cycle period)
{
    MTP_ASSERT(period > 0, "sample period must be positive");
    MTP_ASSERT(!active(), "sampler started twice");
    period_ = period;
    next_ = period;
    std::vector<SampleColumn> columns;
    columns.reserve(probes_.size());
    for (const auto &p : probes_)
        columns.push_back({p.name, p.pid});
    for (auto *sink : sinks_)
        sink->sampleSchema(columns);
}

void
Sampler::sample(Cycle now)
{
    MTP_ASSERT(active(), "sample() on an inactive sampler");
    row_.clear();
    row_.reserve(probes_.size());
    for (auto &p : probes_) {
        double cur = p.fn(now);
        double value = 0.0;
        switch (p.kind) {
          case Kind::Gauge:
            value = cur;
            break;
          case Kind::Rate:
            value = (cur - p.last) / static_cast<double>(period_);
            break;
          case Kind::Ratio: {
            double den = p.den(now);
            double d = den - p.lastDen;
            value = d != 0.0 ? (cur - p.last) / d : 0.0;
            p.lastDen = den;
            break;
          }
        }
        p.last = cur;
        row_.push_back(value);
    }
    for (auto *sink : sinks_)
        sink->sample(now, row_);
    ++samples_;
    // The loop may overshoot a boundary only when sampling was armed
    // after the fact; normally next_ advances by exactly one period.
    while (next_ <= now)
        next_ += period_;
}

} // namespace obs
} // namespace mtp
