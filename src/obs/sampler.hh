/**
 * @file
 * Periodic counter sampler. Components register probes — closures over
 * their live counters — and the GPU's cycle loop calls sample() at
 * every period boundary, producing one time-series row across all
 * attached sinks.
 *
 * Interaction with event-driven cycle skipping: sampling is read-only,
 * but it must *happen* at the right cycles, so the sampler exposes
 * nextSampleAt() and the GPU arms its event-queue sampler slot with it
 * — a skip never jumps a sample boundary (the same event-horizon
 * contract every component obeys; DESIGN.md §7/§8). Because a skipped
 * cycle's step() is a no-op for every component, stopping a skip at a
 * boundary and stepping through it cannot change simulation state, so
 * end-of-run results stay bit-identical with sampling on or off.
 */

#ifndef MTP_OBS_SAMPLER_HH
#define MTP_OBS_SAMPLER_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/sink.hh"

namespace mtp {
namespace obs {

/** Registry of probes + the periodic snapshot loop. */
class Sampler
{
  public:
    /** How a probe's reading is turned into a sample value. */
    enum class Kind
    {
        Gauge, //!< instantaneous value at the boundary
        Rate,  //!< delta / period (e.g. IPC)
        Ratio, //!< delta(fn) / delta(den), 0 when den is flat
    };

    using Fn = std::function<double(Cycle)>;

    /**
     * Register a probe.
     * @param name column name in the emitted time series
     * @param pid track id (trackForCore/trackForChannel/trackGlobal)
     * @param kind value transformation
     * @param fn reads the underlying value (cumulative for Rate and
     *        Ratio numerators)
     * @param den Ratio denominator reader; unused otherwise
     */
    void addProbe(std::string name, int pid, Kind kind, Fn fn,
                  Fn den = {});

    /** Attach a sink (borrowed; must outlive the sampler). */
    void addSink(EventSink *sink);

    /**
     * Arm the sampler: first boundary at cycle @p period, then every
     * @p period cycles. Emits the column schema to all sinks.
     */
    void start(Cycle period);

    bool active() const { return period_ > 0; }
    Cycle period() const { return period_; }

    /**
     * The next sample boundary, or invalidCycle when inactive. The
     * GPU's event queue arms the sampler at this cycle, so cycle
     * skipping stops at every boundary.
     */
    Cycle
    nextSampleAt() const
    {
        return active() ? next_ : invalidCycle;
    }

    /** @return true iff @p now is at (or past) the next boundary. */
    bool
    due(Cycle now) const
    {
        return active() && now >= next_;
    }

    /** Take one sample at @p now and advance the boundary. */
    void sample(Cycle now);

    /** Boundaries sampled so far. */
    std::uint64_t samplesTaken() const { return samples_; }

    std::size_t probes() const { return probes_.size(); }

  private:
    struct Probe
    {
        std::string name;
        int pid;
        Kind kind;
        Fn fn;
        Fn den;
        double last = 0.0;
        double lastDen = 0.0;
    };

    std::vector<Probe> probes_;
    std::vector<EventSink *> sinks_;
    std::vector<double> row_;
    Cycle period_ = 0;
    Cycle next_ = invalidCycle;
    std::uint64_t samples_ = 0;
};

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_SAMPLER_HH
