/**
 * @file
 * Thread-safe memoizing cache of simulation runs on top of the
 * ParallelExecutor.
 *
 * submit() files a (config, kernel) pair under its Fingerprint and, if
 * the pair is new, enqueues the simulation on the executor; duplicate
 * submissions — sequential or concurrent — attach to the existing
 * entry and never run the simulator twice. Every submission returns
 * the entry's shared_future: its get() blocks until the run finishes
 * and returns a reference that stays valid for the cache's lifetime.
 *
 * The intended shape is submit-then-read: a harness submits its entire
 * run matrix up front (the executor's workers start chewing
 * immediately), keeps the handles, and reads them in print order.
 * With a single worker that degenerates to exactly the old sequential
 * behaviour; with N workers the wall clock approaches the critical
 * path. Results are bit-identical either way because each run is
 * single-threaded and deterministic.
 *
 * A handle must not be waited on from executor worker threads (see
 * ParallelExecutor's header).
 */

#ifndef MTP_DRIVER_RUN_CACHE_HH
#define MTP_DRIVER_RUN_CACHE_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "driver/fingerprint.hh"
#include "driver/parallel_executor.hh"
#include "obs/observer.hh"
#include "sim/gpu.hh"

namespace mtp {
namespace driver {

class RunCache
{
  public:
    /** @param exec executor the simulations are scheduled on (borrowed). */
    explicit RunCache(ParallelExecutor &exec) : exec_(exec) {}

    RunCache(const RunCache &) = delete;
    RunCache &operator=(const RunCache &) = delete;

    /**
     * Ensure a run for (cfg, kernel) is scheduled (or already done)
     * and return its handle. Returns immediately. Thread-safe;
     * concurrent callers of the same key get handles to the same
     * result.
     *
     * The optional @p ocfg attaches observation (sampling/tracing) to
     * the run if — and only if — this submission is the cache miss
     * that schedules it. Observation is read-only and never part of
     * the Fingerprint, so a later submission of the same (cfg, kernel)
     * with a different ObsConfig hits the existing entry and its
     * ObsConfig is ignored: first submission wins. Callers that need
     * guaranteed trace output for a key must therefore submit it with
     * the ObsConfig before any plain submission of that key.
     */
    std::shared_future<RunResult> submit(const SimConfig &cfg,
                                         const KernelDesc &kernel,
                                         const obs::ObsConfig &ocfg = {});

    /** Distinct runs scheduled (cache misses). */
    std::uint64_t misses() const { return misses_.load(); }

    /** Submissions served from an existing entry. */
    std::uint64_t hits() const { return hits_.load(); }

    /**
     * Entries discarded to bound memory. Always 0: submit() hands out
     * handles whose results must stay valid for the cache's lifetime,
     * so the cache never evicts by contract. Exposed anyway so
     * host-side telemetry (host.cache.*) reports the full
     * hit/miss/eviction triple and a future bounded cache changes one
     * number, not the schema.
     */
    std::uint64_t evictions() const { return 0; }

    /** Number of distinct entries. */
    std::size_t size() const;

    /** Fingerprints of the entries in creation order, from the
     *  @p from-th on. Thread-safe. */
    std::vector<Fingerprint> entries(std::size_t from = 0) const;

  private:
    ParallelExecutor &exec_;
    mutable std::mutex mutex_;
    std::unordered_map<Fingerprint, std::shared_future<RunResult>,
                       FingerprintHash>
        entries_;
    // Keys of entries_ in creation order; map nodes never move, so the
    // pointers stay valid.
    std::vector<const Fingerprint *> created_;
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> hits_{0};
};

} // namespace driver
} // namespace mtp

#endif // MTP_DRIVER_RUN_CACHE_HH
