#include "driver/run_cache.hh"

#include "obs/host_profiler.hh"

namespace mtp {
namespace driver {

std::shared_future<RunResult>
RunCache::submit(const SimConfig &cfg, const KernelDesc &kernel,
                 const obs::ObsConfig &ocfg)
{
    obs::HostScope hostLookup(obs::HostPhase::CacheLookup);
    Fingerprint fp = fingerprint(cfg, kernel);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(fp);
    if (it != entries_.end()) {
        hits_.fetch_add(1);
        return it->second;
    }
    misses_.fetch_add(1);
    // Insert time nests inside the lookup span; the profiler's
    // self-time accounting keeps the two rows disjoint.
    obs::HostScope hostInsert(obs::HostPhase::CacheInsert);
    // The job owns copies: the caller's cfg/kernel/ocfg may die before
    // the worker runs. Observation is attached only here, on the miss
    // (first submission wins); it is read-only and keeps results
    // bit-identical, so cache hits stay valid regardless of ocfg.
    std::shared_future<RunResult> run = exec_.submit(
        [cfg, kernel, ocfg]() { return simulate(cfg, kernel, ocfg); });
    auto pos = entries_.emplace(std::move(fp), run).first;
    created_.push_back(&pos->first);
    return run;
}

std::size_t
RunCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

std::vector<Fingerprint>
RunCache::entries(std::size_t from) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Fingerprint> out;
    for (std::size_t i = from; i < created_.size(); ++i)
        out.push_back(*created_[i]);
    return out;
}

} // namespace driver
} // namespace mtp
