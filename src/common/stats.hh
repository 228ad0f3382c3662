/**
 * @file
 * Lightweight statistics package. Simulation modules keep raw counters as
 * plain members for speed and export them into a StatSet snapshot at the
 * end of a run (or at period boundaries). A StatSet is an append-only
 * list in export order: names are unique within a set, and descriptions
 * are static text. Lookups scan the list, because readers make only a
 * handful per run and the RunCache keeps every run's set, so an index
 * would cost memory for nothing. It dumps as aligned text, CSV or JSON.
 */

#ifndef MTP_COMMON_STATS_HH
#define MTP_COMMON_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace mtp {

/** An ordered list of named scalar statistics. */
class StatSet
{
  public:
    /** One named scalar and its description. */
    struct Entry
    {
        std::string name;
        double value;
        const char *desc; //!< static text, not owned
    };

    /**
     * Append a scalar statistic. The caller adds each name once.
     * @param name dotted hierarchical name, e.g. "core0.mrq.merges"
     * @param value the sample value
     * @param desc one-line human-readable description; static text
     */
    void add(std::string name, double value, const char *desc = "");

    /** @return true iff a statistic with this name exists. */
    bool has(const std::string &name) const;

    /**
     * Look up a statistic by exact name.
     * @return its value; panics if absent (use has() to probe).
     */
    double get(const std::string &name) const;

    /** Look up with a fallback instead of panicking. */
    double getOr(const std::string &name, double fallback) const;

    /**
     * Sum of all statistics whose name matches "<prefix><anything><suffix>".
     * Useful for aggregating per-core stats, e.g.
     * sumMatching("core", ".pref.issued").
     */
    double sumMatching(const std::string &prefix,
                       const std::string &suffix) const;

    /** Append all entries of @p other, whose names this set lacks. */
    void append(const StatSet &other);

    /** All entries in insertion order. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** Number of entries. */
    std::size_t size() const { return entries_.size(); }

    /** Dump as aligned "name value # desc" lines. */
    void dumpText(std::ostream &os) const;

    /**
     * Dump as "name,value,description" CSV with a header row. Fields
     * containing commas, quotes or newlines are quoted RFC 4180 style
     * (embedded quotes doubled).
     */
    void dumpCsv(std::ostream &os) const;

    /** Dump as a JSON object: {"name": {"value": v, "desc": "..."}}. */
    void dumpJson(std::ostream &os) const;

  private:
    std::vector<Entry> entries_;
};

/**
 * Fixed-width linear histogram with under/overflow buckets; tracks
 * count, sum, min and max of all samples.
 */
class Histogram
{
  public:
    /**
     * @param lo lower bound of the first regular bucket
     * @param hi upper bound of the last regular bucket
     * @param nbuckets number of regular buckets between lo and hi
     */
    Histogram(double lo, double hi, unsigned nbuckets);

    /** Record @p count occurrences of value @p v. */
    void sample(double v, std::uint64_t count = 1);

    /** Discard all samples. */
    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }

    /** Number of regular buckets. */
    unsigned buckets() const
    {
        return static_cast<unsigned>(bucketCounts_.size());
    }

    /** Occurrences in regular bucket @p i. */
    std::uint64_t bucketCount(unsigned i) const;

    /** Samples below the first / at-or-above the last bucket bound. */
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Export summary stats (count/mean/min/max) into @p set under
     * "<name>.count" etc.
     */
    void exportTo(StatSet &set, const std::string &name,
                  const char *desc = "") const;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> bucketCounts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace mtp

#endif // MTP_COMMON_STATS_HH
