/**
 * @file
 * Small bit-manipulation helpers used across the simulator.
 */

#ifndef MTP_COMMON_BITUTILS_HH
#define MTP_COMMON_BITUTILS_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace mtp {

/** @return true iff @p v is a (non-zero) power of two. */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** @return floor(log2(v)); v must be non-zero. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** @return ceil(log2(v)); v must be non-zero. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOf2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Align @p v down to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignDown(std::uint64_t v, std::uint64_t align)
{
    return v & ~(align - 1);
}

/** Align @p v up to a multiple of @p align (power of two). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Extract bits [first, first+count) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned first, unsigned count)
{
    return (v >> first) & ((count >= 64) ? ~0ULL : ((1ULL << count) - 1));
}

/**
 * Stateless 64-bit mixing function (splitmix64 finalizer). Used to derive
 * pseudo-random but deterministic address scatter in synthetic workloads.
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * A fixed-size dynamic bitset tuned for the simulator's incremental
 * scheduling state: membership sets over warp or block-slot indices
 * where the common operations are single-bit updates and "first set
 * bit at or after i" scans (used for index-ordered iteration, which
 * must match a naive ascending loop bit for bit).
 */
class DynBitset
{
  public:
    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

    DynBitset() = default;

    /** Size to @p bits entries, all cleared. */
    explicit DynBitset(std::size_t bits) { resize(bits); }

    /** Resize to @p bits entries, clearing every bit. */
    void
    resize(std::size_t bits)
    {
        bits_ = bits;
        words_.assign((bits + 63) / 64, 0);
    }

    std::size_t size() const { return bits_; }

    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void set(std::size_t i) { words_[i >> 6] |= 1ULL << (i & 63); }
    void clear(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

    void
    assign(std::size_t i, bool v)
    {
        if (v)
            set(i);
        else
            clear(i);
    }

    /** @return true iff any bit is set. */
    bool
    any() const
    {
        for (auto w : words_) {
            if (w)
                return true;
        }
        return false;
    }

    /** Number of set bits. */
    std::size_t
    count() const
    {
        std::size_t n = 0;
        for (auto w : words_)
            n += static_cast<std::size_t>(std::popcount(w));
        return n;
    }

    /** Index of the first set bit >= @p from, or npos. */
    std::size_t
    findNextSet(std::size_t from) const
    {
        if (from >= bits_)
            return npos;
        std::size_t w = from >> 6;
        std::uint64_t word = words_[w] & (~0ULL << (from & 63));
        while (true) {
            if (word)
                return (w << 6) +
                       static_cast<std::size_t>(std::countr_zero(word));
            if (++w >= words_.size())
                return npos;
            word = words_[w];
        }
    }

    /**
     * Invoke @p fn(baseIndex, word) for every non-zero 64-bit word, in
     * ascending order; bit b of @p word is entry baseIndex + b. The
     * word is passed by value, so clearing visited bits during the
     * scan does not perturb the iteration.
     */
    template <typename Fn>
    void
    forEachSetWord(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            if (words_[w])
                fn(w << 6, words_[w]);
        }
    }

    /**
     * Invoke @p fn(index) for every set bit in ascending order — the
     * word-at-a-time equivalent of a naive test() loop, visiting the
     * same indices in the same order. A bool-returning @p fn stops the
     * scan by returning false (forEachSet then returns false); a void
     * @p fn visits every set bit. Clearing the bit under the cursor
     * (e.g. while retiring) is safe: each word is scanned from a copy.
     */
    template <typename Fn>
    bool
    forEachSet(Fn &&fn) const
    {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t word = words_[w];
            while (word) {
                std::size_t i =
                    (w << 6) +
                    static_cast<std::size_t>(std::countr_zero(word));
                word &= word - 1;
                if constexpr (std::is_void_v<
                                  std::invoke_result_t<Fn, std::size_t>>) {
                    fn(i);
                } else {
                    if (!fn(i))
                        return false;
                }
            }
        }
        return true;
    }

  private:
    std::size_t bits_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace mtp

#endif // MTP_COMMON_BITUTILS_HH
