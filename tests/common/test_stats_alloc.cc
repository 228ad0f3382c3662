/**
 * @file
 * Counts heap allocations while a StatSet is filled. Its own executable,
 * because it replaces the global operator new for the whole program.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace {

std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

// A sanitizer runtime defines the sized delete too; its own would free
// this file's malloc'd blocks as operator new memory.
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace mtp {
namespace {

/**
 * add() moves the name in and points at the description, so filling a
 * set allocates only for the list's growth steps, not per entry.
 */
TEST(StatSetAlloc, AddAllocatesOnlyToGrowTheList)
{
    constexpr std::size_t n = 1024;
    std::vector<std::string> names;
    names.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        names.push_back("core" + std::to_string(i % 20) + ".warp" +
                        std::to_string(i) + ".issuedCycles");
    ASSERT_GT(names.front().size(), 15u); // beyond the small-string buffer

    StatSet s;
    std::size_t before = allocations.load();
    for (std::size_t i = 0; i < n; ++i)
        s.add(std::move(names[i]), static_cast<double>(i),
              "cycles this warp slot issued");
    std::size_t made = allocations.load() - before;

    EXPECT_LE(made, 16u);
    ASSERT_EQ(s.size(), n);
    EXPECT_EQ(s.entries().back().name, "core3.warp1023.issuedCycles");
    EXPECT_STREQ(s.entries().back().desc, "cycles this warp slot issued");
}

} // namespace
} // namespace mtp
