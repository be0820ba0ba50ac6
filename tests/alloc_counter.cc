/**
 * @file
 * Counting replacements of the global operator new/delete for the
 * allocation-budget tests (test_alloc_budget.cc) and bench_kernel.
 * They live in their own translation unit so that no caller sees them
 * inline.
 */

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

} // namespace

namespace checkin {

std::uint64_t
allocCount()
{
    return g_allocs.load(std::memory_order_relaxed);
}

} // namespace checkin

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
