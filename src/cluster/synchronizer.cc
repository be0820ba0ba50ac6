#include "cluster/synchronizer.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <exception>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "harness/sweep.h"

namespace checkin {

namespace {

/** How long a waiter spins before it starts yielding: about one
 *  barrier's serial phase, so back-to-back windows hand off without
 *  leaving the core. */
constexpr std::chrono::nanoseconds kSpinBudget{5000};

/** Yields after the spin, before parking in std::atomic::wait. They
 *  let an oversubscribed host (more runnable threads than cores) run
 *  the thread being waited for; a longer spin starves it instead. */
constexpr int kYieldBudget = 64;

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    _mm_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Wait until @p done holds for the value of @p a, and return that
 * value: spin for kSpinBudget, then yield up to kYieldBudget times,
 * then park in std::atomic::wait. Every load is an acquire, pairing
 * with the writer's release.
 */
template <typename Done>
std::uint32_t
await(const std::atomic<std::uint32_t> &a, Done done)
{
    std::uint32_t v = a.load(std::memory_order_acquire);
    if (done(v))
        return v;
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned i = 1;; ++i) {
        cpuRelax();
        v = a.load(std::memory_order_acquire);
        if (done(v))
            return v;
        if (i % 8 == 0 && std::chrono::steady_clock::now() >= deadline)
            break;
    }
    for (int i = 0; i < kYieldBudget; ++i) {
        std::this_thread::yield();
        v = a.load(std::memory_order_acquire);
        if (done(v))
            return v;
    }
    while (!done(v)) {
        a.wait(v, std::memory_order_acquire);
        v = a.load(std::memory_order_acquire);
    }
    return v;
}

/** Run @p node's events due up to @p limit under its own context. */
void
advance(ClusterNode &node, Tick limit)
{
    EventQueue &events = node.ctx().events();
    if (events.nextEventTick() > limit)
        return;
    // Install the node's context (and with it the node's
    // tracer/attribution sinks) on this thread for the window.
    SimContextScope scope(node.ctx());
    events.runUntil(limit);
}

/**
 * Window executor with pinned node ownership.
 *
 * Thread t of T (t = 0 is the calling thread) owns node i iff
 * i mod T == t for the whole run, so a shard's queue, engine and
 * device state stay in one core's cache and the router (node 0)
 * stays on the calling thread. Per window the calling thread stores
 * the limit, resets the arrival counter and bumps the generation
 * (release); each worker sees the new generation (acquire), advances
 * its nodes and arrives (release). The calling thread advances its
 * own nodes, then waits for every arrival (acquire) before it touches
 * node state again at the barrier. A node is therefore only ever
 * touched by one thread at a time (verified under TSan in CI).
 */
class WindowPool
{
  public:
    WindowPool(const std::vector<ClusterNode *> &nodes, unsigned threads)
        : nodes_(nodes), stride_(threads), workers_(threads - 1),
          errors_(threads)
    {
        threads_.reserve(workers_);
        try {
            for (unsigned t = 1; t < threads; ++t)
                threads_.emplace_back([this, t] { workerLoop(t); });
        } catch (...) {
            stop(); // a thread failed to start: join the others
            throw;
        }
    }

    ~WindowPool() { stop(); }

    WindowPool(const WindowPool &) = delete;
    WindowPool &operator=(const WindowPool &) = delete;

    /** Advance every node to @p limit; returns once all threads are
     *  done with the window. Rethrows a worker's exception. */
    void
    runWindow(Tick limit)
    {
        limit_ = limit;
        arrived_.store(0, std::memory_order_relaxed);
        publish();
        runOwned(0);
        await(arrived_, [this](std::uint32_t n) { return n == workers_; });
        for (const std::exception_ptr &e : errors_) {
            if (e)
                std::rethrow_exception(e);
        }
    }

  private:
    /** Workers still inside a window (the calling thread threw)
     *  finish it first: they read quit_ only at a new generation. */
    void
    stop()
    {
        quit_ = true;
        publish();
        for (std::thread &t : threads_)
            t.join();
    }

    void
    publish()
    {
        generation_.fetch_add(1, std::memory_order_release);
        generation_.notify_all();
    }

    void
    runOwned(unsigned t)
    {
        for (std::size_t i = t; i < nodes_.size(); i += stride_)
            advance(*nodes_[i], limit_);
    }

    void
    workerLoop(unsigned t)
    {
        std::uint32_t seen = 0;
        for (;;) {
            seen = await(generation_,
                         [seen](std::uint32_t g) { return g != seen; });
            if (quit_)
                return;
            try {
                runOwned(t);
            } catch (...) {
                errors_[t] = std::current_exception();
            }
            if (arrived_.fetch_add(1, std::memory_order_release) + 1 ==
                workers_)
                arrived_.notify_one();
        }
    }

    const std::vector<ClusterNode *> &nodes_;
    const unsigned stride_;
    const std::uint32_t workers_;
    /** Written by the calling thread, read after a new generation. */
    alignas(64) std::atomic<std::uint32_t> generation_{0};
    Tick limit_ = 0;
    bool quit_ = false;
    /** Written by workers; on its own line so that arrivals do not
     *  disturb threads spinning on the generation. */
    alignas(64) std::atomic<std::uint32_t> arrived_{0};
    /** Slot t holds worker t's exception, if its window threw. */
    std::vector<std::exception_ptr> errors_;
    std::vector<std::thread> threads_;
};

} // namespace

SyncStats
runWindows(const std::vector<ClusterNode *> &nodes, Tick lookahead,
           unsigned threads, const std::function<bool()> &done)
{
    assert(lookahead > 0 && "conservative sync needs lookahead");
    SyncStats st;
    if (nodes.empty())
        return st;

    const unsigned jobs = std::min<unsigned>(
        std::max(1u, threads == 0 ? resolveJobs(0) : threads),
        static_cast<unsigned>(nodes.size()));
    WindowPool pool(nodes, jobs);

    Tick last_limit = 0;
    for (;;) {
        // Barrier: deliver every message sent during the previous
        // window, in canonical (source node, send order) order.
        for (ClusterNode *src : nodes) {
            for (const Message &m : src->outbox()) {
                assert(m.deliverTick > last_limit &&
                       "message faster than the lookahead");
                assert(m.dst < nodes.size());
                nodes[m.dst]->deliver(m);
                ++st.messages;
            }
            src->outbox().clear();
        }

        if (done())
            break;

        // Open the next window at the earliest pending event; the
        // cluster skips idle stretches wholesale.
        Tick window_start = kInvalidTick;
        for (ClusterNode *node : nodes) {
            window_start = std::min(
                window_start, node->ctx().events().nextEventTick());
        }
        if (window_start == kInvalidTick)
            break; // fully idle and not done: nothing can progress
        const Tick limit = window_start + lookahead - 1;

        pool.runWindow(limit);
        last_limit = limit;
        ++st.windows;
    }
    return st;
}

void
parallelFor(std::size_t count, unsigned threads,
            const std::function<void(std::size_t)> &fn)
{
    const unsigned jobs = std::min<unsigned>(
        std::max(1u, threads == 0 ? resolveJobs(0) : threads),
        count == 0 ? 1u : static_cast<unsigned>(count));
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) <
             count;) {
            fn(i);
        }
    };
    std::vector<std::thread> workers;
    workers.reserve(jobs - 1);
    for (unsigned t = 0; t + 1 < jobs; ++t)
        workers.emplace_back(work);
    work();
    for (std::thread &t : workers)
        t.join();
}

} // namespace checkin
