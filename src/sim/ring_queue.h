/**
 * @file
 * FIFO over a growable ring buffer.
 *
 * std::deque allocates and frees a block every few hundred bytes of
 * throughput, so a queue that is pushed and popped once per simulated
 * op allocates in steady state. This ring only allocates when it
 * grows past its largest size so far.
 */

#ifndef CHECKIN_SIM_RING_QUEUE_H_
#define CHECKIN_SIM_RING_QUEUE_H_

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace checkin {

/** FIFO of default-constructible, move-assignable @p T. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** The @p i-th element from the front. */
    T &
    operator[](std::size_t i)
    {
        assert(i < size_);
        return slots_[(head_ + i) & mask()];
    }

    T &front() { return (*this)[0]; }

    void
    push_back(T value)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_) & mask()] = std::move(value);
        ++size_;
    }

    /** Drop the front element (its slot is reset to T{}). */
    void
    pop_front()
    {
        assert(size_ > 0);
        slots_[head_] = T{};
        head_ = (head_ + 1) & mask();
        --size_;
    }

  private:
    /** The capacity is a power of two. */
    std::size_t mask() const { return slots_.size() - 1; }

    void
    grow()
    {
        std::vector<T> next(slots_.empty() ? 16 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move((*this)[i]);
        slots_.swap(next);
        head_ = 0;
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace checkin

#endif // CHECKIN_SIM_RING_QUEUE_H_
