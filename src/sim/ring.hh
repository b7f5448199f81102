/**
 * @file
 * Ring: a growable ring-buffer FIFO for the simulator's hot queues
 * (flit buffers, switch pipelines, send queues, dispatch queues).
 *
 * std::deque frees a block each time the front crosses a block boundary
 * and allocates a new one each time the back does, so a deque used as a
 * steady FIFO keeps calling the allocator. Ring's storage only ever
 * grows (doubling, to the queue's high-water mark) and is reused from
 * then on.
 */

#ifndef NETCRAFTER_SIM_RING_HH
#define NETCRAFTER_SIM_RING_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "src/sim/logging.hh"

namespace netcrafter::sim {

/** FIFO over a power-of-two circular buffer; T must be default- and
 *  move-constructible. Popped slots are reset to T{}. */
template <typename T>
class Ring
{
  public:
    Ring() = default;

    Ring(const Ring &) = delete;
    Ring &operator=(const Ring &) = delete;

    Ring(Ring &&other) noexcept { *this = std::move(other); }

    Ring &
    operator=(Ring &&other) noexcept
    {
        buf_ = std::move(other.buf_);
        mask_ = other.mask_;
        head_ = other.head_;
        size_ = other.size_;
        other.mask_ = 0;
        other.head_ = 0;
        other.size_ = 0;
        return *this;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p i positions behind the front (0 = front). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &
    front()
    {
        NC_ASSERT(size_ > 0, "front() on empty ring");
        return buf_[head_];
    }
    const T &
    front() const
    {
        NC_ASSERT(size_ > 0, "front() on empty ring");
        return buf_[head_];
    }

    void
    push_back(T value)
    {
        if (size_ == capacity())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    void
    pop_front()
    {
        NC_ASSERT(size_ > 0, "pop_front() on empty ring");
        buf_[head_] = T{};
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Remove element @p i, keeping the others in order. */
    void
    erase(std::size_t i)
    {
        NC_ASSERT(i < size_, "ring erase out of range");
        for (std::size_t j = i; j + 1 < size_; ++j)
            (*this)[j] = std::move((*this)[j + 1]);
        (*this)[size_ - 1] = T{};
        --size_;
    }

  private:
    std::size_t capacity() const { return buf_ ? mask_ + 1 : 0; }

    void
    grow()
    {
        const std::size_t cap = capacity() == 0 ? 8 : 2 * capacity();
        auto bigger = std::make_unique<T[]>(cap);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_ = std::move(bigger);
        mask_ = cap - 1;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_RING_HH
