/**
 * @file
 * Ring<T>: a FIFO on a power-of-two buffer that doubles only when the
 * backlog exceeds its previous high-water mark. Once it has warmed up,
 * pushes and pops touch recycled storage and allocate nothing, so
 * growthEvents() stops moving in steady state.
 */
#pragma once

#include <cstddef>
#include <vector>

#include "core/logging.h"

namespace sov {

template <typename T>
class Ring
{
  public:
    bool empty() const { return count_ == 0; }
    std::size_t size() const { return count_; }

    const T &front() const { return buf_[head_]; }

    void
    push(const T &value)
    {
        if (count_ == buf_.size())
            grow();
        buf_[(head_ + count_) & (buf_.size() - 1)] = value;
        ++count_;
    }

    void
    pop()
    {
        SOV_ASSERT(count_ > 0);
        head_ = (head_ + 1) & (buf_.size() - 1);
        --count_;
    }

    /** Remove the entries @p drop(index, entry) selects, keeping the
     *  order of the rest. */
    template <typename Drop>
    void
    removeIf(Drop drop)
    {
        const std::size_t mask = buf_.size() - 1;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count_; ++i) {
            const T value = buf_[(head_ + i) & mask];
            if (drop(i, value))
                continue;
            buf_[(head_ + kept) & mask] = value;
            ++kept;
        }
        count_ = kept;
    }

    /** Buffer doublings since construction. */
    std::size_t growthEvents() const { return growth_; }

  private:
    void
    grow()
    {
        const std::size_t old_cap = buf_.size();
        std::vector<T> next(old_cap ? old_cap * 2 : 8);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = buf_[(head_ + i) & (old_cap - 1)];
        buf_ = std::move(next);
        head_ = 0;
        ++growth_;
    }

    std::vector<T> buf_; //!< power-of-two capacity
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t growth_ = 0;
};

} // namespace sov
