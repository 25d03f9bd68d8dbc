/**
 * @file
 * Fixed-capacity FIFO ring for the processor's in-order windows (the
 * ROB and the fetch queue).
 *
 * The windows hold a few dozen large entries and are bounded by a
 * configured size that the pipeline checks before every push.  A
 * std::deque fits only three such entries per node and allocates on
 * every third push; this ring allocates once, at construction, and
 * indexes with a mask.
 */

#ifndef MCD_SIM_RING_HH
#define MCD_SIM_RING_HH

#include <cassert>
#include <cstddef>
#include <vector>

namespace mcd::sim
{

/** FIFO of at most `capacity` elements over a power-of-two array. */
template <class T>
class Ring
{
  public:
    /** @param capacity most elements ever held at once (>= 1) */
    explicit Ring(std::size_t capacity)
    {
        std::size_t n = 1;
        while (n < capacity)
            n *= 2;
        slots.resize(n);
        mask = n - 1;
    }

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    T &front() { return slots[head]; }

    /** The @p i-th element from the front (i < size()). */
    T &operator[](std::size_t i) { return slots[(head + i) & mask]; }

    void
    push_back(const T &v)
    {
        assert(count < slots.size() && "Ring over capacity");
        slots[(head + count) & mask] = v;
        ++count;
    }

    void
    pop_front()
    {
        head = (head + 1) & mask;
        --count;
    }

  private:
    std::vector<T> slots;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace mcd::sim

#endif // MCD_SIM_RING_HH
