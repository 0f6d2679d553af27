// Lock-free bounded multi-producer queue of trivially-copyable events.
//
// The queue carries serialized telemetry records from the supervision
// hot path to the single WAL writer thread (core/telemetry_log.hpp), so
// logging never blocks a producer on I/O.
//
// The algorithm is the classic bounded MPMC queue (Vyukov): every cell
// carries a sequence number that encodes which lap of the ring may write
// or read it, so producers claim slots with one fetch-free CAS on the
// enqueue cursor and never touch a lock.  The implementation is fully
// MPMC-capable; the telemetry log uses it MPSC (one writer).
//
// Protocol:
//   * any number of threads may call try_push();
//   * any number of threads may call try_pop() (one, in practice);
//   * the *owner* calls close() after every producer has quiesced;
//     consumers drain until drained() -- closed and empty.
//
// Capacity is rounded up to a power of two, with a floor of two cells:
// the lap protocol needs the "data pending at pos" stamp (pos + 1) and
// the "free for pos + capacity" stamp to be distinct numbers, and with a
// single cell they collide -- a producer on the next lap could claim the
// cell a consumer is still draining, and the consumer's deferred seq
// store would then wedge both sides.  Telemetry counters (stalls,
// high-water occupancy) are monotonic and exact once all sides quiesce.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>

namespace otf::base {

template <class T>
class event_queue {
    static_assert(std::is_trivially_copyable_v<T>,
                  "event_queue carries raw records between threads; the "
                  "payload must be trivially copyable");

public:
    /// \brief Build a queue holding at least `min_capacity` events.
    /// \param min_capacity requested capacity (>= 1); rounded up to the
    ///        next power of two, with a floor of 2 (see the header note)
    /// \throws std::invalid_argument on a zero capacity
    explicit event_queue(std::size_t min_capacity)
    {
        if (min_capacity == 0) {
            throw std::invalid_argument(
                "event_queue: capacity must be at least 1 event");
        }
        std::size_t cap = 2;
        while (cap < min_capacity) {
            cap <<= 1;
        }
        cells_ = std::make_unique<cell[]>(cap);
        mask_ = cap - 1;
        for (std::size_t i = 0; i < cap; ++i) {
            cells_[i].seq.store(i, std::memory_order_relaxed);
        }
    }

    std::size_t capacity() const { return mask_ + 1; }

    /// \brief Enqueue one event (any producer thread).
    /// \return false when the queue is full (counted as one push stall);
    /// the producer should back off and retry
    bool try_push(const T& value)
    {
        std::uint64_t pos = tail_.load(std::memory_order_relaxed);
        for (;;) {
            cell& c = cells_[static_cast<std::size_t>(pos) & mask_];
            const std::uint64_t seq = c.seq.load(std::memory_order_acquire);
            const std::int64_t lap = static_cast<std::int64_t>(seq)
                - static_cast<std::int64_t>(pos);
            if (lap == 0) {
                // The cell is free on this lap; claim it by advancing the
                // enqueue cursor, then publish the payload via seq.
                if (tail_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    c.value = value;
                    c.seq.store(pos + 1, std::memory_order_release);
                    note_occupancy(pos + 1);
                    return true;
                }
            } else if (lap < 0) {
                // The consumer has not freed this cell since the previous
                // lap: the queue is full.
                push_stalls_.fetch_add(1, std::memory_order_relaxed);
                return false;
            } else {
                pos = tail_.load(std::memory_order_relaxed);
            }
        }
    }

    /// \brief Dequeue one event.
    /// \return false when the queue is empty (counted as one pop stall)
    bool try_pop(T& out)
    {
        std::uint64_t pos = head_.load(std::memory_order_relaxed);
        for (;;) {
            cell& c = cells_[static_cast<std::size_t>(pos) & mask_];
            const std::uint64_t seq = c.seq.load(std::memory_order_acquire);
            const std::int64_t lap = static_cast<std::int64_t>(seq)
                - static_cast<std::int64_t>(pos + 1);
            if (lap == 0) {
                if (head_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    out = c.value;
                    // Free the cell for the producers' next lap.
                    c.seq.store(pos + mask_ + 1,
                                std::memory_order_release);
                    return true;
                }
            } else if (lap < 0) {
                pop_stalls_.fetch_add(1, std::memory_order_relaxed);
                return false;
            } else {
                pos = head_.load(std::memory_order_relaxed);
            }
        }
    }

    /// \brief End of stream: no further pushes will arrive.  Call only
    /// after every producer has quiesced (e.g. after joining the shard
    /// threads); consumers drain what is buffered and observe drained().
    void close() { closed_.store(true, std::memory_order_release); }

    bool closed() const { return closed_.load(std::memory_order_acquire); }

    /// \brief True once the queue is closed *and* every pushed event has
    /// been popped.
    bool drained() const
    {
        if (!closed_.load(std::memory_order_acquire)) {
            return false;
        }
        return head_.load(std::memory_order_acquire)
            == tail_.load(std::memory_order_acquire);
    }

    // ---------------------------------------------------------------
    // Telemetry (any thread; exact after all sides quiesce).
    // ---------------------------------------------------------------

    std::uint64_t total_pushed() const
    {
        return tail_.load(std::memory_order_acquire);
    }
    std::uint64_t total_popped() const
    {
        return head_.load(std::memory_order_acquire);
    }
    /// try_push calls rejected because the queue was full.
    std::uint64_t push_stalls() const
    {
        return push_stalls_.load(std::memory_order_relaxed);
    }
    /// try_pop calls rejected because the queue was empty.
    std::uint64_t pop_stalls() const
    {
        return pop_stalls_.load(std::memory_order_relaxed);
    }
    /// Approximate high-water occupancy (events).  Sampled with relaxed
    /// cursor reads, so it may over- or under-shoot by in-flight events;
    /// good enough to answer "did the consumer keep up".
    std::size_t max_occupancy() const
    {
        return max_occupancy_.load(std::memory_order_relaxed);
    }

private:
    struct cell {
        std::atomic<std::uint64_t> seq{0};
        T value{};
    };

    void note_occupancy(std::uint64_t tail_after)
    {
        // The consumer may already have popped past tail_after by the
        // time head is read; that sample is an empty queue, not a wrap.
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        const std::size_t occ = tail_after > head
            ? static_cast<std::size_t>(tail_after - head)
            : 0;
        std::size_t seen = max_occupancy_.load(std::memory_order_relaxed);
        while (occ > seen
               && !max_occupancy_.compare_exchange_weak(
                   seen, occ, std::memory_order_relaxed)) {
        }
    }

    std::unique_ptr<cell[]> cells_;
    std::size_t mask_ = 0;
    /// Enqueue cursor plus producer-side telemetry on one line; the
    /// dequeue cursor on its own -- same layout discipline as the word
    /// ring (writers never share a line).
    alignas(64) std::atomic<std::uint64_t> tail_{0};
    std::atomic<std::uint64_t> push_stalls_{0};
    std::atomic<std::size_t> max_occupancy_{0};
    alignas(64) std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> pop_stalls_{0};
    alignas(64) std::atomic<bool> closed_{false};
};

} // namespace otf::base
