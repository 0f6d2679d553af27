// Tests of the lock-free bounded MPMC event queue behind the WAL writer
// thread: FIFO order, full/empty rejection with stall counters, index
// wraparound, the close/drained end-of-stream protocol, and a
// multi-producer stress run checking per-producer order survives
// contention.
#include "base/event_queue.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

using otf::base::event_queue;

struct event {
    std::uint32_t producer = 0;
    std::uint64_t seq = 0;
};

TEST(event_queue, capacity_rounds_up_to_power_of_two)
{
    // Floor of 2: the lap protocol cannot tell "pending" from "free on
    // the next lap" with a single cell.
    EXPECT_EQ(event_queue<event>(1).capacity(), 2u);
    EXPECT_EQ(event_queue<event>(2).capacity(), 2u);
    EXPECT_EQ(event_queue<event>(5).capacity(), 8u);
    EXPECT_EQ(event_queue<event>(1024).capacity(), 1024u);
    EXPECT_THROW(event_queue<event>(0), std::invalid_argument);
}

TEST(event_queue, fifo_order_single_threaded)
{
    event_queue<event> q(8);
    for (std::uint64_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.try_push({0, i}));
    }
    event e;
    for (std::uint64_t i = 0; i < 8; ++i) {
        ASSERT_TRUE(q.try_pop(e));
        EXPECT_EQ(e.seq, i);
    }
    EXPECT_FALSE(q.try_pop(e)) << "empty queue must reject pops";
}

TEST(event_queue, full_and_empty_rejections_are_counted)
{
    event_queue<event> q(2);
    EXPECT_TRUE(q.try_push({0, 0}));
    EXPECT_TRUE(q.try_push({0, 1}));
    EXPECT_FALSE(q.try_push({0, 2})) << "full queue must reject pushes";
    EXPECT_FALSE(q.try_push({0, 3}));
    EXPECT_EQ(q.push_stalls(), 2u);
    event e;
    EXPECT_TRUE(q.try_pop(e));
    EXPECT_TRUE(q.try_pop(e));
    EXPECT_FALSE(q.try_pop(e));
    EXPECT_EQ(q.pop_stalls(), 1u);
    EXPECT_EQ(q.total_pushed(), 2u);
    EXPECT_EQ(q.total_popped(), 2u);
}

TEST(event_queue, wraparound_many_laps)
{
    // A small queue cycled far past its capacity: the per-cell lap
    // sequencing must keep values intact across every wrap.
    event_queue<event> q(4);
    event e;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        ASSERT_TRUE(q.try_push({0, i}));
        ASSERT_TRUE(q.try_pop(e));
        EXPECT_EQ(e.seq, i);
    }
    EXPECT_EQ(q.total_pushed(), 1000u);
    EXPECT_LE(q.max_occupancy(), q.capacity());
}

TEST(event_queue, close_then_drain)
{
    event_queue<event> q(4);
    EXPECT_FALSE(q.closed());
    EXPECT_FALSE(q.drained()) << "an open queue is never drained";
    ASSERT_TRUE(q.try_push({0, 7}));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.drained()) << "closed but still holding an event";
    event e;
    ASSERT_TRUE(q.try_pop(e));
    EXPECT_EQ(e.seq, 7u);
    EXPECT_TRUE(q.drained()) << "closed and empty";
}

TEST(event_queue, minimum_capacity_survives_contention)
{
    // Regression: a single-cell queue wedged -- the consumer's deferred
    // seq release collided with a producer's next-lap claim.  At the
    // two-cell floor the stamps stay distinct, so a saturated queue must
    // keep making progress.
    event_queue<event> q(1);
    ASSERT_EQ(q.capacity(), 2u);
    std::uint64_t sum = 0;
    std::thread consumer([&] {
        event e;
        for (;;) {
            if (!q.try_pop(e)) {
                if (q.drained()) {
                    return;
                }
                std::this_thread::yield();
                continue;
            }
            sum += e.seq;
        }
    });
    constexpr std::uint64_t kEach = 2000;
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (std::uint64_t i = 1; i <= kEach; ++i) {
                while (!q.try_push({p, i})) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread& t : producers) {
        t.join();
    }
    q.close();
    consumer.join();
    EXPECT_EQ(sum, 2 * kEach * (kEach + 1) / 2);
    EXPECT_EQ(q.total_popped(), 2 * kEach);
}

TEST(event_queue, multi_producer_preserves_per_producer_order)
{
    // The telemetry log's shape: many producers pushing, one writer
    // popping.  Producers contend for slots, so global
    // order is unspecified -- but each producer's own events must arrive
    // in the order it pushed them, exactly once.
    constexpr unsigned kProducers = 4;
    constexpr std::uint64_t kPerProducer = 5000;
    event_queue<event> q(64);

    std::vector<std::vector<std::uint64_t>> seen(kProducers);
    std::thread consumer([&] {
        event e;
        for (;;) {
            if (!q.try_pop(e)) {
                if (q.drained()) {
                    return;
                }
                std::this_thread::yield();
                continue;
            }
            seen[e.producer].push_back(e.seq);
        }
    });
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (std::uint64_t i = 0; i < kPerProducer; ++i) {
                while (!q.try_push({p, i})) {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (std::thread& t : producers) {
        t.join();
    }
    q.close();
    consumer.join();

    for (unsigned p = 0; p < kProducers; ++p) {
        ASSERT_EQ(seen[p].size(), kPerProducer)
            << "producer " << p << " lost or duplicated events";
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
            ASSERT_EQ(seen[p][i], i)
                << "producer " << p << " events reordered at " << i;
        }
    }
    EXPECT_EQ(q.total_pushed(), kProducers * kPerProducer);
    EXPECT_EQ(q.total_popped(), kProducers * kPerProducer);
    EXPECT_LE(q.max_occupancy(), q.capacity());
    EXPECT_TRUE(q.drained());
}

} // namespace
