// Heap allocations of the window close: once the software pass is bound to
// the block's register layout (the first window), every later window of
// every paper design allocates nothing -- on the span and per-bit lanes,
// with and without the result latch, through test_packed and through
// feed_packed + finish_packed.  The paper's MCU returns a fixed set of
// numbers per window; so does the model.
//
// This binary replaces the global operator new/delete with forwards to
// malloc/free that count the allocations of an armed thread, so it stays
// a binary of its own: the replacement reaches no other test.
#include "core/critical_values.hpp"
#include "core/design_config.hpp"
#include "core/monitor.hpp"
#include "trng/sources.hpp"

#include "support/fixed_seed.hpp"

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <string>
#include <vector>

namespace {

thread_local bool armed = false;
thread_local std::size_t allocations = 0;

void* counted_alloc(std::size_t size)
{
    if (armed) {
        ++allocations;
    }
    if (void* p = std::malloc(size == 0 ? 1 : size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace otf;

/// Heap allocations `f` makes on this thread.
template <typename F>
std::size_t allocations_during(F&& f)
{
    allocations = 0;
    armed = true;
    f();
    armed = false;
    return allocations;
}

TEST(window_allocations, the_counter_sees_a_heap_allocation)
{
    EXPECT_EQ(allocations_during([] { std::vector<int> v(3); }), 1u);
    EXPECT_EQ(allocations_during([] {}), 0u);
}

class window_allocations
    : public ::testing::TestWithParam<hw::block_config> {};

TEST_P(window_allocations, windows_after_the_binding_one_allocate_nothing)
{
    constexpr std::size_t kWindows = 3; // the binding window, then two
    const hw::block_config design = GetParam();
    const core::critical_values cv =
        core::compute_critical_values(design, 0.01);
    const std::size_t nwords = design.n() / 64;
    trng::ideal_source src(test::fixture_seed(90));
    const std::vector<std::uint64_t> words =
        src.generate_words(kWindows * nwords);

    for (const bool double_buffered : {false, true}) {
        for (const core::ingest_lane lane :
             {core::ingest_lane::span, core::ingest_lane::per_bit}) {
            for (const bool incremental : {false, true}) {
                hw::block_config cfg = design;
                cfg.double_buffered = double_buffered;
                core::monitor mon(cfg, cv);
                // One window: whole through test_packed, or in two spans
                // through feed_packed and closed by finish_packed.
                const auto test_window = [&](std::size_t w) {
                    const std::uint64_t* window = words.data() + w * nwords;
                    if (!incremental) {
                        return mon.test_packed(window, nwords, lane);
                    }
                    const std::size_t half = nwords / 2;
                    mon.feed_packed(window, half, lane);
                    mon.feed_packed(window + half, nwords - half, lane);
                    return mon.finish_packed();
                };
                const std::string context = cfg.name
                    + (double_buffered ? " double-buffered" : "")
                    + (lane == core::ingest_lane::span ? " span" : " per-bit")
                    + (incremental ? " feed_packed+finish_packed"
                                   : " test_packed");

                test_window(0); // binds the pass to the register layout
                for (std::size_t w = 1; w < kWindows; ++w) {
                    std::size_t verdicts = 0;
                    const std::size_t allocated = allocations_during([&] {
                        verdicts = test_window(w).software.verdicts.size();
                    });
                    EXPECT_EQ(allocated, 0u)
                        << context << ", window " << w;
                    EXPECT_EQ(verdicts, cfg.tests.count()) << context;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    all_paper_designs, window_allocations,
    ::testing::ValuesIn(core::all_paper_designs()),
    [](const ::testing::TestParamInfo<hw::block_config>& info) {
        std::string name = info.param.name;
        for (char& c : name) {
            if (c == '=' || c == ' ') {
                c = '_';
            }
        }
        return name;
    });

} // namespace
