// Direct unit tests of the memory-mapped register interface: entry
// registration and its validation, group accounting for the top-level
// mux, width masking and sign extension, word accounting across bus
// widths, layout stamps, and the value file's capture semantics.
#include "hw/register_map.hpp"

#include "core/design_config.hpp"
#include "hw/testing_block.hpp"

#include <algorithm>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>
#include <stdexcept>
#include <string>

namespace {

using namespace otf::hw;

register_map small_map()
{
    register_map map;
    map.add_scalar("alpha", 18, true);
    map.add_scalar("beta", 8, false);
    map.add_group_element("bank", "bank[0]", 12, false);
    map.add_group_element("bank", "bank[1]", 12, false);
    map.add_group_element("file", "file[0]", 20, false);
    const std::uint64_t values[] = {0x2FFFF, 0xAB, 0x123, 0xFFF, 0xFFFFF};
    std::copy(std::begin(values), std::end(values), map.values().begin());
    return map;
}

/// `call` throws std::invalid_argument whose message names `name`.
template <typename Call>
void expect_rejected_naming(Call call, const std::string& name)
{
    try {
        call();
        ADD_FAILURE() << "registration of " << name << " was accepted";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
    }
}

TEST(register_map, size_and_lookup)
{
    const register_map map = small_map();
    EXPECT_EQ(map.size(), 5u);
    EXPECT_EQ(map.index_of("beta"), 1u);
    EXPECT_EQ(map.index_of("bank[1]"), 3u);
    EXPECT_THROW((void)map.index_of("gamma"), std::out_of_range);
}

TEST(register_map, group_rules)
{
    register_map map;
    EXPECT_THROW(map.add_group_element("", "x", 8, false),
                 std::invalid_argument);
}

TEST(register_map, registration_rejects_widths_outside_1_to_64)
{
    // A signed width-0 entry would make read_value shift by width - 1.
    register_map map;
    expect_rejected_naming([&] { map.add_scalar("zero", 0, true); },
                           "zero");
    expect_rejected_naming([&] { map.add_scalar("wide", 65, false); },
                           "wide");
    expect_rejected_naming(
        [&] { map.add_group_element("bank", "bank[0]", 0, false); },
        "bank[0]");
    EXPECT_EQ(map.size(), 0u);

    // Both ends of the range are legal; a signed 1-bit value is 0 or -1.
    map.add_scalar("bit", 1, true);
    map.add_scalar("word", 64, false);
    map.values()[0] = 1;
    map.values()[1] = ~std::uint64_t{0};
    EXPECT_EQ(map.read_value("bit"), -1);
    EXPECT_EQ(map.read_raw(map.index_of("word")), ~std::uint64_t{0});
}

TEST(register_map, registration_rejects_a_repeated_name)
{
    // index_of finds the first entry of a name and the software runner
    // reads by index: a second entry of that name could never be read.
    register_map map = small_map();
    const std::uint64_t layout = map.layout();
    expect_rejected_naming([&] { map.add_scalar("beta", 8, false); },
                           "beta");
    expect_rejected_naming(
        [&] { map.add_group_element("bank", "bank[1]", 12, false); },
        "bank[1]");
    expect_rejected_naming(
        [&] { map.add_group_element("other", "alpha", 12, false); },
        "alpha");
    EXPECT_EQ(map.size(), 5u);
    EXPECT_EQ(map.layout(), layout) << "a refused entry changes nothing";
}

TEST(register_map, top_level_inputs_count_groups_once)
{
    const register_map map = small_map();
    // alpha + beta (scalars) + bank + file (groups) = 4 mux inputs.
    EXPECT_EQ(map.top_level_inputs(), 4u);
}

TEST(register_map, max_width_is_the_mux_data_width)
{
    const register_map map = small_map();
    EXPECT_EQ(map.max_width(), 20u);
}

TEST(register_map, raw_reads_mask_to_width)
{
    const register_map map = small_map();
    // alpha is 18 bits wide: the raw view masks 0x2FFFF to 18 bits
    // (0x2FFFF already fits) and beta keeps its byte.
    EXPECT_EQ(map.read_raw(map.index_of("alpha")), 0x2FFFFu);
    EXPECT_EQ(map.read_raw(map.index_of("beta")), 0xABu);

    // Bits above the width never reach the bus.
    register_map wide = small_map();
    wide.values()[1] = 0x3AB;
    EXPECT_EQ(wide.read_raw(1), 0xABu);
}

TEST(register_map, signed_entries_sign_extend_on_read_value)
{
    const register_map map = small_map();
    // 0x2FFFF in 18 bits has the sign bit set: value = 0x2FFFF - 2^18.
    EXPECT_EQ(map.read_value("alpha"),
              static_cast<std::int64_t>(0x2FFFF) - (1 << 18));
    // Unsigned entries pass through.
    EXPECT_EQ(map.read_value("beta"), 0xAB);
}

TEST(register_map, unsigned_full_width_values_survive)
{
    const register_map map = small_map();
    EXPECT_EQ(map.read_value("file[0]"), 0xFFFFF);
}

TEST(register_map, total_words_depends_on_bus_width)
{
    const register_map map = small_map();
    // 16-bit bus: 18b->2 + 8b->1 + 12b->1 + 12b->1 + 20b->2 = 7 words.
    EXPECT_EQ(map.total_words(16), 7u);
    // 32-bit bus: every value fits one word.
    EXPECT_EQ(map.total_words(32), 5u);
}

TEST(register_map, entries_preserve_registration_order)
{
    const register_map map = small_map();
    EXPECT_EQ(map.entry(0).name, "alpha");
    EXPECT_EQ(map.entry(4).name, "file[0]");
    EXPECT_TRUE(map.entry(0).is_signed);
    EXPECT_FALSE(map.entry(1).is_signed);
    EXPECT_EQ(map.entry(2).group, "bank");
    EXPECT_THROW((void)map.entry(9), std::out_of_range);
}

TEST(register_map, values_are_as_of_the_last_capture)
{
    // The map reads what the block captured at its last window close
    // (or, without double buffering, at its last restart), never the
    // live counters.
    using otf::bit_sequence;
    const block_config plain_cfg =
        otf::core::paper_design(7, otf::core::tier::light);
    testing_block plain(plain_cfg);
    const register_map& map = plain.registers();
    EXPECT_EQ(map.read_value("cusum.s_final"), 0) << "fresh: reset values";
    for (unsigned i = 0; i < 64; ++i) {
        plain.feed(true);
    }
    EXPECT_EQ(plain.cusum()->s_final(), 64);
    EXPECT_EQ(map.read_value("cusum.s_final"), 0) << "mid-window";
    for (unsigned i = 0; i < 64; ++i) {
        plain.feed(true);
    }
    plain.finish();
    EXPECT_EQ(map.read_value("cusum.s_final"), 128);
    EXPECT_EQ(map.read_value("runs.n_runs"), 1);
    plain.restart();
    EXPECT_EQ(map.read_value("cusum.s_final"), 0);
    EXPECT_EQ(map.read_value("cusum.s_max"), 0);
    EXPECT_EQ(map.read_value("runs.n_runs"), 0);
    EXPECT_FALSE(plain.latched());

    // Double buffered: the finished window survives the restart and a
    // half-fed next window, until the next window closes.
    block_config buffered_cfg = plain_cfg;
    buffered_cfg.double_buffered = true;
    testing_block buffered(buffered_cfg);
    const register_map& latched = buffered.registers();
    buffered.run(bit_sequence(128, true));
    buffered.restart();
    for (unsigned i = 0; i < 64; ++i) {
        buffered.feed(false);
    }
    EXPECT_TRUE(buffered.latched());
    EXPECT_EQ(latched.read_value("cusum.s_final"), 128);
    EXPECT_EQ(latched.read_value("cusum.s_max"), 128);
    EXPECT_EQ(latched.read_value("runs.n_runs"), 1);
    for (unsigned i = 0; i < 64; ++i) {
        buffered.feed(false);
    }
    buffered.finish();
    EXPECT_EQ(latched.read_value("cusum.s_final"), -128);
    EXPECT_EQ(latched.read_value("cusum.s_min"), -128);
}

TEST(register_map, layout_stamp_changes_with_every_entry_list)
{
    // Two maps built the same way have different stamps: a consumer
    // bound to one must rebind on the other.
    register_map map = small_map();
    EXPECT_NE(map.layout(), small_map().layout());
    EXPECT_NE(map.layout(), register_map{}.layout());

    // A copy has the same entries, hence the same stamp.
    const register_map copy = map;
    EXPECT_EQ(copy.layout(), map.layout());

    // Every added entry renews it.
    std::uint64_t before = map.layout();
    map.add_scalar("gamma", 4, false);
    EXPECT_NE(map.layout(), before);
    before = map.layout();
    map.add_group_element("bank", "bank[2]", 12, false);
    EXPECT_NE(map.layout(), before);
    EXPECT_NE(copy.layout(), map.layout());
}

} // namespace
