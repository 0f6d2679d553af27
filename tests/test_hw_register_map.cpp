// Direct unit tests of the memory-mapped register interface: entry
// registration, group accounting for the top-level mux, width masking and
// sign extension, word accounting across bus widths, layout stamps.
#include "hw/register_map.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <stdexcept>

namespace {

using namespace otf::hw;

register_map small_map()
{
    register_map map;
    map.add_scalar("alpha", 18, true, [] { return 0x2FFFFu; });
    map.add_scalar("beta", 8, false, [] { return 0xABu; });
    map.add_group_element("bank", "bank[0]", 12, false,
                          [] { return 0x123u; });
    map.add_group_element("bank", "bank[1]", 12, false,
                          [] { return 0xFFFu; });
    map.add_group_element("file", "file[0]", 20, false,
                          [] { return 0xFFFFFu; });
    return map;
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
    EXPECT_THROW(map.add_group_element("", "x", 8, false,
                                       [] { return 0u; }),
                 std::invalid_argument);
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

TEST(register_map, getters_are_live_views)
{
    // The map must reflect the current hardware state on every read, not
    // a snapshot taken at registration.
    std::uint64_t counter = 0;
    register_map map;
    map.add_scalar("live", 16, false, [&counter] { return counter; });
    EXPECT_EQ(map.read_value("live"), 0);
    counter = 77;
    EXPECT_EQ(map.read_value("live"), 77);
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

    // Every added entry renews it; a control register does not touch the
    // result plane.
    std::uint64_t before = map.layout();
    map.add_scalar("gamma", 4, false, [] { return 1u; });
    EXPECT_NE(map.layout(), before);
    before = map.layout();
    map.add_group_element("bank", "bank[2]", 12, false, [] { return 2u; });
    EXPECT_NE(map.layout(), before);
    before = map.layout();
    map.add_control(
        "cfg.y", 4, [] { return std::uint64_t{0}; }, [](std::uint64_t) {});
    EXPECT_EQ(map.layout(), before);
    EXPECT_NE(copy.layout(), map.layout());
}

// ----------------------------------------------------- control plane --

TEST(control_plane, write_and_read_back)
{
    std::uint64_t staged = 3;
    register_map map;
    map.add_control(
        "cfg.x", 8, [&staged] { return staged; },
        [&staged](std::uint64_t v) { staged = v; });
    EXPECT_EQ(map.control_count(), 1u);
    EXPECT_EQ(map.read_control("cfg.x"), 3u);
    map.write_control("cfg.x", 42);
    EXPECT_EQ(staged, 42u);
    EXPECT_EQ(map.read_control(0), 42u);
}

TEST(control_plane, writes_mask_to_width)
{
    std::uint64_t staged = 0;
    register_map map;
    map.add_control(
        "cfg.narrow", 4, [&staged] { return staged; },
        [&staged](std::uint64_t v) { staged = v; });
    map.write_control("cfg.narrow", 0x1FF);
    EXPECT_EQ(staged, 0xFu) << "a 4-bit register keeps 4 bits";
    staged = 0x7C;
    EXPECT_EQ(map.read_control("cfg.narrow"), 0xCu)
        << "reads mask too (the bus only carries width bits)";
}

TEST(control_plane, unknown_name_throws)
{
    register_map map;
    EXPECT_THROW(map.write_control("cfg.ghost", 1), std::out_of_range);
    EXPECT_THROW((void)map.read_control("cfg.ghost"), std::out_of_range);
    EXPECT_THROW((void)map.control(0), std::out_of_range);
}

TEST(control_plane, requires_getter_and_setter)
{
    register_map map;
    EXPECT_THROW(map.add_control("cfg.x", 8, nullptr,
                                 [](std::uint64_t) {}),
                 std::invalid_argument);
    EXPECT_THROW(map.add_control("cfg.x", 8, [] { return 0u; }, nullptr),
                 std::invalid_argument);
}

TEST(control_plane, separate_from_result_plane_accounting)
{
    register_map map = small_map();
    const unsigned inputs = map.top_level_inputs();
    const unsigned words = map.total_words(16);
    std::uint64_t staged = 0;
    map.add_control(
        "cfg.x", 16, [&staged] { return staged; },
        [&staged](std::uint64_t v) { staged = v; });
    EXPECT_EQ(map.size(), 5u) << "controls are not result entries";
    EXPECT_EQ(map.top_level_inputs(), inputs);
    EXPECT_EQ(map.total_words(16), words);
    EXPECT_THROW((void)map.index_of("cfg.x"), std::out_of_range);
}

TEST(control_plane, self_modifying_write_is_safe)
{
    // The reconfigure strobe rebuilds the whole map from inside its own
    // setter; write_control must survive the registered function being
    // destroyed mid-call.
    auto map = std::make_unique<register_map>();
    bool fired = false;
    register_map* raw = map.get();
    raw->add_control(
        "ctrl.rebuild", 1, [] { return 0u; },
        [raw, &fired](std::uint64_t) {
            *raw = register_map{}; // drops every entry, this one included
            fired = true;
        });
    raw->write_control("ctrl.rebuild", 1);
    EXPECT_TRUE(fired);
    EXPECT_EQ(raw->control_count(), 0u);
}

} // namespace
