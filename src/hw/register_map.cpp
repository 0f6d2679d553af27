#include "hw/register_map.hpp"

#include <algorithm>
#include <atomic>
#include <set>

namespace otf::hw {

namespace {

std::uint64_t next_layout()
{
    static std::atomic<std::uint64_t> stamps{0};
    return stamps.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::uint64_t width_mask(unsigned width)
{
    return width >= 64 ? ~std::uint64_t{0}
                       : ((std::uint64_t{1} << width) - 1);
}

} // namespace

register_map::register_map() : layout_(next_layout()) {}

void register_map::add_entry(map_entry entry)
{
    if (entry.width < 1 || entry.width > 64) {
        throw std::invalid_argument(
            "register_map: entry \"" + entry.name + "\" has width "
            + std::to_string(entry.width) + ", outside [1, 64]");
    }
    for (const map_entry& e : entries_) {
        if (e.name == entry.name) {
            throw std::invalid_argument("register_map: entry \""
                                        + entry.name
                                        + "\" is already registered");
        }
    }
    layout_ = next_layout();
    entries_.push_back(std::move(entry));
    values_.push_back(0);
}

void register_map::add_scalar(std::string name, unsigned width,
                              bool is_signed)
{
    add_entry(map_entry{std::move(name), width, is_signed, std::string{}});
}

void register_map::add_group_element(std::string group, std::string name,
                                     unsigned width, bool is_signed)
{
    if (group.empty()) {
        throw std::invalid_argument("register_map: group name is empty");
    }
    add_entry(map_entry{std::move(name), width, is_signed, std::move(group)});
}

const map_entry& register_map::entry(std::size_t index) const
{
    return entries_.at(index);
}

std::size_t register_map::index_of(const std::string& name) const
{
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].name == name) {
            return i;
        }
    }
    throw std::out_of_range("register_map: no entry named " + name);
}

std::uint64_t register_map::read_raw(std::size_t index) const
{
    return values_.at(index) & width_mask(entries_[index].width);
}

std::int64_t register_map::read_value(std::size_t index) const
{
    const map_entry& e = entry(index);
    std::uint64_t raw = read_raw(index);
    if (e.is_signed && e.width < 64
        && (raw & (std::uint64_t{1} << (e.width - 1)))) {
        raw |= ~width_mask(e.width); // sign-extend
    }
    return static_cast<std::int64_t>(raw);
}

std::int64_t register_map::read_value(const std::string& name) const
{
    return read_value(index_of(name));
}

unsigned register_map::top_level_inputs() const
{
    std::set<std::string> groups;
    unsigned scalars = 0;
    for (const map_entry& e : entries_) {
        if (e.group.empty()) {
            ++scalars;
        } else {
            groups.insert(e.group);
        }
    }
    return scalars + static_cast<unsigned>(groups.size());
}

unsigned register_map::max_width() const
{
    unsigned widest = 0;
    for (const map_entry& e : entries_) {
        widest = std::max(widest, e.width);
    }
    return widest;
}

unsigned register_map::total_words(unsigned word_bits) const
{
    unsigned words = 0;
    for (const map_entry& e : entries_) {
        words += (e.width + word_bits - 1) / word_bits;
    }
    return words;
}

} // namespace otf::hw
