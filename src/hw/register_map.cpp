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

/// Reject a registration whose width is outside [1, 64] or whose name is
/// already taken on the plane `entries` belongs to.
template <typename Entry>
void check_new_entry(const std::vector<Entry>& entries,
                     const std::string& name, unsigned width,
                     const char* plane)
{
    if (width < 1 || width > 64) {
        throw std::invalid_argument(
            std::string{"register_map: "} + plane + " \"" + name
            + "\" has width " + std::to_string(width)
            + ", outside [1, 64]");
    }
    for (const Entry& e : entries) {
        if (e.name == name) {
            throw std::invalid_argument(std::string{"register_map: "}
                                        + plane + " \"" + name
                                        + "\" is already registered");
        }
    }
}

} // namespace

register_map::register_map() : layout_(next_layout()) {}

void register_map::add_entry(map_entry entry)
{
    check_new_entry(entries_, entry.name, entry.width, "entry");
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

void register_map::add_control(std::string name, unsigned width,
                               std::function<std::uint64_t()> read,
                               std::function<void(std::uint64_t)> write)
{
    check_new_entry(controls_, name, width, "control register");
    if (!read || !write) {
        throw std::invalid_argument(
            "register_map: control register \"" + name
            + "\" needs both a getter and a setter");
    }
    controls_.push_back(control_entry{std::move(name), width,
                                      std::move(read), std::move(write)});
}

const control_entry& register_map::control(std::size_t index) const
{
    return controls_.at(index);
}

std::size_t register_map::control_index_of(const std::string& name) const
{
    for (std::size_t i = 0; i < controls_.size(); ++i) {
        if (controls_[i].name == name) {
            return i;
        }
    }
    throw std::out_of_range("register_map: no control register named "
                            + name);
}

void register_map::write_control(std::size_t index, std::uint64_t value)
{
    const control_entry& e = controls_.at(index);
    // Copy the setter before invoking it: the reconfigure strobe rebuilds
    // the whole map from inside its own write, which would otherwise
    // destroy the std::function it is executing.
    const auto write = e.write;
    write(value & width_mask(e.width));
}

void register_map::write_control(const std::string& name,
                                 std::uint64_t value)
{
    write_control(control_index_of(name), value);
}

std::uint64_t register_map::read_control(std::size_t index) const
{
    const control_entry& e = controls_.at(index);
    return e.read() & width_mask(e.width);
}

std::uint64_t register_map::read_control(const std::string& name) const
{
    return read_control(control_index_of(name));
}

} // namespace otf::hw
