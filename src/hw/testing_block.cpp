#include "hw/testing_block.hpp"

#include "base/resident.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

namespace otf::hw {

testing_block::testing_block(block_config config)
    : rtl::component("testing_block")
{
    config.validate();
    active_ = build(config);
    staged_ = active_.config;
    activate();
}

testing_block::design_set testing_block::build(const block_config& config)
{
    design_set s;
    s.config = config;
    s.global_counter = std::make_unique<rtl::counter>("global_bit_counter",
                                                      config.log2_n);

    const bool any_template =
        config.tests.has(test_id::non_overlapping_template)
        || config.tests.has(test_id::overlapping_template);
    if (any_template) {
        // Sharing trick 4: one shift register serves both template tests.
        s.template_window = std::make_unique<rtl::shift_register>(
            "template_window", config.template_length);
    }

    // The cusum engine is always present: the frequency and runs tests
    // derive N_ones from its final walk value (sharing trick 1), and the
    // paper's designs all include tests 1, 3 and 13.
    s.cusum = std::make_unique<cusum_hw>(config.log2_n);
    s.engines.push_back(s.cusum.get());

    if (config.tests.has(test_id::runs)) {
        s.runs = std::make_unique<runs_hw>(config.log2_n);
        s.engines.push_back(s.runs.get());
    }
    if (config.tests.has(test_id::block_frequency)) {
        s.bf = std::make_unique<block_frequency_hw>(config.log2_n,
                                                    config.bf_log2_m);
        s.engines.push_back(s.bf.get());
    }
    if (config.tests.has(test_id::longest_run)) {
        s.lr = std::make_unique<longest_run_hw>(config.log2_n,
                                                config.lr_log2_m,
                                                config.lr_v_lo,
                                                config.lr_v_hi);
        s.engines.push_back(s.lr.get());
    }
    if (config.tests.has(test_id::non_overlapping_template)) {
        s.t7 = std::make_unique<non_overlapping_hw>(
            config.log2_n, config.t7_log2_m, config.t7_template,
            config.template_length, *s.template_window);
        s.engines.push_back(s.t7.get());
    }
    if (config.tests.has(test_id::overlapping_template)) {
        s.t8 = std::make_unique<overlapping_hw>(
            config.log2_n, config.t8_log2_m, config.t8_template,
            config.template_length, config.t8_max_count,
            *s.template_window);
        s.engines.push_back(s.t8.get());
    }
    if (config.tests.has(test_id::serial)
        || config.tests.has(test_id::approximate_entropy)) {
        s.serial = std::make_unique<serial_hw>(
            config.log2_n, config.serial_m,
            config.serial_transfer_marginals);
        s.engines.push_back(s.serial.get());
    }

    for (const engine* e : s.engines) {
        s.register_base.push_back(s.map.size());
        e->add_registers(s.map);
    }
    s.mux = std::make_unique<rtl::readout_mux>(
        "readout_mux", s.map.top_level_inputs(), s.map.max_width());
    return s;
}

void testing_block::activate()
{
    // The audit order: counter, template window, engines, readout mux.
    disown_all();
    adopt(*active_.global_counter);
    if (active_.template_window) {
        adopt(*active_.template_window);
    }
    for (engine* e : active_.engines) {
        adopt(*e);
    }
    adopt(*active_.mux);
    // A set is parked only at a sequence boundary, after restart()
    // cleared it; the reset keeps the swap independent of that.
    reset();
    std::fill(active_.map.values().begin(), active_.map.values().end(), 0);
    latch_valid_ = false;
}

namespace {

constexpr std::string_view reconfigure_strobe_name = "ctrl.reconfigure";

std::size_t control_index(std::string_view name)
{
    for (std::size_t i = 0; i < std::size(config_registers); ++i) {
        if (config_registers[i].name == name) {
            return i;
        }
    }
    if (name == reconfigure_strobe_name) {
        return testing_block::reconfigure_strobe;
    }
    throw std::out_of_range("testing_block: no control register named "
                            + std::string(name));
}

const config_register& config_register_at(std::size_t index)
{
    if (index >= std::size(config_registers)) {
        throw std::out_of_range("testing_block: no control register at "
                                + std::to_string(index));
    }
    return config_registers[index];
}

} // namespace

void testing_block::write_control(std::size_t index, std::uint64_t value)
{
    // A config register stages one design parameter; the 1-bit strobe
    // applies the staged set.
    if (index == reconfigure_strobe) {
        if ((value & 1u) != 0) {
            apply_reconfigure();
        }
        return;
    }
    const config_register& reg = config_register_at(index);
    reg.set(staged_, value & ((std::uint64_t{1} << reg.width) - 1));
}

void testing_block::write_control(std::string_view name,
                                  std::uint64_t value)
{
    write_control(control_index(name), value);
}

std::uint64_t testing_block::read_control(std::size_t index) const
{
    // Reads return the staged (not yet applied) values, so software can
    // read back what it wrote before strobing.  A staged value always fits
    // its register: writes are masked, and validate() bounds the design
    // the block starts from.
    if (index == reconfigure_strobe) {
        return 0;
    }
    return config_register_at(index).get(staged_);
}

std::uint64_t testing_block::read_control(std::string_view name) const
{
    return read_control(control_index(name));
}

void testing_block::apply_reconfigure()
{
    if (consumed_ != 0) {
        throw std::logic_error(
            "testing_block: reconfigure mid-sequence (after "
            + std::to_string(consumed_)
            + " bits); reprogramming is only legal at a sequence "
              "boundary");
    }
    staged_.validate();
    base::swap_in<resident_designs>(
        active_, parked_,
        [this](const design_set& set) { return set.config == staged_; },
        [this] { return build(staged_); });
    ++reconfigurations_;
    activate();
}

void testing_block::reprogram(const block_config& target)
{
    // The label is a software-side name, not a hardware parameter; every
    // numeric field travels through the control plane, one register
    // write per table entry, then the strobe.
    staged_.name = target.name;
    for (std::size_t i = 0; i < std::size(config_registers); ++i) {
        write_control(i, config_registers[i].get(target));
    }
    write_control(reconfigure_strobe, 1);
}

void testing_block::feed(bool bit)
{
    if (consumed_ >= active_.config.n()) {
        throw std::logic_error(
            "testing_block: sequence complete; call finish()/restart()");
    }
    if (active_.template_window) {
        active_.template_window->shift(bit);
    }
    const std::uint64_t index = consumed_;
    for (engine* e : active_.engines) {
        e->consume(bit, index);
    }
    ++consumed_;
    active_.global_counter->step();
}

void testing_block::feed_span(const std::uint64_t* words, std::size_t nbits)
{
    if (nbits == 0) {
        return;
    }
    if (consumed_ + nbits > active_.config.n()) {
        throw std::logic_error(
            "testing_block: span would run past the end of the sequence");
    }
    const std::uint64_t index = consumed_;
    // Engines that watch the shared template window reconstruct it locally
    // from its pre-span state, so the shared register advances once, after
    // the engines have seen the whole span.
    for (engine* e : active_.engines) {
        e->consume_span(words, nbits, index);
    }
    if (active_.template_window) {
        active_.template_window->shift_span(words, nbits);
    }
    consumed_ += nbits;
    active_.global_counter->advance(nbits);
}

void testing_block::finish()
{
    if (consumed_ != active_.config.n()) {
        throw std::logic_error(
            "testing_block: finish() before the full sequence was fed");
    }
    if (serial_hw* serial = active_.serial.get()) {
        // Cyclic extension: replay the stored opening m-1 bits.
        for (unsigned t = 0; t + 1 < active_.config.serial_m; ++t) {
            serial->flush(serial->stored_opening_bit(t), t);
        }
    }
    capture();
    latch_valid_ = active_.config.double_buffered;
    done_ = true;
}

void testing_block::capture()
{
    std::uint64_t* values = active_.map.values().data();
    for (std::size_t i = 0; i < active_.engines.size(); ++i) {
        active_.engines[i]->read_registers(values
                                           + active_.register_base[i]);
    }
}

void testing_block::run(const bit_sequence& seq)
{
    if (seq.size() != active_.config.n()) {
        throw std::invalid_argument(
            "testing_block: sequence length must equal n");
    }
    for (std::size_t i = 0; i < seq.size(); ++i) {
        feed(seq[i]);
    }
    finish();
}

void testing_block::restart()
{
    // component::reset() clears the engines.  A double-buffered block
    // keeps the finished window's capture, so software can still read it
    // while the next window streams; a plain block's interface shows the
    // cleared counters.
    reset();
    if (!active_.config.double_buffered) {
        capture();
    }
}

rtl::resources testing_block::self_cost() const
{
    // Control overhead: done flag, 7-bit read-address register and its
    // decode, end-of-sequence detect on the global counter.
    rtl::resources r{.ffs = 8, .luts = 6, .carry_bits = 0,
                     .mux_levels = 0};
    if (active_.config.double_buffered) {
        // The result latch: one FF per mapped bit plus a load-enable LUT
        // per value.
        std::uint32_t latch_ffs = 0;
        for (const map_entry& e : active_.map.entries()) {
            latch_ffs += e.width;
        }
        r.ffs += latch_ffs;
        r.luts += static_cast<std::uint32_t>(active_.map.size());
    }
    return r;
}

} // namespace otf::hw
