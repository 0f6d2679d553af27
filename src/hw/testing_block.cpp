#include "hw/testing_block.hpp"

#include <iterator>
#include <stdexcept>
#include <string>

namespace otf::hw {

testing_block::testing_block(block_config config)
    : rtl::component("testing_block"), config_(std::move(config))
{
    config_.validate();
    staged_ = config_;
    build();
}

void testing_block::build()
{
    global_counter_ = std::make_unique<rtl::counter>("global_bit_counter",
                                                     config_.log2_n);
    adopt(*global_counter_);

    const bool any_template =
        config_.tests.has(test_id::non_overlapping_template)
        || config_.tests.has(test_id::overlapping_template);
    if (any_template) {
        // Sharing trick 4: one shift register serves both template tests.
        template_window_ = std::make_unique<rtl::shift_register>(
            "template_window", config_.template_length);
        adopt(*template_window_);
    }

    // The cusum engine is always present: the frequency and runs tests
    // derive N_ones from its final walk value (sharing trick 1), and the
    // paper's designs all include tests 1, 3 and 13.
    cusum_ = std::make_unique<cusum_hw>(config_.log2_n);
    adopt(*cusum_);
    engines_.push_back(cusum_.get());

    if (config_.tests.has(test_id::runs)) {
        runs_ = std::make_unique<runs_hw>(config_.log2_n);
        adopt(*runs_);
        engines_.push_back(runs_.get());
    }
    if (config_.tests.has(test_id::block_frequency)) {
        bf_ = std::make_unique<block_frequency_hw>(config_.log2_n,
                                                   config_.bf_log2_m);
        adopt(*bf_);
        engines_.push_back(bf_.get());
    }
    if (config_.tests.has(test_id::longest_run)) {
        lr_ = std::make_unique<longest_run_hw>(config_.log2_n,
                                               config_.lr_log2_m,
                                               config_.lr_v_lo,
                                               config_.lr_v_hi);
        adopt(*lr_);
        engines_.push_back(lr_.get());
    }
    if (config_.tests.has(test_id::non_overlapping_template)) {
        t7_ = std::make_unique<non_overlapping_hw>(
            config_.log2_n, config_.t7_log2_m, config_.t7_template,
            config_.template_length, *template_window_);
        adopt(*t7_);
        engines_.push_back(t7_.get());
    }
    if (config_.tests.has(test_id::overlapping_template)) {
        t8_ = std::make_unique<overlapping_hw>(
            config_.log2_n, config_.t8_log2_m, config_.t8_template,
            config_.template_length, config_.t8_max_count,
            *template_window_);
        adopt(*t8_);
        engines_.push_back(t8_.get());
    }
    if (config_.tests.has(test_id::serial)
        || config_.tests.has(test_id::approximate_entropy)) {
        serial_ = std::make_unique<serial_hw>(
            config_.log2_n, config_.serial_m,
            config_.serial_transfer_marginals);
        adopt(*serial_);
        engines_.push_back(serial_.get());
    }

    for (const engine* e : engines_) {
        register_base_.push_back(map_.size());
        e->add_registers(map_);
    }
    mux_ = std::make_unique<rtl::readout_mux>(
        "readout_mux", map_.top_level_inputs(), map_.max_width());
    adopt(*mux_);
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

    // Tear the old engine set down and rebuild around the staged design.
    // The register_map object survives (references held by the software
    // runner stay valid); its entries are replaced wholesale.
    disown_all();
    engines_.clear();
    cusum_.reset();
    runs_.reset();
    bf_.reset();
    lr_.reset();
    t7_.reset();
    t8_.reset();
    serial_.reset();
    template_window_.reset();
    mux_.reset();
    global_counter_.reset();
    map_ = register_map{};
    register_base_.clear();
    latch_valid_ = false;
    consumed_ = 0;
    done_ = false;

    config_ = staged_;
    ++reconfigurations_;
    build();
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
    if (consumed_ >= config_.n()) {
        throw std::logic_error(
            "testing_block: sequence complete; call finish()/restart()");
    }
    if (template_window_) {
        template_window_->shift(bit);
    }
    const std::uint64_t index = consumed_;
    for (engine* e : engines_) {
        e->consume(bit, index);
    }
    ++consumed_;
    global_counter_->step();
}

void testing_block::feed_span(const std::uint64_t* words, std::size_t nbits)
{
    if (nbits == 0) {
        return;
    }
    if (consumed_ + nbits > config_.n()) {
        throw std::logic_error(
            "testing_block: span would run past the end of the sequence");
    }
    const std::uint64_t index = consumed_;
    // Engines that watch the shared template window reconstruct it locally
    // from its pre-span state, so the shared register advances once, after
    // the engines have seen the whole span.
    for (engine* e : engines_) {
        e->consume_span(words, nbits, index);
    }
    if (template_window_) {
        template_window_->shift_span(words, nbits);
    }
    consumed_ += nbits;
    global_counter_->advance(nbits);
}

void testing_block::finish()
{
    if (consumed_ != config_.n()) {
        throw std::logic_error(
            "testing_block: finish() before the full sequence was fed");
    }
    if (serial_) {
        // Cyclic extension: replay the stored opening m-1 bits.
        for (unsigned t = 0; t + 1 < config_.serial_m; ++t) {
            serial_->flush(serial_->stored_opening_bit(t), t);
        }
    }
    capture();
    latch_valid_ = config_.double_buffered;
    done_ = true;
}

void testing_block::capture()
{
    std::uint64_t* values = map_.values().data();
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        engines_[i]->read_registers(values + register_base_[i]);
    }
}

void testing_block::run(const bit_sequence& seq)
{
    if (seq.size() != config_.n()) {
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
    if (!config_.double_buffered) {
        capture();
    }
}

rtl::resources testing_block::self_cost() const
{
    // Control overhead: done flag, 7-bit read-address register and its
    // decode, end-of-sequence detect on the global counter.
    rtl::resources r{.ffs = 8, .luts = 6, .carry_bits = 0,
                     .mux_levels = 0};
    if (config_.double_buffered) {
        // The result latch: one FF per mapped bit plus a load-enable LUT
        // per value.
        std::uint32_t latch_ffs = 0;
        for (const map_entry& e : map_.entries()) {
            latch_ffs += e.width;
        }
        r.ffs += latch_ffs;
        r.luts += static_cast<std::uint32_t>(map_.size());
    }
    return r;
}

} // namespace otf::hw
