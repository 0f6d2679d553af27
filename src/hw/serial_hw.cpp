#include "hw/serial_hw.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace otf::hw {

namespace {

std::vector<std::unique_ptr<rtl::counter>> make_file(const std::string& tag,
                                                     unsigned patterns,
                                                     unsigned width)
{
    std::vector<std::unique_ptr<rtl::counter>> file;
    file.reserve(patterns);
    for (unsigned p = 0; p < patterns; ++p) {
        file.push_back(std::make_unique<rtl::counter>(
            tag + "[" + std::to_string(p) + "]", width));
    }
    return file;
}

} // namespace

serial_hw::serial_hw(unsigned log2_n, unsigned m,
                     bool marginals_in_software)
    : engine("serial"), m_(m),
      marginals_in_software_(marginals_in_software),
      window_("window", m),
      opening_bits_("opening_bits", m - 1),
      // A pattern can occur at all n cyclic positions (e.g. 0000 in the
      // all-zeros sequence), so counters must hold the value n itself.
      file_m_(make_file("nu_m", 1u << m, log2_n + 1)),
      file_m1_(marginals_in_software
                   ? std::vector<std::unique_ptr<rtl::counter>>{}
                   : make_file("nu_m1", 1u << (m - 1), log2_n + 1)),
      file_m2_(marginals_in_software
                   ? std::vector<std::unique_ptr<rtl::counter>>{}
                   : make_file("nu_m2", 1u << (m - 2), log2_n + 1))
{
    if (m < 3 || m > 8) {
        throw std::invalid_argument("serial_hw: m must be in [3, 8]");
    }
    adopt(window_);
    adopt(opening_bits_);
    for (auto& c : file_m_) {
        adopt(*c);
    }
    for (auto& c : file_m1_) {
        adopt(*c);
    }
    for (auto& c : file_m2_) {
        adopt(*c);
    }
}

void serial_hw::count_window(unsigned flush_t, bool flushing)
{
    // The window's low k bits are exactly the MSB-first k-bit pattern that
    // starts k-1 positions ago and ends at the newest bit.  During the
    // stream a length-k pattern is counted once the window holds k bits;
    // during flush cycle t it is counted only while t < k - 1 (beyond that
    // the pattern's start position would wrap past n - 1 and double-count).
    const std::uint64_t w = window_.window();
    const unsigned lengths[3] = {m_, m_ - 1, m_ - 2};
    for (const unsigned k : lengths) {
        if (k != m_ && marginals_in_software_) {
            continue; // software derives these counts as marginals
        }
        const bool stream_ok = !flushing && seen_ >= k;
        const bool flush_ok = flushing && flush_t < k - 1;
        if (stream_ok || flush_ok) {
            const auto pattern =
                static_cast<std::uint32_t>(w & ((1u << k) - 1u));
            file_for(k)[pattern]->step();
        }
    }
}

void serial_hw::consume(bool bit, std::uint64_t bit_index)
{
    window_.shift(bit);
    ++seen_;
    // Latch the opening m-1 bits for the cyclic flush.
    if (bit_index < m_ - 1) {
        const std::uint64_t updated = opening_bits_.value()
            | (static_cast<std::uint64_t>(bit ? 1 : 0) << bit_index);
        opening_bits_.load(updated);
    }
    count_window(0, false);
}

void serial_hw::consume_span(const std::uint64_t* words, std::size_t nbits,
                             std::uint64_t bit_index)
{
    const auto bit_at = [words](std::size_t i) {
        return ((words[i / 64] >> (i % 64)) & 1u) != 0;
    };
    // Warm-up (window not yet full / opening bits still latching) runs on
    // the per-bit path; it only ever covers the first m bits of a window,
    // so every position below is steady-state.
    std::size_t done = 0;
    for (; done < nbits && seen_ < m_; ++done) {
        consume(bit_at(done), bit_index + done);
    }
    if (done == nbits) {
        return;
    }

    const std::uint64_t mask_m = (std::uint64_t{1} << m_) - 1;
    std::uint64_t w = window_.window() & mask_m;
    std::uint32_t delta_m[256] = {};
    const auto slide = [&](std::size_t first, std::size_t last) {
        for (std::size_t i = first; i < last; ++i) {
            w = ((w << 1) | (bit_at(i) ? 1u : 0u)) & mask_m;
            ++delta_m[w];
        }
    };
    // Bits before the next word boundary slide one at a time, so the
    // kernels below start word-aligned.
    const std::size_t head_end = std::min(nbits, (done + 63) / 64 * 64);
    slide(done, head_end);
    std::size_t widx = head_end / 64;
    const std::size_t full_end = nbits / 64;

    if (m_ <= 5 && widx < full_end) {
        // Match-mask kernel: z_j aligns the stream so that bit i of z_j is
        // the window's bit j after consuming position i; AND-ing the
        // selected/complemented z_j's per pattern leaves a mask whose
        // popcount is that pattern's occurrence count in the word.  The
        // first word borrows its pre-span bits from the window register
        // (window bit k-1 is stream bit start-k, i.e. bit 64-k of the
        // virtual previous word).
        std::uint64_t prev = 0;
        for (unsigned k = 1; k < m_; ++k) {
            prev |= ((w >> (k - 1)) & 1u) << (64u - k);
        }
        for (; widx < full_end; ++widx) {
            const std::uint64_t x = words[widx];
            std::uint64_t z[5];
            z[0] = x;
            for (unsigned j = 1; j < m_; ++j) {
                z[j] = (x << j) | (prev >> (64u - j));
            }
            for (std::uint32_t v = 0; v <= mask_m; ++v) {
                std::uint64_t mask = (v & 1u) != 0 ? z[0] : ~z[0];
                for (unsigned j = 1; j < m_; ++j) {
                    mask &= ((v >> j) & 1u) != 0 ? z[j] : ~z[j];
                }
                delta_m[v] += static_cast<std::uint32_t>(
                    std::popcount(mask));
            }
            prev = x;
        }
        // Rebuild the window value after the last full word: window bit j
        // is that word's bit 63 - j.
        w = 0;
        for (unsigned j = 0; j < m_; ++j) {
            w |= ((prev >> (63u - j)) & 1u) << j;
        }
    } else if (widx < full_end) {
        // m in [6, 8]: the per-pattern mask set no longer pays for itself;
        // slide the window in a local register instead (still one counter
        // commit for the whole span).
        slide(widx * 64, full_end * 64);
    }
    slide(std::max(head_end, full_end * 64), nbits);

    if (head_end > done) {
        window_.shift_word(words[done / 64] >> (done % 64),
                           static_cast<unsigned>(head_end - done));
    }
    window_.shift_span(words + head_end / 64, nbits - head_end);
    seen_ += nbits - done;
    for (std::uint32_t p = 0; p <= mask_m; ++p) {
        if (delta_m[p] != 0) {
            file_m_[p]->advance(delta_m[p]);
        }
    }
    if (!marginals_in_software_) {
        // Every steady-state position increments all three lengths, so the
        // shorter files are exact marginals of the span-local m-bit deltas.
        const std::uint32_t half = 1u << (m_ - 1);
        const std::uint32_t quarter = 1u << (m_ - 2);
        for (std::uint32_t q = 0; q < half; ++q) {
            const std::uint32_t d = delta_m[q] + delta_m[q | half];
            if (d != 0) {
                file_m1_[q]->advance(d);
            }
        }
        for (std::uint32_t q = 0; q < quarter; ++q) {
            const std::uint32_t d = delta_m[q] + delta_m[q | quarter]
                + delta_m[q | half] + delta_m[q | half | quarter];
            if (d != 0) {
                file_m2_[q]->advance(d);
            }
        }
    }
}

void serial_hw::flush(bool bit, unsigned t)
{
    window_.shift(bit);
    count_window(t, true);
}

bool serial_hw::stored_opening_bit(unsigned index) const
{
    if (index >= m_ - 1) {
        throw std::out_of_range("serial_hw: opening bit index");
    }
    return ((opening_bits_.value() >> index) & 1u) != 0;
}

const std::vector<std::unique_ptr<rtl::counter>>&
serial_hw::file_for(unsigned length) const
{
    if (length == m_) {
        return file_m_;
    }
    if (marginals_in_software_) {
        throw std::logic_error(
            "serial_hw: marginal counter files omitted; software derives "
            "them from the m-bit file");
    }
    if (length == m_ - 1) {
        return file_m1_;
    }
    if (length == m_ - 2) {
        return file_m2_;
    }
    throw std::invalid_argument("serial_hw: unsupported pattern length");
}

std::uint64_t serial_hw::count(unsigned length, std::uint32_t value) const
{
    const auto& file = file_for(length);
    return file.at(value)->value();
}

void serial_hw::add_registers(register_map& map) const
{
    const auto add_file = [&](const char* group, unsigned length) {
        const auto& file = file_for(length);
        for (std::uint32_t p = 0; p < file.size(); ++p) {
            map.add_group_element(
                group,
                std::string{group} + "[" + std::to_string(p) + "]",
                file[p]->width(), false,
                [this, length, p] { return count(length, p); });
        }
    };
    add_file("serial.nu_m", m_);
    if (!marginals_in_software_) {
        add_file("serial.nu_m1", m_ - 1);
        add_file("serial.nu_m2", m_ - 2);
    }
}

rtl::resources serial_hw::self_cost() const
{
    // Pattern decode: a one-hot enable per counter (2^m + 2^{m-1} + 2^{m-2}
    // small LUTs), plus the three sub-addressed read ports (mux trees over
    // the counter files) that make each file a single top-level mux input.
    const unsigned width = file_m_.front()->width();
    std::uint32_t luts = 0;
    std::uint32_t levels = 0;
    std::vector<unsigned> file_sizes = {1u << m_};
    if (!marginals_in_software_) {
        file_sizes.push_back(1u << (m_ - 1));
        file_sizes.push_back(1u << (m_ - 2));
    }
    for (const unsigned count : file_sizes) {
        luts += count; // one-hot enable decode
        // Read-port mux tree: ~(count-1)/3 LUTs per output bit.
        std::uint32_t per_bit = 0;
        unsigned remaining = count;
        unsigned depth = 0;
        while (remaining > 1) {
            const unsigned level = (remaining + 3) / 4;
            per_bit += level;
            remaining = level;
            ++depth;
        }
        luts += per_bit * width;
        levels = std::max(levels, depth);
    }
    return rtl::resources{.ffs = 0, .luts = luts, .carry_bits = 0,
                          .mux_levels = levels};
}

} // namespace otf::hw
