#include "hw/serial_hw.hpp"

#include "base/bits.hpp"

#include <algorithm>
#include <array>
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

// Validates before m is used as a shift count and a register width: the
// member initializers below do both.
unsigned checked_pattern_length(unsigned m)
{
    if (m < 3 || m > 8) {
        throw std::invalid_argument("serial_hw: m must be in [3, 8], got "
                                    + std::to_string(m));
    }
    return m;
}

/// The low `bits` bits of x in reverse order: converts between the window
/// register's order (bit j is the bit j positions back) and stream order.
std::uint64_t reverse_low(std::uint64_t x, unsigned bits)
{
    std::uint64_t r = 0;
    for (unsigned j = 0; j < bits; ++j) {
        r |= ((x >> j) & 1u) << (bits - 1 - j);
    }
    return r;
}

/// u64 words per byte-table entry: 2^M 4-bit fields.
template <unsigned M>
constexpr std::size_t entry_words = M < 4 ? 1 : (std::size_t{1} << M) / 16;

/// Byte table for pattern length M (8 / 16 / 64 KiB for M = 3 / 4 / 5),
/// built by the compiler.  The index is the previous M-1 stream bits
/// followed by the next 8, in stream order (index bit t is stream bit
/// base - (M-1) + t).  The entry holds, as 4-bit fields, how often each
/// MSB-first M-bit pattern ends at one of the 8 new positions: field v of
/// entry word v / 16 counts pattern v, at most 8.
template <unsigned M>
constexpr auto byte_table = [] {
    constexpr std::size_t kIndices = std::size_t{1} << (M + 7);
    std::array<std::uint64_t, kIndices * entry_words<M>> table{};
    for (std::size_t idx = 0; idx < kIndices; ++idx) {
        // Slide the index bits through an M-bit window, oldest bit first;
        // from index bit M-1 on, the window is the pattern ending there.
        std::uint64_t v = 0;
        for (unsigned t = 0; t < M + 7; ++t) {
            v = ((v << 1) | ((idx >> t) & 1u)) & ((1u << M) - 1);
            if (t + 1 >= M) {
                table[idx * entry_words<M> + v / 16] += std::uint64_t{1}
                    << (4 * (v % 16));
            }
        }
    }
    return table;
}();

/// Counts every M-bit pattern ending at stream positions [pos, pos + 8k)
/// for the largest k that fits in nbits, one table lookup per byte.  `w`
/// carries the window register (bit j = the bit j positions back) in and
/// out; returns the first position not counted.
template <unsigned M>
std::size_t count_bytes(const std::uint64_t* words, std::size_t pos,
                        std::size_t nbits, std::uint64_t& w,
                        std::uint32_t* counts)
{
    constexpr unsigned kCtx = M - 1;
    constexpr std::uint64_t kCtxMask = (std::uint64_t{1} << kCtx) - 1;
    constexpr std::uint64_t kIndexMask = (std::uint64_t{1} << (M + 7)) - 1;
    constexpr std::size_t kEntryWords = entry_words<M>;
    constexpr unsigned kLanes = M < 4 ? 4 : 8; // even (or odd) fields/word
    constexpr std::uint64_t kLowNibbles = 0x0F0F0F0F0F0F0F0Full;
    // One pattern can end at all 8 positions of a byte, so an 8-bit lane
    // grows by up to 8 per byte: 3 chunks of 8 bytes (24 <= 31 bytes)
    // stay below 256.
    constexpr unsigned kChunksPerFlush = 3;
    static_assert(kChunksPerFlush * 8 * 8 < 256);

    const std::uint64_t* table = byte_table<M>.data();
    // The previous kCtx bits in stream order.
    std::uint64_t ctx = reverse_low(w, kCtx);
    // acc[2k] lane L counts pattern 16k + 2L, acc[2k + 1] pattern
    // 16k + 2L + 1.
    std::uint64_t acc[2 * kEntryWords] = {};
    const auto add = [&](std::uint64_t idx) {
        const std::uint64_t* entry = table + idx * kEntryWords;
        for (std::size_t k = 0; k < kEntryWords; ++k) {
            acc[2 * k] += entry[k] & kLowNibbles;
            acc[2 * k + 1] += (entry[k] >> 4) & kLowNibbles;
        }
    };
    const auto flush = [&] {
        for (std::size_t k = 0; k < kEntryWords; ++k) {
            for (unsigned lane = 0; lane < kLanes; ++lane) {
                counts[16 * k + 2 * lane] += static_cast<std::uint32_t>(
                    (acc[2 * k] >> (8 * lane)) & 0xFFu);
                counts[16 * k + 2 * lane + 1] += static_cast<std::uint32_t>(
                    (acc[2 * k + 1] >> (8 * lane)) & 0xFFu);
            }
            acc[2 * k] = 0;
            acc[2 * k + 1] = 0;
        }
    };
    // Stream bits [pos, pos + 64), or up to the span's last word; bits past
    // nbits are never indexed.
    const std::size_t nwords = (nbits + 63) / 64;
    const auto load = [&](std::size_t at) {
        const std::size_t wi = at / 64;
        const unsigned sh = at % 64;
        std::uint64_t x = words[wi] >> sh;
        if (sh != 0 && wi + 1 < nwords) {
            x |= words[wi + 1] << (64 - sh);
        }
        return x;
    };
    // One chunk: `bytes` (1..8) lookups on x, every index a shift and a
    // mask of x (byte 0 borrows the carried context).
    const auto chunk = [&](std::uint64_t x, unsigned bytes) {
        add(ctx | ((x & 0xFFu) << kCtx));
        for (unsigned b = 1; b < bytes; ++b) {
            add((x >> (8 * b - kCtx)) & kIndexMask);
        }
        ctx = (x >> (8 * bytes - kCtx)) & kCtxMask;
        pos += 8 * bytes;
    };

    unsigned chunks = 0;
    while (nbits - pos >= 64) {
        chunk(load(pos), 8);
        if (++chunks == kChunksPerFlush) {
            flush();
            chunks = 0;
        }
    }
    if (nbits - pos >= 8) {
        chunk(load(pos), static_cast<unsigned>((nbits - pos) / 8));
    }
    flush();
    // Only the window's low m-1 bits matter to the next slide.
    w = reverse_low(ctx, kCtx);
    return pos;
}

} // namespace

void count_patterns(const std::uint64_t* words, std::size_t begin,
                    std::size_t end, unsigned m, std::uint64_t window,
                    std::uint32_t* counts)
{
    bits::span_kernel([&] {
        std::size_t pos = begin;
        switch (m) {
        case 3: pos = count_bytes<3>(words, begin, end, window, counts); break;
        case 4: pos = count_bytes<4>(words, begin, end, window, counts); break;
        case 5: pos = count_bytes<5>(words, begin, end, window, counts); break;
        default: break; // m in [6, 8]: the table would outgrow L1
        }
        // The last < 8 bits (every bit for m in [6, 8]) slide the window in
        // a local register.
        const std::uint64_t mask = (std::uint64_t{1} << m) - 1;
        for (; pos < end; ++pos) {
            window = ((window << 1) | ((words[pos / 64] >> (pos % 64)) & 1u))
                & mask;
            ++counts[window];
        }
    });
}

serial_hw::serial_hw(unsigned log2_n, unsigned m,
                     bool marginals_in_software)
    : engine("serial"), m_(checked_pattern_length(m)),
      marginals_in_software_(marginals_in_software),
      window_("window", m_),
      opening_bits_("opening_bits", m_ - 1),
      // A pattern can occur at all n cyclic positions (e.g. 0000 in the
      // all-zeros sequence), so counters must hold the value n itself.
      file_m_(make_file("nu_m", 1u << m_, log2_n + 1)),
      file_m1_(marginals_in_software
                   ? std::vector<std::unique_ptr<rtl::counter>>{}
                   : make_file("nu_m1", 1u << (m_ - 1), log2_n + 1)),
      file_m2_(marginals_in_software
                   ? std::vector<std::unique_ptr<rtl::counter>>{}
                   : make_file("nu_m2", 1u << (m_ - 2), log2_n + 1)),
      deltas_(std::size_t{1} << m_)
{
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
    // Warm-up (window not yet full / opening bits still latching) runs on
    // the per-bit path; it only ever covers the first m bits of a window, so
    // every position below is steady-state.
    std::size_t done = 0;
    for (; done < nbits && seen_ < m_; ++done) {
        consume(((words[done / 64] >> (done % 64)) & 1u) != 0,
                bit_index + done);
    }
    if (done == nbits) {
        return;
    }

    std::fill(deltas_.begin(), deltas_.end(), 0u);
    count_patterns(words, done, nbits, m_, window_.window(), deltas_.data());

    // The register advances past the steady-state bits: to the next word
    // boundary, then by whole words.
    const std::size_t head_end = std::min(nbits, (done + 63) / 64 * 64);
    if (head_end > done) {
        window_.shift_word(words[done / 64] >> (done % 64),
                           static_cast<unsigned>(head_end - done));
    }
    window_.shift_span(words + head_end / 64, nbits - head_end);
    seen_ += nbits - done;
    for (std::uint32_t p = 0; p < deltas_.size(); ++p) {
        if (deltas_[p] != 0) {
            file_m_[p]->advance(deltas_[p]);
        }
    }
    if (!marginals_in_software_) {
        // Every steady-state position increments all three lengths, so each
        // shorter file is the marginal of the next longer one's deltas,
        // folded in place: nu_{k-1}[q] = nu_k[q] + nu_k[q + 2^{k-1}].
        for (const auto* file : {&file_m1_, &file_m2_}) {
            for (std::size_t q = 0; q < file->size(); ++q) {
                deltas_[q] += deltas_[q + file->size()];
                if (deltas_[q] != 0) {
                    (*file)[q]->advance(deltas_[q]);
                }
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
                file[p]->width(), false);
        }
    };
    add_file("serial.nu_m", m_);
    if (!marginals_in_software_) {
        add_file("serial.nu_m1", m_ - 1);
        add_file("serial.nu_m2", m_ - 2);
    }
}

void serial_hw::read_registers(std::uint64_t* out) const
{
    const auto read_file =
        [&out](const std::vector<std::unique_ptr<rtl::counter>>& file) {
            for (const auto& counter : file) {
                *out++ = counter->value();
            }
        };
    read_file(file_m_);
    if (!marginals_in_software_) {
        read_file(file_m1_);
        read_file(file_m2_);
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
