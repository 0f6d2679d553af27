// Bounded, binary, append-only log with crash-tolerant framing.
//
// The durable half of the telemetry path: supervision events, evidence
// windows and checkpoints (core/telemetry_log.hpp) must survive the
// process, so million-device runs stay auditable and a restarted fleet
// can recover its alarm context.  The format is a classic write-ahead
// log, sized for exactly the two failure modes a deployment sees:
//
//   * torn writes -- the process (or its power rail) dies mid-append and
//     the tail of the file holds a partial frame;
//   * media corruption -- a bit flips anywhere in a segment at rest.
//
// Layout (all integers little-endian, independent of host order):
//
//   segment  := header frame*
//   header   := magic u64 | schema u32 | crc32c(magic..schema) u32
//   frame    := payload_len u32 | crc32c(type || payload) u32
//               | type u8 | payload bytes
//
// Every frame carries its own CRC32C (the Castagnoli polynomial --
// single-bit errors over the covered bytes are detected by construction,
// and the SSE4.2 crc32 instruction accelerates it where CPUID reports it).
// The reader walks frames from the front and stops at the FIRST invalid
// frame -- short header, impossible length, or CRC mismatch -- yielding
// exactly the prefix of valid records and never a garbage record.  That
// "valid prefix" contract is what tests/test_wal.cpp fault-injects:
// truncation at every byte offset and a bit flip at every bit of the
// segment must both recover cleanly.
//
// The writer is bounded (`max_bytes`): an append that would overflow the
// bound is dropped and counted, never torn.  Writes go through stdio
// with an explicit flush() hook, and every failed write, flush or close
// throws naming the segment path -- a full disk is an error, not a
// silent loss.  The supervision loop never calls this class directly:
// it hands serialized records to one writer thread that owns the file
// (core/telemetry_log.hpp).
#pragma once

#include <array>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define OTF_WAL_CRC32C_SSE42 1
#include <nmmintrin.h>
#else
#define OTF_WAL_CRC32C_SSE42 0
#endif

namespace otf::base {

// ---------------------------------------------------------------------
// CRC32C (Castagnoli, reflected polynomial 0x82f63b78).
// ---------------------------------------------------------------------

namespace detail {

constexpr std::array<std::uint32_t, 256> make_crc32c_table()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k) {
            c = (c & 1u) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
        }
        table[i] = c;
    }
    return table;
}

inline constexpr std::array<std::uint32_t, 256> crc32c_table =
    make_crc32c_table();

} // namespace detail

/// \brief Byte-at-a-time table CRC32C -- the portable reference the
/// hardware path is pinned against in tests/test_wal.cpp.
inline std::uint32_t crc32c_table_path(const void* data, std::size_t len,
                                       std::uint32_t seed = 0)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < len; ++i) {
        crc = detail::crc32c_table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
    }
    return ~crc;
}

#if OTF_WAL_CRC32C_SSE42
namespace detail {

/// True when this host runs the SSE4.2 crc32 instruction (CPUID, read
/// once per process).
inline bool crc32c_sse42_supported()
{
    static const bool supported = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("sse4.2") != 0;
    }();
    return supported;
}

/// The SSE4.2 crc32 loop, compiled for SSE4.2 in every x86-64 build and
/// run only where crc32c_sse42_supported().
[[gnu::target("sse4.2")]] inline std::uint32_t
crc32c_sse42(const void* data, std::size_t len, std::uint32_t seed)
{
    const auto* p = static_cast<const unsigned char*>(data);
    std::uint32_t crc = ~seed;
    while (len >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        crc = static_cast<std::uint32_t>(_mm_crc32_u64(crc, word));
        p += 8;
        len -= 8;
    }
    while (len > 0) {
        crc = _mm_crc32_u8(crc, *p);
        ++p;
        --len;
    }
    return ~crc;
}

} // namespace detail
#endif

/// \brief CRC32C of `len` bytes (the SSE4.2 crc32 instruction where the
/// host has it, the table otherwise; identical results by construction).
inline std::uint32_t crc32c(const void* data, std::size_t len,
                            std::uint32_t seed = 0)
{
#if OTF_WAL_CRC32C_SSE42
    if (detail::crc32c_sse42_supported()) {
        return detail::crc32c_sse42(data, len, seed);
    }
#endif
    return crc32c_table_path(data, len, seed);
}

// ---------------------------------------------------------------------
// Raw little-endian serialization (register_map-style: fixed-width
// fields appended in declaration order, no self-description).
// ---------------------------------------------------------------------

/// \brief Append-only byte buffer with explicit little-endian encoders;
/// the serialization side of every WAL payload (telemetry records,
/// supervisor checkpoints).
class byte_sink {
public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }
    void u16(std::uint16_t v) { le(v, 2); }
    void u32(std::uint32_t v) { le(v, 4); }
    void u64(std::uint64_t v) { le(v, 8); }
    /// Doubles travel as their IEEE-754 bit pattern, so a replayed
    /// P-value compares bit-identical to the live one.
    void f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, 8);
        u64(bits);
    }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /// Length-prefixed string (u16 length; payloads are short labels).
    /// \throws std::length_error past 65535 bytes
    void str(const std::string& s)
    {
        if (s.size() > 0xffffu) {
            throw std::length_error("byte_sink: string exceeds u16 length");
        }
        u16(static_cast<std::uint16_t>(s.size()));
        bytes_.insert(bytes_.end(), s.begin(), s.end());
    }
    void raw(const void* data, std::size_t len)
    {
        const auto* p = static_cast<const std::uint8_t*>(data);
        bytes_.insert(bytes_.end(), p, p + len);
    }

    const std::vector<std::uint8_t>& bytes() const { return bytes_; }
    std::vector<std::uint8_t> take() { return std::move(bytes_); }

private:
    void le(std::uint64_t v, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    std::vector<std::uint8_t> bytes_;
};

/// \brief Bounds-checked reader over a serialized payload.  Overruns
/// throw instead of reading garbage -- a CRC-valid frame can still carry
/// a payload a *newer* schema wrote, and the parser must fail loudly,
/// not walk off the buffer.
class byte_cursor {
public:
    byte_cursor(const std::uint8_t* data, std::size_t len)
        : data_(data), len_(len)
    {
    }
    explicit byte_cursor(const std::vector<std::uint8_t>& bytes)
        : byte_cursor(bytes.data(), bytes.size())
    {
    }

    std::uint8_t u8() { return take(1)[0]; }
    std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
    std::uint64_t u64() { return le(8); }
    double f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, 8);
        return v;
    }
    bool boolean() { return u8() != 0; }
    std::string str()
    {
        const std::uint16_t n = u16();
        const std::uint8_t* p = take(n);
        return std::string(reinterpret_cast<const char*>(p), n);
    }
    /// Borrow `len` raw bytes (valid while the underlying buffer lives).
    const std::uint8_t* raw(std::size_t len) { return take(len); }

    std::size_t remaining() const { return len_ - pos_; }
    bool exhausted() const { return pos_ == len_; }

    /// Capacity to reserve for `count` elements about to be read: at
    /// most the bytes left (every element takes at least one), so a
    /// forged count fails as "truncated" on the first missing element
    /// instead of allocating for the claim.
    std::size_t reserve_bound(std::size_t count) const
    {
        return count < remaining() ? count : remaining();
    }

private:
    const std::uint8_t* take(std::size_t n)
    {
        if (n > remaining()) {
            throw std::runtime_error(
                "byte_cursor: payload truncated (wanted "
                + std::to_string(n) + " bytes, "
                + std::to_string(remaining()) + " left)");
        }
        const std::uint8_t* p = data_ + pos_;
        pos_ += n;
        return p;
    }

    std::uint64_t le(unsigned n)
    {
        const std::uint8_t* p = take(n);
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i) {
            v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
        }
        return v;
    }

    const std::uint8_t* data_;
    std::size_t len_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------
// Segment framing.
// ---------------------------------------------------------------------

/// "OTFWAL01" as a little-endian u64 (the first 8 bytes of a segment).
inline constexpr std::uint64_t wal_magic = 0x31304c4157465f4fULL;
inline constexpr std::size_t wal_header_bytes = 16;
inline constexpr std::size_t wal_frame_overhead = 9; ///< len + crc + type

/// One recovered record: the frame's type tag and its payload bytes.
struct wal_record {
    std::uint8_t type = 0;
    std::vector<std::uint8_t> payload;

    friend bool operator==(const wal_record&, const wal_record&) = default;
};

/// \brief Everything a recovery pass learns about a segment: the valid
/// record prefix plus where and why the walk stopped.
struct wal_read_result {
    bool header_ok = false;      ///< magic, schema and header CRC check out
    std::uint32_t schema = 0;    ///< schema version from the header
    std::vector<wal_record> records;
    std::uint64_t file_bytes = 0;  ///< segment size on disk
    std::uint64_t valid_bytes = 0; ///< end of the last valid frame
    /// True when every byte belonged to a valid frame; false means the
    /// tail was torn or corrupt and recovery stopped at valid_bytes.
    bool clean = false;
};

/// \brief Bounded append-only segment writer.  Single-threaded by
/// design: the telemetry layer funnels every producer through one
/// writer thread (core/telemetry_log.hpp).
class wal_writer {
public:
    /// \brief Create (truncate) the segment and write its header.
    /// \param path      segment file path
    /// \param schema    schema version stamped into the header
    /// \param max_bytes segment size bound; appends that would cross it
    ///                  are dropped and counted (0 = unbounded)
    /// \throws std::runtime_error when the file cannot be opened
    wal_writer(const std::string& path, std::uint32_t schema,
               std::uint64_t max_bytes = 0)
        : path_(path), max_bytes_(max_bytes)
    {
        file_ = std::fopen(path.c_str(), "wb");
        if (file_ == nullptr) {
            throw std::runtime_error("wal_writer: cannot open \"" + path
                                     + "\" for writing");
        }
        // A record (an evidence window) can be several KB; the default
        // stdio buffer would turn every append into a write syscall,
        // which dominates the logging cost on a busy box.  Batch ~dozens
        // of records per syscall instead -- torn-tail recovery makes the
        // coarser flush granularity safe by construction.
        stdio_buffer_.resize(std::size_t{256} * 1024);
        std::setvbuf(file_, stdio_buffer_.data(), _IOFBF,
                     stdio_buffer_.size());
        std::uint8_t header[wal_header_bytes];
        store_le64(header, wal_magic);
        store_le32(header + 8, schema);
        store_le32(header + 12, crc32c(header, 12));
        write_bytes(header, sizeof header);
        bytes_ = sizeof header;
    }

    wal_writer(const wal_writer&) = delete;
    wal_writer& operator=(const wal_writer&) = delete;

    /// Closes without throwing: a caller that needs to know whether the
    /// tail reached the OS calls close() first.
    ~wal_writer()
    {
        try {
            close();
        } catch (const std::runtime_error&) {
        }
    }

    /// \brief Append one framed record.
    /// \return false (and count the drop) when the frame would cross the
    /// segment bound; the segment stays whole either way
    bool append(std::uint8_t type, const void* payload, std::size_t len)
    {
        if (file_ == nullptr) {
            throw std::logic_error("wal_writer: append after close");
        }
        const std::uint64_t frame = wal_frame_overhead + len;
        if (max_bytes_ != 0 && bytes_ + frame > max_bytes_) {
            ++dropped_;
            return false;
        }
        std::uint8_t head[wal_frame_overhead];
        store_le32(head, static_cast<std::uint32_t>(len));
        std::uint32_t crc = crc32c(&type, 1);
        crc = crc32c(payload, len, crc);
        store_le32(head + 4, crc);
        head[8] = type;
        write_bytes(head, sizeof head);
        write_bytes(payload, len);
        bytes_ += frame;
        ++records_;
        return true;
    }

    bool append(std::uint8_t type, const std::vector<std::uint8_t>& payload)
    {
        return append(type, payload.data(), payload.size());
    }

    /// \brief Push buffered bytes to the OS (a frame is never split
    /// across flushes the caller sees; stdio buffering is transparent to
    /// the recovery protocol either way -- a torn tail is recovered, not
    /// prevented).
    /// \throws std::runtime_error naming the path when the OS rejects
    /// the buffered bytes (e.g. a full disk)
    void flush()
    {
        if (file_ != nullptr && std::fflush(file_) != 0) {
            fail("flush of");
        }
    }

    /// \brief Flush and close the segment; idempotent.
    /// \throws std::runtime_error naming the path when the final flush
    /// or the close fails (the file is released either way)
    void close()
    {
        if (file_ == nullptr) {
            return;
        }
        if (std::fclose(std::exchange(file_, nullptr)) != 0) {
            fail("close of");
        }
    }

    const std::string& path() const { return path_; }
    std::uint64_t bytes_written() const { return bytes_; }
    std::uint64_t records_written() const { return records_; }
    /// Appends rejected by the segment bound.
    std::uint64_t records_dropped() const { return dropped_; }

private:
    static void store_le32(std::uint8_t* p, std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i) {
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }
    static void store_le64(std::uint8_t* p, std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
        }
    }

    void write_bytes(const void* data, std::size_t len)
    {
        if (len != 0 && std::fwrite(data, 1, len, file_) != len) {
            fail("write to");
        }
    }

    [[noreturn]] void fail(const char* what) const
    {
        throw std::runtime_error("wal_writer: " + std::string(what) + " \""
                                 + path_ + "\" failed: "
                                 + std::strerror(errno));
    }

    std::string path_;
    std::FILE* file_ = nullptr;
    std::vector<char> stdio_buffer_; ///< must outlive file_ (closed first)
    std::uint64_t max_bytes_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t records_ = 0;
    std::uint64_t dropped_ = 0;
};

namespace detail {

inline std::uint32_t load_le32(const std::uint8_t* p)
{
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i) {
        v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
    return v;
}

inline std::uint64_t load_le64(const std::uint8_t* p)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) {
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
    return v;
}

} // namespace detail

/// \brief Recover the valid record prefix of an in-memory segment image.
/// Never throws on damaged input: a short header, an impossible length
/// or a CRC mismatch ends the walk at the last valid frame.
inline wal_read_result wal_recover(const std::uint8_t* data,
                                   std::size_t size)
{
    wal_read_result result;
    result.file_bytes = size;
    if (size < wal_header_bytes) {
        return result;
    }
    if (detail::load_le64(data) != wal_magic
        || detail::load_le32(data + 12) != crc32c(data, 12)) {
        return result;
    }
    result.header_ok = true;
    result.schema = detail::load_le32(data + 8);

    std::size_t pos = wal_header_bytes;
    for (;;) {
        if (size - pos < wal_frame_overhead) {
            break; // torn frame header (or exactly end-of-file)
        }
        const std::uint32_t len = detail::load_le32(data + pos);
        if (len > size - pos - wal_frame_overhead) {
            break; // length field claims bytes the file does not have
        }
        const std::uint32_t want = detail::load_le32(data + pos + 4);
        const std::uint8_t* body = data + pos + 8; // type || payload
        if (crc32c(body, std::size_t{1} + len) != want) {
            break; // corrupt frame (type, payload, length or CRC itself)
        }
        wal_record rec;
        rec.type = body[0];
        rec.payload.assign(body + 1, body + 1 + len);
        result.records.push_back(std::move(rec));
        pos += wal_frame_overhead + len;
    }
    result.valid_bytes = pos;
    result.clean = (pos == size);
    return result;
}

inline wal_read_result wal_recover(const std::vector<std::uint8_t>& image)
{
    return wal_recover(image.data(), image.size());
}

/// \brief Read and recover a segment file (see wal_recover).
/// \throws std::runtime_error only when the file cannot be opened at
/// all; damaged content is recovered, not thrown on
inline wal_read_result wal_read(const std::string& path)
{
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
        throw std::runtime_error("wal_read: cannot open \"" + path + "\"");
    }
    std::vector<std::uint8_t> image;
    std::uint8_t chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
        image.insert(image.end(), chunk, chunk + got);
    }
    std::fclose(file);
    return wal_recover(image);
}

} // namespace otf::base
