// Fault-injection suite for the durable log (base/wal.hpp).
//
// The WAL's contract is a *valid-prefix* guarantee: whatever happens to
// the tail or the middle of a segment -- a torn write, a flipped bit --
// recovery yields exactly the records whose frames are wholly intact
// before the first damaged byte, never a garbage record and never a
// crash.  This suite makes that a tested property instead of a claim:
// truncation at every byte offset of the segment, a single-bit flip at
// every bit of the segment, drop-not-tear behaviour at the size bound,
// and write errors (a full disk) that throw naming the path instead of
// passing for success.  All randomness is seeded (support/fixed_seed.hpp) via
// mt19937_64, whose output is pinned by the standard, so every run
// injects exactly the same faults.
#include "base/wal.hpp"

#include "core/design_config.hpp"
#include "core/supervisor.hpp"
#include "core/telemetry_log.hpp"
#include "support/dev_full.hpp"
#include "support/fixed_seed.hpp"
#include "support/print_config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace {

using namespace otf;

// ---------------------------------------------------------------------
// CRC32C.
// ---------------------------------------------------------------------

TEST(Crc32c, KnownAnswer)
{
    // The canonical CRC32C check value (RFC 3720 appendix B.4): the
    // ASCII digits "123456789" must hash to 0xe3069283.
    const char digits[] = "123456789";
    EXPECT_EQ(base::crc32c(digits, 9), 0xe3069283u);
    EXPECT_EQ(base::crc32c_table_path(digits, 9), 0xe3069283u);
}

TEST(Crc32c, HardwarePathMatchesTable)
{
    // crc32c() takes the SSE4.2 loop wherever the host has it (every
    // x86-64 build compiles that loop), so this compares two code paths;
    // it must be bit-identical to the byte-at-a-time reference, at every
    // length and alignment a frame walk can produce.
    std::mt19937_64 rng(test::kCanonicalSeed);
    std::vector<std::uint8_t> buf(257);
    for (std::uint8_t& b : buf) {
        b = static_cast<std::uint8_t>(rng());
    }
    for (std::size_t off = 0; off < 9; ++off) {
        for (std::size_t len = 0; len + off <= buf.size(); len += 7) {
            EXPECT_EQ(base::crc32c(buf.data() + off, len),
                      base::crc32c_table_path(buf.data() + off, len));
        }
    }
}

TEST(Crc32c, SeedChains)
{
    // Chaining via the seed must equal hashing the concatenation (the
    // writer hashes type and payload as two calls).
    const std::uint8_t data[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    const std::uint32_t whole = base::crc32c(data, sizeof data);
    const std::uint32_t first = base::crc32c(data, 4);
    EXPECT_EQ(base::crc32c(data + 4, sizeof data - 4, first), whole);
}

// ---------------------------------------------------------------------
// byte_sink / byte_cursor.
// ---------------------------------------------------------------------

TEST(ByteCodec, RoundTripsEveryFieldType)
{
    base::byte_sink sink;
    sink.u8(0xab);
    sink.u16(0xbeef);
    sink.u32(0xdeadbeefu);
    sink.u64(0x0123456789abcdefULL);
    sink.f64(-0.0625);
    sink.boolean(true);
    sink.boolean(false);
    sink.str("");
    sink.str("evidence");

    base::byte_cursor cursor(sink.bytes());
    EXPECT_EQ(cursor.u8(), 0xab);
    EXPECT_EQ(cursor.u16(), 0xbeef);
    EXPECT_EQ(cursor.u32(), 0xdeadbeefu);
    EXPECT_EQ(cursor.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(cursor.f64(), -0.0625);
    EXPECT_TRUE(cursor.boolean());
    EXPECT_FALSE(cursor.boolean());
    EXPECT_EQ(cursor.str(), "");
    EXPECT_EQ(cursor.str(), "evidence");
    EXPECT_TRUE(cursor.exhausted());
}

TEST(ByteCodec, LittleEndianOnTheWire)
{
    base::byte_sink sink;
    sink.u32(0x01020304u);
    ASSERT_EQ(sink.bytes().size(), 4u);
    EXPECT_EQ(sink.bytes()[0], 0x04);
    EXPECT_EQ(sink.bytes()[3], 0x01);
}

TEST(ByteCodec, DoubleTravelsAsBitPattern)
{
    // The replay contract is bitwise P-value equality, so the codec
    // must preserve every bit of the IEEE representation -- including
    // a signalling-ish NaN payload.
    const std::uint64_t nan_bits = 0x7ff4000000000001ULL;
    double v;
    std::memcpy(&v, &nan_bits, 8);
    base::byte_sink sink;
    sink.f64(v);
    base::byte_cursor cursor(sink.bytes());
    const double back = cursor.f64();
    std::uint64_t back_bits;
    std::memcpy(&back_bits, &back, 8);
    EXPECT_EQ(back_bits, nan_bits);
}

TEST(ByteCodec, CursorOverrunThrows)
{
    base::byte_sink sink;
    sink.u16(7);
    base::byte_cursor cursor(sink.bytes());
    EXPECT_EQ(cursor.u16(), 7);
    EXPECT_THROW(cursor.u8(), std::runtime_error);
    base::byte_cursor str_cursor(sink.bytes());
    // As a string header, 7 promises 7 bytes the buffer does not have.
    EXPECT_THROW(str_cursor.str(), std::runtime_error);
}

TEST(ByteCodec, OversizedStringThrows)
{
    base::byte_sink sink;
    EXPECT_THROW(sink.str(std::string(70000, 'x')), std::length_error);
}

// ---------------------------------------------------------------------
// Segment round trip.
// ---------------------------------------------------------------------

std::string temp_path(const char* name)
{
    return std::string("wal_test_") + name + ".wal";
}

/// Write a deterministic segment of `count` records with mixed sizes
/// (empty payloads included) and return both the records and the file
/// image.
struct written_segment {
    std::vector<base::wal_record> records;
    std::vector<std::uint8_t> image;
};

written_segment write_segment(const std::string& path, unsigned count,
                              std::uint64_t seed)
{
    written_segment seg;
    std::mt19937_64 rng(seed);
    {
        base::wal_writer writer(path, 7);
        for (unsigned i = 0; i < count; ++i) {
            base::wal_record rec;
            rec.type = static_cast<std::uint8_t>(1 + (rng() % 4));
            const std::size_t len = static_cast<std::size_t>(rng() % 40);
            rec.payload.resize(len);
            for (std::uint8_t& b : rec.payload) {
                b = static_cast<std::uint8_t>(rng());
            }
            EXPECT_TRUE(
                writer.append(rec.type, rec.payload.data(), len));
            seg.records.push_back(std::move(rec));
        }
    }
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::uint8_t chunk[4096];
    std::size_t got;
    while ((got = std::fread(chunk, 1, sizeof chunk, f)) > 0) {
        seg.image.insert(seg.image.end(), chunk, chunk + got);
    }
    std::fclose(f);
    return seg;
}

/// End offset of each frame in the image (frame i spans
/// [ends[i-1], ends[i])); ends[-1] is the header.
std::vector<std::size_t> frame_ends(const written_segment& seg)
{
    std::vector<std::size_t> ends;
    std::size_t pos = base::wal_header_bytes;
    for (const base::wal_record& rec : seg.records) {
        pos += base::wal_frame_overhead + rec.payload.size();
        ends.push_back(pos);
    }
    return ends;
}

TEST(WalSegment, RoundTripIdentity)
{
    const std::string path = temp_path("roundtrip");
    const written_segment seg =
        write_segment(path, 25, test::fixture_seed(1));

    const base::wal_read_result result = base::wal_read(path);
    EXPECT_TRUE(result.header_ok);
    EXPECT_EQ(result.schema, 7u);
    EXPECT_TRUE(result.clean);
    EXPECT_EQ(result.file_bytes, seg.image.size());
    EXPECT_EQ(result.valid_bytes, seg.image.size());
    ASSERT_EQ(result.records.size(), seg.records.size());
    for (std::size_t i = 0; i < seg.records.size(); ++i) {
        EXPECT_EQ(result.records[i], seg.records[i]) << "record " << i;
    }
    std::remove(path.c_str());
}

TEST(WalSegment, HeaderOnlySegmentIsCleanAndEmpty)
{
    const std::string path = temp_path("empty");
    {
        base::wal_writer writer(path, 3);
    }
    const base::wal_read_result result = base::wal_read(path);
    EXPECT_TRUE(result.header_ok);
    EXPECT_EQ(result.schema, 3u);
    EXPECT_TRUE(result.clean);
    EXPECT_TRUE(result.records.empty());
    std::remove(path.c_str());
}

TEST(WalSegment, NotASegment)
{
    const std::uint8_t junk[] = {'n', 'o', 't', 'a', 'w', 'a', 'l'};
    const base::wal_read_result result =
        base::wal_recover(junk, sizeof junk);
    EXPECT_FALSE(result.header_ok);
    EXPECT_TRUE(result.records.empty());
    EXPECT_THROW(base::wal_read("wal_test_does_not_exist.wal"),
                 std::runtime_error);
}

TEST(WalSegment, AppendAfterCloseThrows)
{
    const std::string path = temp_path("closed");
    base::wal_writer writer(path, 1);
    writer.close();
    const std::uint8_t byte = 0;
    EXPECT_THROW(writer.append(1, &byte, 1), std::logic_error);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Fault injection: torn writes.
// ---------------------------------------------------------------------

TEST(WalFaults, TruncationAtEveryByteOffset)
{
    // Chop the segment at EVERY byte offset -- inside the header,
    // inside any frame, on any boundary -- and demand exactly the
    // records whose frames end at or before the cut.
    const written_segment seg =
        write_segment(temp_path("trunc"), 30, test::fixture_seed(2));
    std::remove(temp_path("trunc").c_str());
    const std::vector<std::size_t> ends = frame_ends(seg);

    for (std::size_t cut = 0; cut <= seg.image.size(); ++cut) {
        const base::wal_read_result result =
            base::wal_recover(seg.image.data(), cut);
        std::size_t expect = 0;
        while (expect < ends.size() && ends[expect] <= cut) {
            ++expect;
        }
        if (cut < base::wal_header_bytes) {
            EXPECT_FALSE(result.header_ok) << "cut at " << cut;
            EXPECT_TRUE(result.records.empty()) << "cut at " << cut;
            continue;
        }
        EXPECT_TRUE(result.header_ok) << "cut at " << cut;
        ASSERT_EQ(result.records.size(), expect) << "cut at " << cut;
        for (std::size_t i = 0; i < expect; ++i) {
            EXPECT_EQ(result.records[i], seg.records[i])
                << "cut at " << cut << ", record " << i;
        }
        // A cut landing exactly on a frame (or header) boundary leaves
        // no torn tail, so recovery reports it clean; anywhere else the
        // partial frame is the dirty tail.
        const bool on_boundary = cut == base::wal_header_bytes
            || (expect > 0 && ends[expect - 1] == cut);
        EXPECT_EQ(result.clean, on_boundary) << "cut at " << cut;
        // Recovery never claims bytes past the cut.
        EXPECT_LE(result.valid_bytes, cut) << "cut at " << cut;
    }
}

// ---------------------------------------------------------------------
// Fault injection: bit flips.
// ---------------------------------------------------------------------

TEST(WalFaults, SingleBitFlipAtEveryBit)
{
    // Flip every single bit of the segment, one at a time.  A flip in
    // the header invalidates the whole segment; a flip anywhere in
    // frame i (its length, CRC, type or payload) truncates recovery to
    // the frames before i; every recovered record is still verbatim.
    const written_segment seg =
        write_segment(temp_path("flip"), 12, test::fixture_seed(3));
    std::remove(temp_path("flip").c_str());
    const std::vector<std::size_t> ends = frame_ends(seg);

    std::vector<std::uint8_t> image = seg.image;
    for (std::size_t byte = 0; byte < image.size(); ++byte) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            image[byte] ^= static_cast<std::uint8_t>(1u << bit);
            const base::wal_read_result result = base::wal_recover(image);
            image[byte] ^= static_cast<std::uint8_t>(1u << bit);

            if (byte < base::wal_header_bytes) {
                EXPECT_FALSE(result.header_ok)
                    << "flip at " << byte << "." << bit;
                EXPECT_TRUE(result.records.empty());
                continue;
            }
            // The first frame whose span contains the damaged byte.
            std::size_t damaged = 0;
            while (damaged < ends.size() && ends[damaged] <= byte) {
                ++damaged;
            }
            EXPECT_TRUE(result.header_ok);
            ASSERT_EQ(result.records.size(), damaged)
                << "flip at " << byte << "." << bit;
            for (std::size_t i = 0; i < damaged; ++i) {
                EXPECT_EQ(result.records[i], seg.records[i])
                    << "flip at " << byte << "." << bit;
            }
            EXPECT_FALSE(result.clean)
                << "flip at " << byte << "." << bit;
        }
    }
}

TEST(WalFaults, RandomBurstCorruption)
{
    // Heavier damage than one bit: overwrite short random bursts at
    // random offsets.  The valid-prefix contract still holds: whatever
    // is recovered is a verbatim prefix of what was written.
    const written_segment seg =
        write_segment(temp_path("burst"), 40, test::fixture_seed(4));
    std::remove(temp_path("burst").c_str());

    std::mt19937_64 rng(test::fixture_seed(5));
    for (unsigned trial = 0; trial < 200; ++trial) {
        std::vector<std::uint8_t> image = seg.image;
        const std::size_t at = static_cast<std::size_t>(
            rng() % (image.size() - base::wal_header_bytes))
            + base::wal_header_bytes;
        const std::size_t burst =
            std::min<std::size_t>(1 + rng() % 16, image.size() - at);
        for (std::size_t i = 0; i < burst; ++i) {
            image[at + i] = static_cast<std::uint8_t>(rng());
        }
        const base::wal_read_result result = base::wal_recover(image);
        ASSERT_LE(result.records.size(), seg.records.size());
        for (std::size_t i = 0; i < result.records.size(); ++i) {
            // A burst that happens to rewrite a frame into another
            // valid frame would need a CRC32C collision; with seeded
            // deterministic damage this stays a strict equality check.
            EXPECT_EQ(result.records[i], seg.records[i])
                << "trial " << trial << ", record " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Bounded writer: drop, never tear.
// ---------------------------------------------------------------------

TEST(WalBounded, DropsWholeRecordsAtTheBound)
{
    const std::string path = temp_path("bounded");
    const std::size_t payload_len = 10;
    const std::uint64_t frame =
        base::wal_frame_overhead + payload_len;
    // Room for the header and exactly three frames.
    const std::uint64_t cap = base::wal_header_bytes + 3 * frame;
    std::vector<std::uint8_t> payload(payload_len, 0x5a);
    {
        base::wal_writer writer(path, 1, cap);
        for (unsigned i = 0; i < 5; ++i) {
            payload[0] = static_cast<std::uint8_t>(i);
            const bool accepted =
                writer.append(2, payload.data(), payload.size());
            EXPECT_EQ(accepted, i < 3) << "append " << i;
        }
        EXPECT_EQ(writer.records_written(), 3u);
        EXPECT_EQ(writer.records_dropped(), 2u);
        EXPECT_EQ(writer.bytes_written(), cap);
    }
    const base::wal_read_result result = base::wal_read(path);
    EXPECT_TRUE(result.header_ok);
    EXPECT_TRUE(result.clean);
    ASSERT_EQ(result.records.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(result.records[i].payload[0],
                  static_cast<std::uint8_t>(i));
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Write errors: loud, naming the path, never silent success.
// ---------------------------------------------------------------------

TEST(WalDiskFull, FlushAndCloseNameThePath)
{
    if (!test::dev_full_available()) {
        GTEST_SKIP() << test::kDevFull << " is not available";
    }
    const std::uint8_t payload[16] = {};
    {
        // A few small records sit in the stdio buffer until the flush.
        base::wal_writer writer(test::kDevFull, 1);
        EXPECT_TRUE(writer.append(2, payload, sizeof payload));
        const std::string err =
            test::runtime_error_of([&] { writer.flush(); });
        EXPECT_NE(err.find(test::kDevFull), std::string::npos) << err;
    }
    base::wal_writer writer(test::kDevFull, 1);
    EXPECT_TRUE(writer.append(2, payload, sizeof payload));
    const std::string err = test::runtime_error_of([&] { writer.close(); });
    EXPECT_NE(err.find(test::kDevFull), std::string::npos) << err;
    // The file is released either way: a second close is a no-op.
    EXPECT_NO_THROW(writer.close());
}

TEST(WalDiskFull, OverflowingAppendThrowsAndDestructorSwallows)
{
    if (!test::dev_full_available()) {
        GTEST_SKIP() << test::kDevFull << " is not available";
    }
    // Larger than the stdio buffer, so the append itself hits the disk.
    const std::vector<std::uint8_t> payload(std::size_t{1} << 20, 0x5a);
    base::wal_writer writer(test::kDevFull, 1);
    const std::string err =
        test::runtime_error_of([&] { writer.append(2, payload); });
    EXPECT_NE(err.find(test::kDevFull), std::string::npos) << err;
    // Leaving scope with the failed tail still buffered must not throw.
}

// ---------------------------------------------------------------------
// telemetry_log: any thread may produce.
// ---------------------------------------------------------------------

TEST(TelemetryLog, TwoProducersKeepEveryRecordInProducerOrder)
{
    // Both producers' records must reach the segment, each producer's in
    // the order it logged them.  The total stays within the pending
    // bound, so no record may be dropped however the writer is
    // scheduled.
    constexpr std::uint64_t kPerProducer = 1500;
    static_assert(2 * kPerProducer <= core::telemetry_max_pending);
    const std::string path = temp_path("two_producers");
    core::telemetry_config tcfg;
    tcfg.path = path;
    core::telemetry_log log(tcfg);
    const auto produce = [&log](std::uint64_t producer) {
        for (std::uint64_t seq = 0; seq < kPerProducer; ++seq) {
            const std::uint64_t words[2] = {producer, seq};
            log.log_window((producer << 32) | seq, words, 2);
        }
    };
    std::thread first(produce, 1);
    std::thread second(produce, 2);
    first.join();
    second.join();
    log.close();
    EXPECT_EQ(log.records_logged(), 2 * kPerProducer);
    EXPECT_EQ(log.records_dropped(), 0u);

    // A record logged after close() is dropped, not written.
    const std::uint64_t late[1] = {0};
    log.log_window(0, late, 1);
    EXPECT_EQ(log.records_logged(), 2 * kPerProducer);
    EXPECT_EQ(log.records_dropped(), 1u);

    const core::telemetry_run run = core::read_telemetry(path);
    std::remove(path.c_str());
    EXPECT_TRUE(run.clean);
    ASSERT_EQ(run.windows.size(), 2 * kPerProducer);
    std::uint64_t next[3] = {0, 0, 0};
    for (const core::evidence_window& win : run.windows) {
        const std::uint64_t producer = win.index >> 32;
        ASSERT_TRUE(producer == 1 || producer == 2) << win.index;
        const std::uint64_t seq = next[producer]++;
        ASSERT_EQ(win.index & 0xffffffffu, seq) << "producer " << producer;
        ASSERT_EQ(win.words, (std::vector<std::uint64_t>{producer, seq}));
    }
    EXPECT_EQ(next[1], kPerProducer);
    EXPECT_EQ(next[2], kPerProducer);
}

// ---------------------------------------------------------------------
// Telemetry record round trips (every record kind the log writes).
// ---------------------------------------------------------------------

core::supervision_event make_event(bool with_confirmation)
{
    core::supervision_event ev;
    ev.sequence = 3;
    ev.window_index = 41;
    ev.kind = with_confirmation
        ? core::supervision_event_kind::confirmed
        : core::supervision_event_kind::escalated;
    ev.dwell = 5;
    ev.from_design = "n=65536 light";
    ev.to_design = "n=65536 high";
    if (with_confirmation) {
        core::confirmation_result conf;
        conf.evidence_windows = 4;
        conf.evidence_bits = 4 * 65536;
        conf.confirmed = true;
        conf.battery.passed = 1;
        conf.battery.failed = 2;
        conf.battery.skipped = 1;
        conf.battery.entries = {
            {1, 0, 0.0012207031, true, false},
            {3, 0, 0.75, true, true},
            {11, 1, 1e-9, true, false},
            {14, 0, 0.0, false, false},
        };
        ev.confirmation = std::move(conf);
    }
    return ev;
}

TEST(TelemetryRecords, EventRoundTrip)
{
    for (const bool with_confirmation : {false, true}) {
        const core::supervision_event ev = make_event(with_confirmation);
        base::byte_sink sink;
        core::serialize_event(sink, ev);
        base::byte_cursor cursor(sink.bytes());
        const core::supervision_event back = core::parse_event(cursor);
        EXPECT_TRUE(cursor.exhausted());
        EXPECT_EQ(back, ev);
    }
}

TEST(TelemetryRecords, EventRejectsUnknownKind)
{
    base::byte_sink sink;
    core::serialize_event(sink, make_event(false));
    std::vector<std::uint8_t> bytes = sink.take();
    bytes[16] = 250; // the kind byte, after sequence and window_index
    base::byte_cursor cursor(bytes.data(), bytes.size());
    EXPECT_THROW(core::parse_event(cursor), std::runtime_error);
}

core::supervisor_checkpoint make_checkpoint()
{
    core::supervisor_checkpoint cp;
    cp.state = core::supervision_state::escalated;
    cp.pending_escalation = false;
    cp.clean_streak = 7;
    cp.alarm_history = {false, true, true, false, true};
    cp.alarm_sticky = true;
    cp.windows = 90;
    cp.failures = 11;
    cp.bits = 90 * 65536ULL;
    cp.windows_escalated = 30;
    cp.escalations = 2;
    cp.confirmed_escalations = 1;
    cp.de_escalations = 1;
    cp.has_first_escalation = true;
    cp.first_escalation_window = 12;
    cp.failures_by_test[hw::test_id::frequency] = 9;
    cp.failures_by_test[hw::test_id::runs] = 4;
    cp.evidence_ring.resize(2);
    cp.evidence_ring[0].index = 88;
    cp.evidence_ring[0].words = {0x0123456789abcdefULL, ~0ULL, 0ULL};
    cp.evidence_ring[1].index = 89;
    cp.evidence_ring[1].words = {42, 43, 44};
    cp.events = {make_event(false), make_event(true)};
    cp.monitor_windows = 90;
    return cp;
}

TEST(TelemetryRecords, CheckpointRoundTrip)
{
    const core::supervisor_checkpoint cp = make_checkpoint();
    const std::vector<std::uint8_t> bytes = core::serialize(cp);
    const core::supervisor_checkpoint back = core::parse_checkpoint(bytes);
    EXPECT_EQ(back, cp);
}

TEST(TelemetryRecords, CheckpointRejectsTrailingBytes)
{
    std::vector<std::uint8_t> bytes = core::serialize(make_checkpoint());
    bytes.push_back(0);
    EXPECT_THROW(core::parse_checkpoint(bytes), std::runtime_error);
    bytes.pop_back();
    bytes.pop_back();
    EXPECT_THROW(core::parse_checkpoint(bytes), std::runtime_error);
}

// A checkpoint without events ends in its u32 event count (0) and the
// u64 monitor_windows; the evidence ring (u32 size, then per entry a u64
// index, a u32 word count and the words) comes just before.
constexpr std::size_t empty_events_tail = 4 + 8;

core::supervisor_config pinned_config()
{
    core::supervisor_config cfg;
    cfg.baseline = core::paper_design(7, core::tier::light);
    cfg.escalated = core::paper_design(7, core::tier::medium);
    cfg.escalated.double_buffered = true;
    cfg.alpha = 0.001;
    cfg.fail_threshold = 2;
    cfg.policy_window = 8;
    cfg.evidence_windows = 8;
    cfg.dwell_windows = 16;
    cfg.offline_alpha = 0.01;
    cfg.offline_tests = nist::battery_selection().with(1).with(3).with(13);
    cfg.offline_min_failures = 2;
    return cfg;
}

TEST(TelemetryRecords, EveryKindRejectsTrailingBytes)
{
    // A CRC-valid record with bytes past its last field came from another
    // schema; parse_telemetry must throw naming the kind, as it does for
    // checkpoints (CheckpointRejectsTrailingBytes).
    base::byte_sink config;
    core::serialize_config(config, pinned_config());
    config.boolean(true); // log_windows
    base::byte_sink window;
    window.u64(5);
    window.u32(1);
    window.u64(0xfeedULL);
    base::byte_sink event;
    core::serialize_event(event, make_event(true));

    const struct {
        core::telemetry_record kind;
        const char* name;
        const base::byte_sink& payload;
    } records[] = {
        {core::telemetry_record::run_config, "run_config", config},
        {core::telemetry_record::window, "window", window},
        {core::telemetry_record::event, "event", event},
    };
    for (const auto& r : records) {
        base::wal_read_result wal;
        wal.header_ok = true;
        wal.schema = core::telemetry_schema;
        wal.records.push_back(
            {static_cast<std::uint8_t>(r.kind), r.payload.bytes()});
        EXPECT_NO_THROW(core::parse_telemetry(wal)) << r.name;
        wal.records.back().payload.push_back(0);
        const std::string err =
            test::runtime_error_of([&] { core::parse_telemetry(wal); });
        EXPECT_NE(err.find(r.name), std::string::npos)
            << r.name << ": " << err;
    }
}

TEST(TelemetryRecords, ForeignSchemaIsRefusedNamingBothSchemas)
{
    // A schema-1 segment carries a run_config in another layout: the
    // reader must refuse the segment up front, not misread its designs.
    const std::string path = temp_path("schema1");
    base::byte_sink config;
    core::serialize_config(config, pinned_config());
    config.boolean(true); // log_windows
    {
        base::wal_writer writer(path, 1);
        EXPECT_TRUE(writer.append(
            static_cast<std::uint8_t>(core::telemetry_record::run_config),
            config.bytes()));
    }
    const std::string err =
        test::runtime_error_of([&] { core::read_telemetry(path); });
    std::remove(path.c_str());
    EXPECT_NE(err.find("schema 1"), std::string::npos) << err;
    EXPECT_NE(err.find("schema " + std::to_string(core::telemetry_schema)),
              std::string::npos)
        << err;

    // The same records under this reader's schema parse.
    base::wal_read_result wal;
    wal.header_ok = true;
    wal.schema = core::telemetry_schema;
    wal.records.push_back(
        {static_cast<std::uint8_t>(core::telemetry_record::run_config),
         config.bytes()});
    EXPECT_TRUE(core::parse_telemetry(wal).has_config);
    wal.schema = core::telemetry_schema + 1;
    EXPECT_THROW(core::parse_telemetry(wal), std::runtime_error);
}

TEST(TelemetryRecords, SchemaTwoSegmentIsRefusedNamingBothSchemas)
{
    // Schema 2 wrote a battery entry as a u32 test number and its name;
    // since schema 3 the event writes the id.  A schema-2 segment must be
    // refused up front, naming both schemas, not read as ids.
    base::byte_sink event;
    event.u64(3);  // sequence
    event.u64(41); // window index
    event.u8(static_cast<std::uint8_t>(
        core::supervision_event_kind::confirmed));
    event.u64(0);  // dwell
    event.str({}); // from
    event.str({}); // to
    event.boolean(true);  // has a confirmation
    event.u64(1);         // evidence windows
    event.u64(128);       // evidence bits
    event.boolean(false); // confirmed
    event.u32(0);         // passed
    event.u32(1);         // failed
    event.u32(0);         // skipped
    event.u32(1);         // entries
    event.u32(11);        // the entry: test number and name
    event.str("serial P1");
    event.f64(1e-9);
    event.boolean(true);
    event.boolean(false);

    const std::string path = temp_path("schema2");
    {
        base::wal_writer writer(path, 2);
        EXPECT_TRUE(writer.append(
            static_cast<std::uint8_t>(core::telemetry_record::event),
            event.bytes()));
    }
    const std::string err =
        test::runtime_error_of([&] { core::read_telemetry(path); });
    std::remove(path.c_str());
    EXPECT_NE(err.find("schema 2"), std::string::npos) << err;
    EXPECT_NE(err.find("schema " + std::to_string(core::telemetry_schema)),
              std::string::npos)
        << err;
}

TEST(TelemetryRecords, EventRejectsAnUnknownEntryId)
{
    base::byte_sink sink;
    core::serialize_event(sink, make_event(true));
    std::vector<std::uint8_t> bytes = sink.take();
    // The last entry (test 14, sub 0) ends in its id, an f64 and two
    // bools; sub 5 is no excursion state.
    bytes[bytes.size() - 11] = 5;
    base::byte_cursor cursor(bytes.data(), bytes.size());
    const std::string err =
        test::runtime_error_of([&] { core::parse_event(cursor); });
    EXPECT_NE(err.find("test 14, sub 5"), std::string::npos) << err;
}

TEST(TelemetryRecords, DesignFieldWiderThanItsRegisterIsRefused)
{
    // Every field travels as a u32, wider than most registers: a value
    // past the register width is refused naming the register, not cut
    // down to one validate() might accept.
    const hw::block_config design =
        core::paper_design(7, core::tier::light);
    for (const hw::config_register& reg : hw::config_registers) {
        if (reg.width >= 32) {
            continue;
        }
        base::byte_sink sink;
        sink.str(design.name);
        for (const hw::config_register& field : hw::config_registers) {
            const std::uint64_t value = field.get(design);
            sink.u32(static_cast<std::uint32_t>(
                &field == &reg ? value | (std::uint64_t{1} << reg.width)
                               : value));
        }
        base::byte_cursor cursor(sink.bytes());
        const std::string err = test::runtime_error_of(
            [&] { core::parse_block_config(cursor); });
        EXPECT_NE(err.find(reg.name), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------
// On-disk format pins: one record of each kind written through a
// telemetry_log, its payload hashed and compared against the digest of
// the schema-4 writer.  A byte-format change fails here even when a
// round trip still succeeds.
// ---------------------------------------------------------------------

/// FNV-1a 64 of a payload.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : bytes) {
        h = (h ^ b) * 0x100000001b3ULL;
    }
    return h;
}

/// A confirmed event whose P-values are literal IEEE bit patterns, so
/// no libm result enters the pinned bytes.
core::supervision_event pinned_event()
{
    core::supervision_event ev = make_event(true);
    nist::battery_report& battery = ev.confirmation->battery;
    battery.entries[0].p_value = std::bit_cast<double>(0x3f50000000000000ULL);
    battery.entries[1].p_value = std::bit_cast<double>(0x3fe8000000000000ULL);
    battery.entries[2].p_value = std::bit_cast<double>(0x3e112e0be826d695ULL);
    battery.entries[3].p_value = std::bit_cast<double>(0x0000000000000001ULL);
    return ev;
}

TEST(TelemetryFormat, RecordPayloadsMatchPinnedDigests)
{
    const core::evidence_window win{
        77, {0x0123456789abcdefULL, ~0ULL, 0ULL, 0x8000000000000001ULL}};
    core::supervisor_checkpoint cp = make_checkpoint();
    cp.events = {make_event(false), pinned_event()};

    const std::string path = temp_path("format");
    {
        core::telemetry_config tcfg;
        tcfg.path = path;
        core::telemetry_log log(tcfg);
        log.log_run_config(pinned_config());
        log.log_window(win.index, win.words.data(), win.words.size());
        log.log_event(pinned_event());
        log.log_checkpoint(cp);
        log.close();
    }
    const base::wal_read_result wal = base::wal_read(path);
    std::remove(path.c_str());
    ASSERT_TRUE(wal.clean);
    ASSERT_EQ(wal.records.size(), 4u);

    // Digests of the schema-4 payloads; re-pin only for an intended
    // format change (and a new telemetry_schema).  Schema 2 changed the
    // run_config record only; schema 3 the battery entries of the event
    // record, and so of the checkpoint that carries events; schema 4 the
    // checkpoint's failure tally.
    const struct {
        core::telemetry_record kind;
        std::uint64_t digest;
    } want[] = {
        {core::telemetry_record::run_config, 0xd8c41d65991bacb0ULL},
        {core::telemetry_record::window, 0x6c4ce02f1ba3e9a5ULL},
        {core::telemetry_record::event, 0x589e9a850fe9be95ULL},
        {core::telemetry_record::checkpoint, 0x4e9476c77a8983d8ULL},
    };
    for (std::size_t i = 0; i < wal.records.size(); ++i) {
        EXPECT_EQ(wal.records[i].type,
                  static_cast<std::uint8_t>(want[i].kind));
        EXPECT_EQ(fnv1a(wal.records[i].payload), want[i].digest)
            << "record " << i << std::hex << ": got 0x"
            << fnv1a(wal.records[i].payload);
    }

    // The window record (written through the little-endian fast path)
    // is the same window encoded field by field, and a checkpoint ring
    // entry of that window carries exactly those bytes.
    base::byte_sink by_word;
    by_word.u64(win.index);
    by_word.u32(static_cast<std::uint32_t>(win.words.size()));
    for (const std::uint64_t word : win.words) {
        by_word.u64(word);
    }
    EXPECT_EQ(wal.records[1].payload, by_word.bytes());

    cp.evidence_ring = {win};
    cp.events.clear();
    const std::vector<std::uint8_t> ring_bytes = core::serialize(cp);
    const std::size_t entry = by_word.bytes().size();
    const std::size_t end = ring_bytes.size() - empty_events_tail;
    ASSERT_GE(end, entry);
    EXPECT_TRUE(std::equal(ring_bytes.begin()
                               + static_cast<std::ptrdiff_t>(end - entry),
                           ring_bytes.begin()
                               + static_cast<std::ptrdiff_t>(end),
                           by_word.bytes().begin(), by_word.bytes().end()));
}

// ---------------------------------------------------------------------
// Forged element counts: a payload that claims 0xFFFFFFFF elements and
// carries none must fail as the cursor's "truncated" error on the first
// missing element, never by reserving memory for the claim.
// ---------------------------------------------------------------------

/// `bytes` cut right after the u32 element count at offset `at`, with
/// that count forged to 0xFFFFFFFF.
std::vector<std::uint8_t> forged_count(std::vector<std::uint8_t> bytes,
                                       std::size_t at)
{
    bytes.resize(at + 4);
    std::fill(bytes.begin() + static_cast<std::ptrdiff_t>(at), bytes.end(),
              std::uint8_t{0xFF});
    return bytes;
}

template <class Parse>
void expect_truncated(Parse parse)
{
    try {
        parse();
        ADD_FAILURE() << "a forged element count parsed";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << e.what();
    }
}

TEST(ForgedCounts, WindowWordCount)
{
    base::byte_sink sink;
    sink.u64(7); // window index
    base::wal_read_result wal;
    wal.header_ok = true;
    wal.schema = core::telemetry_schema;
    wal.records.push_back(
        {static_cast<std::uint8_t>(core::telemetry_record::window),
         forged_count(sink.take(), 8)});
    expect_truncated([&] { core::parse_telemetry(wal); });
}

TEST(ForgedCounts, BatteryEntryCount)
{
    core::supervision_event ev = make_event(true);
    ev.confirmation->battery.entries.clear();
    base::byte_sink sink;
    core::serialize_event(sink, ev);
    // The entry count is the last field of an event without entries.
    const std::size_t at = sink.bytes().size() - 4;
    const auto bytes = forged_count(sink.take(), at);
    base::byte_cursor cursor(bytes);
    expect_truncated([&] { core::parse_event(cursor); });
}

TEST(ForgedCounts, AlarmHistoryCount)
{
    // The history count follows state (u8), pending (bool) and the
    // clean streak (u64).
    const auto bytes =
        forged_count(core::serialize(make_checkpoint()), 1 + 1 + 8);
    expect_truncated([&] { core::parse_checkpoint(bytes); });
}

TEST(ForgedCounts, EvidenceRingCount)
{
    core::supervisor_checkpoint cp = make_checkpoint();
    cp.evidence_ring.clear();
    cp.events.clear();
    const auto bytes = core::serialize(cp);
    expect_truncated([&] {
        core::parse_checkpoint(
            forged_count(bytes, bytes.size() - empty_events_tail - 4));
    });
}

TEST(ForgedCounts, EvidenceWordCount)
{
    core::supervisor_checkpoint cp = make_checkpoint();
    cp.evidence_ring.resize(1);
    cp.evidence_ring[0].words.clear();
    cp.events.clear();
    const auto bytes = core::serialize(cp);
    expect_truncated([&] {
        core::parse_checkpoint(
            forged_count(bytes, bytes.size() - empty_events_tail - 4));
    });
}

TEST(ForgedCounts, EventCount)
{
    core::supervisor_checkpoint cp = make_checkpoint();
    cp.events.clear();
    const auto bytes = core::serialize(cp);
    expect_truncated([&] {
        core::parse_checkpoint(
            forged_count(bytes, bytes.size() - empty_events_tail));
    });
}

TEST(TelemetryRecords, SupervisorConfigRoundTrip)
{
    core::supervisor_config cfg;
    cfg.baseline = core::paper_design(16, core::tier::light);
    cfg.baseline.double_buffered = true;
    // Fields of tests the light tier leaves out, at full register width.
    cfg.baseline.t7_template = 0xFFFF;
    cfg.baseline.t8_max_count = 0xF;
    cfg.baseline.validate();
    // A valid design whose fields reach past a byte: the codec must carry
    // every design register at its full width, serial_m included.
    cfg.escalated = core::paper_design(16, core::tier::medium);
    cfg.escalated.serial_m = 6;
    cfg.escalated.lr_log2_m = 10;
    cfg.escalated.lr_v_lo = 250;
    cfg.escalated.lr_v_hi = 260;
    cfg.escalated.validate();
    cfg.alpha = 0.0005;
    cfg.fail_threshold = 2;
    cfg.policy_window = 6;
    cfg.evidence_windows = 5;
    cfg.dwell_windows = 9;
    cfg.offline_alpha = 0.02;
    cfg.offline_tests =
        nist::battery_selection().with(1).with(3).with(13);
    cfg.offline_min_failures = 3;
    cfg.lane = core::ingest_lane::span;

    base::byte_sink sink;
    core::serialize_config(sink, cfg);
    base::byte_cursor cursor(sink.bytes());
    const core::supervisor_config back =
        core::parse_supervisor_config(cursor);
    EXPECT_TRUE(cursor.exhausted());

    EXPECT_EQ(back.baseline, cfg.baseline);
    EXPECT_EQ(back.escalated, cfg.escalated);
    EXPECT_EQ(back.escalated.serial_m, 6u);
    EXPECT_EQ(back.escalated.lr_v_hi, 260u);
    EXPECT_EQ(back.alpha, cfg.alpha);
    EXPECT_EQ(back.fail_threshold, cfg.fail_threshold);
    EXPECT_EQ(back.policy_window, cfg.policy_window);
    EXPECT_EQ(back.evidence_windows, cfg.evidence_windows);
    EXPECT_EQ(back.dwell_windows, cfg.dwell_windows);
    EXPECT_EQ(back.offline_alpha, cfg.offline_alpha);
    for (unsigned t = 1; t <= 15; ++t) {
        EXPECT_EQ(back.offline_tests.has(t), cfg.offline_tests.has(t));
    }
    EXPECT_EQ(back.offline_min_failures, cfg.offline_min_failures);
    EXPECT_EQ(back.lane, cfg.lane);

    // The lane travels as its enum code in the last byte: codes 0 and 3,
    // the retired word and bit-sliced lanes, restore as the span lane,
    // and codes past 3 are refused.
    std::vector<std::uint8_t> bytes = sink.bytes();
    bytes.back() = static_cast<std::uint8_t>(core::ingest_lane::per_bit);
    base::byte_cursor oracle(bytes);
    EXPECT_EQ(core::parse_supervisor_config(oracle).lane,
              core::ingest_lane::per_bit);
    for (const std::uint8_t retired : {0, 3}) {
        bytes.back() = retired;
        base::byte_cursor legacy(bytes);
        EXPECT_EQ(core::parse_supervisor_config(legacy).lane,
                  core::ingest_lane::span)
            << "lane code " << int{retired};
    }
    bytes.back() = 4;
    base::byte_cursor unknown(bytes);
    EXPECT_THROW(core::parse_supervisor_config(unknown), std::runtime_error);
}

} // namespace
