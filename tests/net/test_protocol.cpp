/**
 * @file
 * Protocol-grade tests for the wire format (net/protocol.hpp): bitwise
 * round trips, arbitrary fragmentation, and an adversarial corpus —
 * truncations, oversized lengths, garbage streams, and >=10k mutated
 * frames, none of which may crash the decoder or yield an accepted
 * sample that differs from what was sent.
 */
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "net/protocol.hpp"
#include "util/random.hpp"
#include "util/result.hpp"

namespace chaos::net {
namespace {

std::uint64_t
bits(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

SampleFrame
makeSample(Rng &rng, std::size_t rowLen)
{
    SampleFrame sample;
    sample.tick = rng.nextU64();
    sample.machineId =
        "machine" + std::to_string(rng.uniformInt(10000));
    sample.hasMetered = rng.uniformInt(2) == 0;
    sample.meteredW = sample.hasMetered
                          ? rng.uniform(-500.0, 500.0)
                          : std::numeric_limits<double>::quiet_NaN();
    sample.row.resize(rowLen);
    for (double &v : sample.row)
        v = rng.uniform(-1e6, 1e6);
    return sample;
}

TEST(Protocol, Crc32KnownAnswer)
{
    // The IEEE 802.3 check value for "123456789".
    const char *text = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(text), 9),
              0xCBF43926u);
}

TEST(Protocol, SampleRoundTripIsBitwise)
{
    Rng rng(7);
    for (int iter = 0; iter < 200; ++iter) {
        SampleFrame sample = makeSample(rng, rng.uniformInt(64));
        // Exercise non-finite row values too: NaN payloads must
        // survive bit-for-bit, not collapse through text formatting.
        if (!sample.row.empty()) {
            sample.row[0] = std::numeric_limits<double>::quiet_NaN();
            if (sample.row.size() > 1)
                sample.row[1] =
                    -std::numeric_limits<double>::infinity();
        }

        std::vector<std::uint8_t> wire;
        const std::size_t n = encodeSample(sample, wire);
        EXPECT_EQ(n, wire.size());

        Frame decoded;
        const DecodeResult res =
            decodeFrame(wire.data(), wire.size(), decoded);
        ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
        EXPECT_EQ(res.consumed, wire.size());
        ASSERT_EQ(decoded.type, FrameType::Sample);
        EXPECT_EQ(decoded.sample.tick, sample.tick);
        EXPECT_EQ(decoded.sample.machineId, sample.machineId);
        EXPECT_EQ(decoded.sample.hasMetered, sample.hasMetered);
        EXPECT_EQ(bits(decoded.sample.meteredW),
                  bits(sample.meteredW));
        ASSERT_EQ(decoded.sample.row.size(), sample.row.size());
        for (std::size_t i = 0; i < sample.row.size(); ++i)
            EXPECT_EQ(bits(decoded.sample.row[i]),
                      bits(sample.row[i]))
                << "row[" << i << "]";
    }
}

TEST(Protocol, CreditAndNackRoundTrip)
{
    CreditFrame credit;
    credit.acceptedTotal = 0xdeadbeefcafe1234ull;
    credit.rejectedTotal = 17;
    credit.granted = 4096;
    std::vector<std::uint8_t> wire;
    encodeCredit(credit, wire);

    Frame decoded;
    DecodeResult res = decodeFrame(wire.data(), wire.size(), decoded);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(decoded.type, FrameType::Credit);
    EXPECT_EQ(decoded.credit.acceptedTotal, credit.acceptedTotal);
    EXPECT_EQ(decoded.credit.rejectedTotal, credit.rejectedTotal);
    EXPECT_EQ(decoded.credit.granted, credit.granted);

    NackFrame nack;
    nack.rejectedTotal = 99;
    nack.reason = NackReason::UnknownMachine;
    wire.clear();
    encodeNack(nack, wire);
    res = decodeFrame(wire.data(), wire.size(), decoded);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(decoded.type, FrameType::Nack);
    EXPECT_EQ(decoded.nack.rejectedTotal, nack.rejectedTotal);
    EXPECT_EQ(decoded.nack.reason, nack.reason);
}

TEST(Protocol, EveryTruncationNeedsMore)
{
    Rng rng(11);
    const SampleFrame sample = makeSample(rng, 24);
    std::vector<std::uint8_t> wire;
    encodeSample(sample, wire);

    Frame out;
    for (std::size_t prefix = 0; prefix < wire.size(); ++prefix) {
        const DecodeResult res =
            decodeFrame(wire.data(), prefix, out);
        EXPECT_EQ(res.status, DecodeStatus::NeedMore)
            << "prefix " << prefix << " of " << wire.size();
    }
}

TEST(Protocol, SingleByteFragmentationDecodesAll)
{
    Rng rng(13);
    std::vector<std::uint8_t> wire;
    std::vector<SampleFrame> sent;
    for (int i = 0; i < 20; ++i) {
        sent.push_back(makeSample(rng, rng.uniformInt(32)));
        encodeSample(sent.back(), wire);
    }

    FrameReader reader;
    Frame frame;
    std::size_t decoded = 0;
    for (std::uint8_t byte : wire) {
        reader.append(&byte, 1);
        while (reader.next(frame) == DecodeStatus::Ok) {
            ASSERT_LT(decoded, sent.size());
            EXPECT_EQ(frame.sample.tick, sent[decoded].tick);
            EXPECT_EQ(frame.sample.machineId,
                      sent[decoded].machineId);
            ++decoded;
        }
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, sent.size());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, InterleavedRandomChunksDecodeAll)
{
    Rng rng(17);
    std::vector<std::uint8_t> wire;
    std::size_t frames = 0;
    for (int i = 0; i < 50; ++i, ++frames)
        encodeSample(makeSample(rng, rng.uniformInt(48)), wire);

    FrameReader reader;
    Frame frame;
    std::size_t decoded = 0;
    std::size_t off = 0;
    while (off < wire.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + rng.uniformInt(97), wire.size() - off);
        reader.append(wire.data() + off, chunk);
        off += chunk;
        while (reader.next(frame) == DecodeStatus::Ok)
            ++decoded;
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, frames);
}

TEST(Protocol, FuzzMutatedFramesNeverAccepted)
{
    Rng rng(23);
    std::vector<std::uint8_t> wire;
    Frame out;
    int mutations = 0;
    while (mutations < 12000) {
        wire.clear();
        switch (rng.uniformInt(3)) {
        case 0:
            encodeSample(makeSample(rng, rng.uniformInt(32)), wire);
            break;
        case 1: {
            CreditFrame credit;
            credit.acceptedTotal = rng.nextU64();
            credit.rejectedTotal = rng.nextU64();
            credit.granted =
                static_cast<std::uint32_t>(rng.nextU64());
            encodeCredit(credit, wire);
            break;
        }
        default: {
            NackFrame nack;
            nack.rejectedTotal = rng.nextU64();
            nack.reason = NackReason::Backpressure;
            encodeNack(nack, wire);
            break;
        }
        }

        for (int m = 0; m < 8; ++m, ++mutations) {
            std::vector<std::uint8_t> corrupt = wire;
            const std::size_t pos = rng.uniformInt(corrupt.size());
            const std::uint8_t delta = static_cast<std::uint8_t>(
                1 + rng.uniformInt(255));
            corrupt[pos] = static_cast<std::uint8_t>(
                corrupt[pos] ^ delta);
            const DecodeResult res =
                decodeFrame(corrupt.data(), corrupt.size(), out);
            // A mutated frame may look like a prefix of a longer one
            // (length-field mutations) but must NEVER decode as Ok:
            // the checksum catches every content mutation.
            EXPECT_NE(res.status, DecodeStatus::Ok)
                << "mutation at byte " << pos << " xor "
                << static_cast<int>(delta) << " was accepted";
        }
    }
}

TEST(Protocol, GarbageStreamsErrorImmediately)
{
    Rng rng(29);
    Frame out;
    for (int iter = 0; iter < 2000; ++iter) {
        std::vector<std::uint8_t> junk(1 + rng.uniformInt(256));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.uniformInt(256));
        // Ensure it cannot be a valid stream start. A leading '{' is
        // garbage like any other byte: there is no text framing.
        if (junk[0] == 'C')
            junk[0] = 0xEE;
        if (iter % 8 == 0)
            junk[0] = '{';
        FrameReader reader;
        reader.append(junk.data(), junk.size());
        EXPECT_EQ(reader.next(out), DecodeStatus::Error);
        EXPECT_FALSE(reader.error().empty());
        // Sticky: appending valid bytes afterwards cannot recover.
        std::vector<std::uint8_t> valid;
        encodeCredit(CreditFrame{}, valid);
        reader.append(valid.data(), valid.size());
        EXPECT_EQ(reader.next(out), DecodeStatus::Error);
    }
}

TEST(Protocol, OversizedLengthPrefixIsError)
{
    std::vector<std::uint8_t> wire;
    encodeCredit(CreditFrame{}, wire);
    // Patch the little-endian payload length (bytes 4..8) beyond the
    // cap; the decoder must refuse before buffering a "frame" that
    // large, whatever the checksum says.
    const std::uint32_t huge = kMaxPayloadLen + 1;
    std::memcpy(wire.data() + 4, &huge, sizeof(huge));
    Frame out;
    const DecodeResult res =
        decodeFrame(wire.data(), wire.size(), out);
    EXPECT_EQ(res.status, DecodeStatus::Error);
}

TEST(Protocol, OverlongMachineIdAndRowAreRejected)
{
    Rng rng(31);
    SampleFrame sample = makeSample(rng, 4);
    sample.machineId.assign(kMaxMachineIdLen + 1, 'x');
    std::vector<std::uint8_t> wire;
    EXPECT_THROW(encodeSample(sample, wire), RecoverableError);

    sample = makeSample(rng, 4);
    sample.row.assign(kMaxRowLen + 1, 0.0);
    wire.clear();
    EXPECT_THROW(encodeSample(sample, wire), RecoverableError);
}

TEST(Protocol, DecodeFrameOrRaiseContract)
{
    Rng rng(37);
    std::vector<std::uint8_t> wire;
    encodeSample(makeSample(rng, 8), wire);

    Frame out;
    std::size_t consumed = 0;
    // Prefix: false, no throw.
    EXPECT_FALSE(
        decodeFrameOrRaise(wire.data(), wire.size() - 1, out,
                           consumed));
    // Whole frame: true.
    EXPECT_TRUE(decodeFrameOrRaise(wire.data(), wire.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, wire.size());
    // Corrupt frame: raises the library's recoverable error.
    wire[wire.size() / 2] ^= 0x5a;
    EXPECT_THROW(
        decodeFrameOrRaise(wire.data(), wire.size(), out, consumed),
        RecoverableError);
}

TEST(Protocol, IntrospectAndSnapshotRoundTrip)
{
    IntrospectFrame ask;
    ask.seq = 0xfeedface12345678ull;
    std::vector<std::uint8_t> buf;
    encodeIntrospect(ask, buf);

    Frame out;
    std::size_t consumed = 0;
    ASSERT_TRUE(decodeFrameOrRaise(buf.data(), buf.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, buf.size());
    ASSERT_EQ(out.type, FrameType::Introspect);
    EXPECT_EQ(out.introspect.seq, ask.seq);

    SnapshotFrame reply;
    reply.seq = ask.seq;
    reply.json = "{\"type\": \"chaos_top\", \"fleet\": {\"w\": 1.5},"
                 " \"stage_latency\": {\"e2e_us\": {\"p99\": 42}}}";
    buf.clear();
    encodeSnapshot(reply, buf);
    ASSERT_TRUE(decodeFrameOrRaise(buf.data(), buf.size(), out,
                                   consumed));
    EXPECT_EQ(consumed, buf.size());
    ASSERT_EQ(out.type, FrameType::Snapshot);
    EXPECT_EQ(out.snapshot.seq, reply.seq);
    EXPECT_EQ(out.snapshot.json, reply.json);
}

TEST(Protocol, SnapshotSurvivesSingleByteFragmentation)
{
    SnapshotFrame reply;
    reply.seq = 7;
    reply.json = "{\"nested\": {\"deep\": [1, 2, 3]}, "
                 "\"text\": \"quoted \\\"stuff\\\" here\"}";
    std::vector<std::uint8_t> buf;
    encodeIntrospect(IntrospectFrame{3}, buf);
    encodeSnapshot(reply, buf);

    FrameReader reader;
    Frame out;
    int decoded = 0;
    for (std::uint8_t byte : buf) {
        reader.append(&byte, 1);
        while (reader.next(out) == DecodeStatus::Ok) {
            ++decoded;
            if (out.type == FrameType::Snapshot) {
                EXPECT_EQ(out.snapshot.seq, reply.seq);
                EXPECT_EQ(out.snapshot.json, reply.json);
            }
        }
    }
    EXPECT_EQ(decoded, 2);
}

TEST(Protocol, SnapshotEncodeRejectsBadPayloads)
{
    std::vector<std::uint8_t> buf;
    SnapshotFrame bad;
    bad.seq = 1;
    bad.json = "{\"unterminated\": ";
    EXPECT_RAISES(encodeSnapshot(bad, buf),
                  "not well-formed JSON");

    // A payload that would overflow the frame cap is a caller bug
    // surfaced at encode time, never a giant frame on the wire.
    SnapshotFrame huge;
    huge.seq = 1;
    huge.json = "{\"pad\": \"" +
                std::string(kMaxPayloadLen, 'x') + "\"}";
    EXPECT_RAISES(encodeSnapshot(huge, buf), "size cap");
}

TEST(Protocol, SnapshotDecodeRejectsNonJsonPayload)
{
    // encodeSnapshot refuses bad payloads, so hand-corrupt a valid
    // frame and re-seal its CRC: the decoder must then reject on the
    // JSON check, not the checksum.
    SnapshotFrame ok;
    ok.seq = 5;
    ok.json = "{\"a\": 1}";
    std::vector<std::uint8_t> buf;
    encodeSnapshot(ok, buf);
    buf[buf.size() - ok.json.size()] = '?'; // "{" -> "?"
    const std::size_t payloadLen = buf.size() - kHeaderSize;
    std::uint32_t crc = crc32(buf.data() + 2, 6);
    crc = crc32(buf.data() + kHeaderSize, payloadLen, crc);
    for (int i = 0; i < 4; ++i)
        buf[8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));

    Frame out;
    const DecodeResult res = decodeFrame(buf.data(), buf.size(), out);
    ASSERT_EQ(res.status, DecodeStatus::Error);
    EXPECT_NE(res.error.find("not JSON"), std::string::npos)
        << res.error;
}

} // namespace
} // namespace chaos::net
