/**
 * @file
 * Protocol-grade tests for the wire format (net/protocol.hpp): bitwise
 * round trips, arbitrary fragmentation, and an adversarial corpus —
 * truncations, oversized lengths, garbage streams, and >=10k mutated
 * frames, none of which may crash the decoder or yield an accepted
 * sample that differs from what was sent.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "net/protocol.hpp"
#include "util/endian.hpp"
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

/** Bit-at-a-time reflected CRC-32: the definition, as the oracle. */
std::uint32_t
bitwiseCrc32(const std::uint8_t *data, std::size_t size,
             std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    for (std::size_t i = 0; i < size; ++i) {
        crc ^= data[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    return ~crc;
}

using CrcKernel = std::uint32_t (*)(const std::uint8_t *, std::size_t,
                                    std::uint32_t);

/**
 * Check @p kernel against the oracle at every length 0..4096, at
 * every buffer offset 0..15 (the CLMUL kernel's unaligned loads), for
 * three seeds.
 */
void
expectMatchesBitwise(CrcKernel kernel)
{
    constexpr std::size_t kMaxLen = 4096;
    Rng rng(31);
    std::vector<std::uint8_t> buf(kMaxLen + 16);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    for (const std::uint32_t seed : {0u, 0xFFFFFFFFu, 0x12345678u}) {
        for (std::size_t offset = 0; offset < 16; ++offset) {
            const std::uint8_t *data = buf.data() + offset;
            // The oracle extends one byte at a time by chaining.
            std::uint32_t expected = bitwiseCrc32(data, 0, seed);
            for (std::size_t len = 0; len <= kMaxLen; ++len) {
                ASSERT_EQ(kernel(data, len, seed), expected)
                    << "len " << len << " offset " << offset
                    << " seed " << seed;
                if (len < kMaxLen)
                    expected = bitwiseCrc32(data + len, 1, expected);
            }
        }
    }
}

TEST(Protocol, Crc32TableMatchesBitwiseReference)
{
    expectMatchesBitwise(&detail::crc32Table);
}

TEST(Protocol, Crc32ClmulMatchesBitwiseReference)
{
    if (!detail::crc32ClmulAvailable())
        GTEST_SKIP() << "this CPU has no PCLMULQDQ/SSE4.1; crc32() "
                        "runs the table kernel only";
    expectMatchesBitwise(&detail::crc32Clmul);
}

TEST(Protocol, Crc32ChainsAcrossTheClmulThreshold)
{
    // crc32(b, crc32(a)) == crc32(a||b) with a and b on either side
    // of the 64-byte threshold, so a chained header + payload CRC
    // mixes the two kernels freely.
    Rng rng(37);
    std::vector<std::uint8_t> buf(3 * detail::kCrc32ClmulMinSize);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.uniformInt(256));
    std::vector<CrcKernel> kernels = {&crc32, &detail::crc32Table};
    if (detail::crc32ClmulAvailable())
        kernels.push_back(&detail::crc32Clmul);
    const std::size_t half = buf.size() / 2;
    for (std::size_t a = 0; a <= half; ++a) {
        for (std::size_t b = 0; b <= half; ++b) {
            const std::uint32_t whole = bitwiseCrc32(buf.data(), a + b, 0);
            for (const CrcKernel kernel : kernels) {
                ASSERT_EQ(kernel(buf.data() + a, b,
                                 kernel(buf.data(), a, 0)),
                          whole)
                    << "a " << a << " b " << b;
            }
        }
    }
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
        const std::vector<double> row = decoded.sample.decodedRow();
        ASSERT_EQ(row.size(), sample.row.size());
        for (std::size_t i = 0; i < sample.row.size(); ++i)
            EXPECT_EQ(bits(row[i]), bits(sample.row[i]))
                << "row[" << i << "]";
    }
}

std::string
toHex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    for (const std::uint8_t b : bytes) {
        hex += digits[b >> 4];
        hex += digits[b & 0xF];
    }
    return hex;
}

double
fromBits(std::uint64_t u)
{
    double v;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

TEST(Protocol, EncodedBytesUnchangedFromParent)
{
    // Protocol version 1 frames as the byte-at-a-time encoder wrote
    // them: any encoder must reproduce these bytes exactly.
    SampleFrame full;
    full.tick = 0x0123456789ABCDEFull;
    full.machineId = "rack0-m07";
    full.hasMetered = true;
    full.meteredW = 187.25;
    full.row.resize(186);
    for (std::size_t i = 0; i < full.row.size(); ++i)
        full.row[i] = static_cast<double>(i * 37 % 101) * 0.25 - 3.0 +
                      static_cast<double>(i) * 1024.0;
    full.row[0] = fromBits(0x7FF80000DEADBEEFull); // NaN payload.
    full.row[1] = -0.0;
    full.row[2] = std::numeric_limits<double>::denorm_min();
    full.row[3] = std::numeric_limits<double>::infinity();
    full.row[4] = -std::numeric_limits<double>::infinity();
    std::vector<std::uint8_t> wire;
    encodeSample(full, wire);
    EXPECT_EQ(toHex(wire),
              "43570101ee050000534a0f57efcdab896745230109007261636b302d6d303701"
              "0000000000686740ba00efbeadde0000f87f0000000000000080010000000000"
              "0000000000000000f07f000000000000f0ff000000000012b440000000000002"
              "b84000000000400bbc4000000000400ac040000000004002c24000000000e006"
              "c44000000000e0fec540000000008003c840000000002008ca40000000002000"
              "cc4000000000c004ce4000000000b004d04000000000b000d140000000000003"
              "d240000000005005d340000000005001d44000000000a003d54000000000a0ff"
              "d54000000000f001d740000000004004d840000000004000d940000000009002"
              "da4000000000e004db4000000000e000dc40000000003003dd40000000008005"
              "de40000000008001df4000000000e801e04000000000e87fe040000000001001"
              "e140000000003882e140000000003800e240000000006081e240000000008802"
              "e340000000008880e34000000000b001e44000000000b07fe44000000000d800"
              "e540000000000082e540000000000000e640000000002881e640000000005002"
              "e740000000005080e740000000007801e84000000000a082e84000000000a000"
              "e94000000000c881e94000000000c8ffe94000000000f080ea40000000001802"
              "eb40000000001880eb40000000004001ec40000000006882ec40000000006800"
              "ed40000000009081ed4000000000b802ee4000000000b880ee4000000000e001"
              "ef4000000000e07fef40000000008400f040000000001841f040000000001880"
              "f04000000000acc0f040000000004001f140000000004040f14000000000d480"
              "f14000000000d4bff140000000006800f24000000000fc40f24000000000fc7f"
              "f2400000000090c0f240000000002401f340000000002440f34000000000b880"
              "f340000000004cc1f340000000004c00f44000000000e040f44000000000e07f"
              "f4400000000074c0f440000000000801f540000000000840f540000000009c80"
              "f5400000000030c1f540000000003000f64000000000c440f640000000005881"
              "f6400000000058c0f64000000000ec00f74000000000ec3ff740000000008080"
              "f7400000000014c1f740000000001400f84000000000a840f840000000003c81"
              "f840000000003cc0f84000000000d000f94000000000d03ff940000000006480"
              "f94000000000f8c0f94000000000f8fff940000000008c40fa40000000002081"
              "fa400000000020c0fa4000000000b400fb40000000004841fb40000000004880"
              "fb4000000000dcc0fb4000000000dcfffb40000000007040fc40000000000481"
              "fc400000000004c0fc40000000009800fd40000000002c41fd40000000002c80"
              "fd4000000000c0c0fd40000000005401fe40000000005440fe4000000000e880"
              "fe4000000000e8bffe40000000007c00ff40000000001041ff40000000001080"
              "ff4000000000a4c0ff40000000009c000041000000001c200041000000006640"
              "004100000000b06000410000000030800041000000007aa0004100000000fabf"
              "00410000000044e00041000000008e000141000000000e200141000000005840"
              "014100000000a26001410000000022800141000000006ca0014100000000ecbf"
              "01410000000036e0014100000000800002410000000000200241000000004a40"
              "024100000000946002410000000014800241000000005ea0024100000000a8c0"
              "02410000000028e00241000000007200034100000000f21f0341000000003c40"
              "0341000000008660034100000000068003410000000050a00341000000009ac0"
              "0341000000001ae00341000000006400044100000000ae200441000000002e40"
              "0441000000007860044100000000f87f04410000000042a00441000000008cc0"
              "0441000000000ce00441000000005600054100000000a0200541000000002040"
              "0541000000006a60054100000000ea7f05410000000034a00541000000007ec0"
              "054100000000fedf054100000000480006410000000092200641000000001240"
              "0641000000005c60064100000000a68006410000000026a006410000000070c0"
              "064100000000f0df0641000000003a0007410000000084200741");

    SampleFrame unmetered;
    unmetered.tick = 42;
    unmetered.machineId = "m";
    unmetered.hasMetered = false;
    unmetered.row = {1.0, -2.5, 1e300};
    wire.clear();
    encodeSample(unmetered, wire);
    EXPECT_EQ(toHex(wire),
              "435701012e0000000a976b3b2a0000000000000001006d00000000000000f87f"
              "0300000000000000f03f00000000000004c09c7500883ce4377e");

    CreditFrame credit;
    credit.acceptedTotal = 0x0102030405060708ull;
    credit.rejectedTotal = 17;
    credit.granted = 128;
    wire.clear();
    encodeCredit(credit, wire);
    EXPECT_EQ(toHex(wire),
              "435701021400000014fe9d600807060504030201110000000000000080000000");

    NackFrame nack;
    nack.rejectedTotal = 99;
    nack.reason = NackReason::UnknownMachine;
    wire.clear();
    encodeNack(nack, wire);
    EXPECT_EQ(toHex(wire),
              "4357010309000000712b3c1e630000000000000002");

    IntrospectFrame introspect;
    introspect.seq = 0xFEEDFACEull;
    wire.clear();
    encodeIntrospect(introspect, wire);
    EXPECT_EQ(toHex(wire),
              "43570104080000002b52fd78cefaedfe00000000");
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

TEST(Protocol, PreparedReadsDecodeAll)
{
    // A transport reads into prepare()'s space and commits less than
    // it asked for, as a socket read does; partial frames left at the
    // end slide to the front as the buffer is reused.
    Rng rng(41);
    std::vector<std::uint8_t> wire;
    std::vector<std::uint64_t> ticks;
    for (int i = 0; i < 200; ++i) {
        const SampleFrame sample = makeSample(rng, rng.uniformInt(190));
        ticks.push_back(sample.tick);
        encodeSample(sample, wire);
    }

    FrameReader reader;
    Frame frame;
    std::size_t decoded = 0;
    std::size_t off = 0;
    while (off < wire.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + rng.uniformInt(4096), wire.size() - off);
        std::uint8_t *dst = reader.prepare(4096);
        std::memcpy(dst, wire.data() + off, chunk);
        reader.commit(chunk);
        off += chunk;
        while (reader.next(frame) == DecodeStatus::Ok) {
            ASSERT_LT(decoded, ticks.size());
            EXPECT_EQ(frame.sample.tick, ticks[decoded]);
            ++decoded;
        }
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, ticks.size());
    EXPECT_EQ(reader.buffered(), 0u);
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
        case 0: {
            // Widths 0..31 put mutated payloads on both sides of the
            // CRC's 64-byte kernel threshold; a quarter are a full
            // catalog row.
            const std::size_t width =
                rng.uniformInt(4) == 0 ? 186 : rng.uniformInt(32);
            encodeSample(makeSample(rng, width), wire);
            break;
        }
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

// ---- Bind, Bound and SampleBatch --------------------------------------

/** A random Bind, Bound or SampleBatch frame appended to @p wire. */
void
encodeRandomSlotFrame(Rng &rng, std::vector<std::uint8_t> &wire)
{
    switch (rng.uniformInt(3)) {
    case 0: {
        encodeBind(static_cast<std::uint32_t>(rng.uniformInt(kMaxSlots)),
                   "machine" + std::to_string(rng.uniformInt(10000)), wire);
        break;
    }
    case 1: {
        std::vector<std::size_t> indices;
        for (std::size_t idx = rng.uniformInt(4); idx < 200;
             idx += 1 + rng.uniformInt(40))
            indices.push_back(idx);
        encodeBound(static_cast<std::uint32_t>(rng.uniformInt(64)),
                    indices, wire);
        break;
    }
    default: {
        SampleBatchEncoder batch;
        const std::size_t entries = 1 + rng.uniformInt(6);
        for (std::size_t e = 0; e < entries; ++e) {
            const SampleFrame s = makeSample(rng, rng.uniformInt(190));
            std::vector<std::size_t> indices;
            for (std::size_t idx = rng.uniformInt(3); idx < 190;
                 idx += 1 + rng.uniformInt(50))
                indices.push_back(idx);
            batch.add(wire, static_cast<std::uint32_t>(rng.uniformInt(64)),
                      s.tick, s.hasMetered, s.meteredW, s.row.data(),
                      s.row.size(), indices.data(), indices.size());
        }
        batch.seal(wire);
        break;
    }
    }
}

/** Re-stamp the CRC of the one frame in @p wire after an edit. */
void
restampCrc(std::vector<std::uint8_t> &wire)
{
    const std::size_t payloadLen = wire.size() - kHeaderSize;
    wire[4] = static_cast<std::uint8_t>(payloadLen);
    wire[5] = static_cast<std::uint8_t>(payloadLen >> 8);
    wire[6] = static_cast<std::uint8_t>(payloadLen >> 16);
    wire[7] = static_cast<std::uint8_t>(payloadLen >> 24);
    std::uint32_t crc = crc32(wire.data() + 2, 6);
    crc = crc32(wire.data() + kHeaderSize, payloadLen, crc);
    for (int i = 0; i < 4; ++i)
        wire[8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
}

/** The Bind, Bound and two-entry SampleBatch the golden test pins. */
std::vector<std::uint8_t>
goldenSlotFrames()
{
    std::vector<std::uint8_t> wire;
    encodeBind(3, "rack0-m07", wire);
    encodeBound(3, {2, 5, 190}, wire);

    std::vector<double> wide(186);
    for (std::size_t i = 0; i < wide.size(); ++i)
        wide[i] = 0.5 * static_cast<double>(i);
    const std::vector<double> narrow = {
        -1.5, -0.0, fromBits(0x7FF80000DEADBEEFull), 3.0};
    const std::vector<std::size_t> three = {2, 5, 190};
    const std::vector<std::size_t> two = {1, 2};
    SampleBatchEncoder batch;
    batch.add(wire, 3, 0x0102030405060708ull, true, 187.25, wide.data(),
              wide.size(), three.data(), three.size());
    batch.add(wire, 0, 9, false, std::numeric_limits<double>::quiet_NaN(),
              narrow.data(), narrow.size(), two.data(), two.size());
    batch.seal(wire);
    return wire;
}

TEST(Protocol, SlotFramesGoldenBytes)
{
    // Bind{3, "rack0-m07"}, Bound{3, [2, 5, 190]}, and a SampleBatch of
    // two entries: slot 3, metered, a 186-wide row at [2, 5, 190]
    // (190 is past the row: NaN), and slot 0, unmetered, a 4-wide row
    // at [1, 2] (-0.0 and a NaN payload, bit for bit).
    EXPECT_EQ(toHex(goldenSlotFrames()),
              "435701060f0000008fffa6bd0300000009007261636b302d6d3037"
              "435701070c00000033d1b8f603000000030002000500be00"
              "435701085e000000da60ba5c0200000003000000080706050403020101000000"
              "0000686740ba000300000000000000f03f0000000000000440000000000000f8"
              "7f00000000090000000000000000000000000000f87f04000200000000000000"
              "0080efbeadde0000f87f");
}

TEST(Protocol, SlotFramesRoundTrip)
{
    const std::vector<std::uint8_t> wire = goldenSlotFrames();
    Frame out;
    std::size_t at = 0;

    DecodeResult res = decodeFrame(wire.data(), wire.size(), out);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(out.type, FrameType::Bind);
    EXPECT_EQ(out.bind.slot, 3u);
    EXPECT_EQ(out.bind.machineId, "rack0-m07");
    at += res.consumed;

    res = decodeFrame(wire.data() + at, wire.size() - at, out);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    ASSERT_EQ(out.type, FrameType::Bound);
    EXPECT_EQ(out.bound.slot, 3u);
    EXPECT_EQ(out.bound.indices, (std::vector<std::size_t>{2, 5, 190}));
    at += res.consumed;

    res = decodeFrame(wire.data() + at, wire.size() - at, out);
    ASSERT_EQ(res.status, DecodeStatus::Ok) << res.error;
    EXPECT_EQ(at + res.consumed, wire.size());
    ASSERT_EQ(out.type, FrameType::SampleBatch);
    ASSERT_EQ(out.batch.count, 2u);
    BatchEntry e;
    const std::uint8_t *p = readBatchEntry(out.batch.entries, e);
    EXPECT_EQ(e.slot, 3u);
    EXPECT_EQ(e.tick, 0x0102030405060708ull);
    EXPECT_TRUE(e.hasMetered);
    EXPECT_EQ(e.meteredW, 187.25);
    EXPECT_EQ(e.rowWidth, 186u);
    ASSERT_EQ(e.valueCount, 3u);
    EXPECT_EQ(loadLE<double>(e.values), 1.0);
    EXPECT_EQ(loadLE<double>(e.values + 8), 2.5);
    EXPECT_TRUE(std::isnan(loadLE<double>(e.values + 16)));
    p = readBatchEntry(p, e);
    EXPECT_EQ(p, wire.data() + wire.size());
    EXPECT_EQ(e.slot, 0u);
    EXPECT_EQ(e.tick, 9u);
    EXPECT_FALSE(e.hasMetered);
    EXPECT_EQ(e.rowWidth, 4u);
    ASSERT_EQ(e.valueCount, 2u);
    EXPECT_EQ(bits(loadLE<double>(e.values)), bits(-0.0));
    EXPECT_EQ(bits(loadLE<double>(e.values + 8)), 0x7FF80000DEADBEEFull);
}

TEST(Protocol, SlotFramesEveryTruncationNeedsMore)
{
    const std::vector<std::uint8_t> wire = goldenSlotFrames();
    Frame out;
    std::size_t at = 0;
    int frames = 0;
    while (at < wire.size()) {
        const DecodeResult whole =
            decodeFrame(wire.data() + at, wire.size() - at, out);
        ASSERT_EQ(whole.status, DecodeStatus::Ok) << whole.error;
        for (std::size_t prefix = 0; prefix < whole.consumed; ++prefix) {
            EXPECT_EQ(decodeFrame(wire.data() + at, prefix, out).status,
                      DecodeStatus::NeedMore)
                << "frame " << frames << " prefix " << prefix;
        }
        at += whole.consumed;
        ++frames;
    }
    EXPECT_EQ(frames, 3);
}

TEST(Protocol, SlotFramesSingleByteFragmentationDecodesAll)
{
    Rng rng(43);
    std::vector<std::uint8_t> wire;
    std::vector<std::size_t> frameEnds;
    for (int i = 0; i < 60; ++i) {
        encodeRandomSlotFrame(rng, wire);
        frameEnds.push_back(wire.size());
    }
    // Whole-buffer decode is the reference for the fragmented one.
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::size_t i = 0, at = 0; i < frameEnds.size(); ++i) {
        frames.emplace_back(wire.begin() + static_cast<std::ptrdiff_t>(at),
                            wire.begin() +
                                static_cast<std::ptrdiff_t>(frameEnds[i]));
        at = frameEnds[i];
    }

    FrameReader reader;
    Frame frame, whole;
    std::size_t decoded = 0;
    for (std::uint8_t byte : wire) {
        reader.append(&byte, 1);
        while (reader.next(frame) == DecodeStatus::Ok) {
            ASSERT_LT(decoded, frames.size());
            const std::vector<std::uint8_t> &ref = frames[decoded];
            ASSERT_EQ(decodeFrame(ref.data(), ref.size(), whole).status,
                      DecodeStatus::Ok);
            ASSERT_EQ(frame.type, whole.type);
            if (frame.type == FrameType::Bind) {
                EXPECT_EQ(frame.bind.slot, whole.bind.slot);
                EXPECT_EQ(frame.bind.machineId, whole.bind.machineId);
            } else if (frame.type == FrameType::Bound) {
                EXPECT_EQ(frame.bound.slot, whole.bound.slot);
                EXPECT_EQ(frame.bound.indices, whole.bound.indices);
            } else {
                ASSERT_EQ(frame.type, FrameType::SampleBatch);
                ASSERT_EQ(frame.batch.count, whole.batch.count);
                // Entries in place: compare their bytes.
                const std::size_t len =
                    ref.size() - static_cast<std::size_t>(
                                     whole.batch.entries - ref.data());
                EXPECT_EQ(std::memcmp(frame.batch.entries,
                                      whole.batch.entries, len),
                          0);
            }
            ++decoded;
        }
        ASSERT_TRUE(reader.error().empty()) << reader.error();
    }
    EXPECT_EQ(decoded, frames.size());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Protocol, FuzzMutatedSlotFramesNeverAccepted)
{
    Rng rng(47);
    std::vector<std::uint8_t> wire;
    Frame out;
    int mutations = 0;
    while (mutations < 12000) {
        wire.clear();
        encodeRandomSlotFrame(rng, wire);
        for (int m = 0; m < 8; ++m, ++mutations) {
            std::vector<std::uint8_t> corrupt = wire;
            const std::size_t pos = rng.uniformInt(corrupt.size());
            const std::uint8_t delta =
                static_cast<std::uint8_t>(1 + rng.uniformInt(255));
            corrupt[pos] = static_cast<std::uint8_t>(corrupt[pos] ^ delta);
            const DecodeResult res =
                decodeFrame(corrupt.data(), corrupt.size(), out);
            EXPECT_NE(res.status, DecodeStatus::Ok)
                << "mutation at byte " << pos << " of " << corrupt.size()
                << " xor " << static_cast<int>(delta) << " was accepted";
        }
    }
}

TEST(Protocol, SampleBatchStructuralRejects)
{
    const std::vector<double> row(8, 1.0);
    const std::vector<std::size_t> indices = {1, 3};
    const auto oneEntry = [&] {
        std::vector<std::uint8_t> wire;
        SampleBatchEncoder batch;
        batch.add(wire, 0, 1, true, 5.0, row.data(), row.size(),
                  indices.data(), indices.size());
        batch.seal(wire);
        return wire;
    };
    const auto rejects = [](std::vector<std::uint8_t> wire,
                            const char *what) {
        restampCrc(wire);
        Frame out;
        const DecodeResult res = decodeFrame(wire.data(), wire.size(), out);
        EXPECT_EQ(res.status, DecodeStatus::Error) << what;
        EXPECT_NE(res.error.find("sample batch"), std::string::npos)
            << what << ": " << res.error;
    };
    const std::size_t payload = kHeaderSize;
    const std::size_t entry = payload + 4;

    std::vector<std::uint8_t> wire = oneEntry();
    wire[payload] = 2; // Claims two entries, holds one.
    rejects(wire, "count above the entries");
    wire = oneEntry();
    wire[payload] = 0;
    rejects(wire, "zero entries");
    wire = oneEntry();
    wire.push_back(0); // A stray byte after the last entry.
    rejects(wire, "payload longer than its entries");
    wire = oneEntry();
    const std::vector<std::uint8_t> first(
        wire.begin() + static_cast<std::ptrdiff_t>(entry), wire.end());
    wire.insert(wire.end(), first.begin(), first.end());
    rejects(wire, "count below the entries");
    wire = oneEntry();
    storeLE(wire.data() + entry + 21,
            static_cast<std::uint16_t>(kMaxRowLen + 1));
    rejects(wire, "row width over kMaxRowLen");
    wire = oneEntry();
    storeLE(wire.data() + entry + 23,
            static_cast<std::uint16_t>(kMaxRowLen + 1));
    rejects(wire, "value count over kMaxRowLen");
    wire = oneEntry();
    storeLE(wire.data() + entry + 23, static_cast<std::uint16_t>(3));
    rejects(wire, "values overrun the payload");
    wire = oneEntry();
    wire[entry + 12] = 2;
    rejects(wire, "metered flag neither 0 nor 1");

    // The encoder refuses what the decoder would.
    std::vector<std::uint8_t> sink;
    SampleBatchEncoder batch;
    const std::vector<double> wide(kMaxRowLen + 1, 0.0);
    EXPECT_THROW(batch.add(sink, 0, 0, false, 0.0, wide.data(), wide.size(),
                           indices.data(), indices.size()),
                 RecoverableError);
}

TEST(Protocol, BindAndBoundRejects)
{
    Frame out;
    std::vector<std::uint8_t> wire;
    EXPECT_THROW(encodeBind(kMaxSlots, "m0", wire), RecoverableError);
    EXPECT_THROW(encodeBind(0, "", wire), RecoverableError);
    EXPECT_THROW(encodeBound(0, {5, 5}, wire), RecoverableError);
    EXPECT_THROW(encodeBound(0, {kMaxRowLen}, wire), RecoverableError);
    ASSERT_TRUE(wire.empty());

    encodeBind(0, "m0", wire);
    storeLE(wire.data() + kHeaderSize, kMaxSlots); // Slot out of range.
    restampCrc(wire);
    EXPECT_EQ(decodeFrame(wire.data(), wire.size(), out).status,
              DecodeStatus::Error);

    wire.clear();
    encodeBound(1, {4, 9}, wire);
    storeLE(wire.data() + kHeaderSize + 6, static_cast<std::uint16_t>(9));
    restampCrc(wire); // Indices 9, 9: not ascending.
    EXPECT_EQ(decodeFrame(wire.data(), wire.size(), out).status,
              DecodeStatus::Error);
}

} // namespace
} // namespace chaos::net
