#include "net/protocol.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "obs/json.hpp"
#include "util/endian.hpp"
#include "util/result.hpp"

namespace chaos::net {

namespace {

constexpr std::uint8_t kMagic0 = 'C';
constexpr std::uint8_t kMagic1 = 'W';

/**
 * A counter row is @p n little-endian doubles back to back, which on
 * a little-endian host is exactly its memory image: one copy.
 */
void
storeRow(std::uint8_t *p, const double *row, std::size_t n)
{
    if constexpr (kLittleEndianHost) {
        if (n > 0)
            std::memcpy(p, row, n * sizeof(double));
    } else {
        for (std::size_t i = 0; i < n; ++i)
            storeLE(p + 8 * i, row[i]);
    }
}

void
loadRow(double *row, const std::uint8_t *p, std::size_t n)
{
    if constexpr (kLittleEndianHost) {
        if (n > 0)
            std::memcpy(row, p, n * sizeof(double));
    } else {
        for (std::size_t i = 0; i < n; ++i)
            row[i] = loadLE<double>(p + 8 * i);
    }
}

/**
 * Payload reader with bounds checking: every get() fails (sets bad)
 * instead of reading past the declared payload, so a length field
 * that lies about its own payload is caught structurally even before
 * the checksum would have.
 */
struct PayloadReader
{
    const std::uint8_t *p;
    std::size_t left;
    bool bad = false;

    bool
    take(std::size_t n)
    {
        if (left < n) {
            bad = true;
            return false;
        }
        return true;
    }

    template <typename T>
    T
    get()
    {
        if (!take(sizeof(T)))
            return T{};
        const T v = loadLE<T>(p);
        p += sizeof(T);
        left -= sizeof(T);
        return v;
    }
};

/** Cursor over a frame payload that openFrame already sized. */
struct PayloadWriter
{
    std::uint8_t *p;

    template <typename T>
    void
    put(T v)
    {
        storeLE(p, v);
        p += sizeof(T);
    }

    void
    bytes(const void *src, std::size_t n)
    {
        if (n > 0)
            std::memcpy(p, src, n);
        p += n;
    }

    void
    row(const double *src, std::size_t n)
    {
        storeRow(p, src, n);
        p += 8 * n;
    }
};

/**
 * Append the header of a @p type frame with a @p payloadLen-byte
 * payload and size @p out to hold it, so encoding grows the buffer
 * once per frame. Returns a writer over the payload; sealFrame then
 * stamps the CRC.
 */
PayloadWriter
openFrame(std::vector<std::uint8_t> &out, FrameType type,
          std::size_t payloadLen)
{
    const std::size_t headerAt = out.size();
    out.resize(headerAt + kHeaderSize + payloadLen);
    std::uint8_t *h = out.data() + headerAt;
    h[0] = kMagic0;
    h[1] = kMagic1;
    h[2] = kProtocolVersion;
    h[3] = static_cast<std::uint8_t>(type);
    storeLE(h + 4, static_cast<std::uint32_t>(payloadLen));
    return PayloadWriter{h + kHeaderSize};
}

/**
 * The CRC of the frame whose header is at @p h: over [version, type,
 * len] then the payload, so every byte after the magic is covered.
 */
std::uint32_t
frameCrc(const std::uint8_t *h, std::size_t payloadLen)
{
    return crc32(h + kHeaderSize, payloadLen, crc32(h + 2, 6));
}

/**
 * Finish the frame that ends @p out: check that @p w wrote exactly
 * the @p payloadLen bytes openFrame sized, so a layout and its length
 * cannot drift apart, then compute and store the CRC.
 */
std::size_t
sealFrame(std::vector<std::uint8_t> &out, const PayloadWriter &w,
          std::size_t payloadLen)
{
    panicIf(w.p != out.data() + out.size(),
            "sealFrame: payload writes do not end where the frame ends");
    std::uint8_t *h = out.data() + out.size() - kHeaderSize - payloadLen;
    storeLE(h + 8, frameCrc(h, payloadLen));
    return kHeaderSize + payloadLen;
}

DecodeResult
decodeError(std::string message)
{
    DecodeResult r;
    r.status = DecodeStatus::Error;
    r.error = std::move(message);
    return r;
}

} // namespace

const char *
nackReasonName(NackReason reason)
{
    switch (reason) {
      case NackReason::Backpressure: return "backpressure";
      case NackReason::UnknownMachine: return "unknown_machine";
      case NackReason::BadSample: return "bad_sample";
    }
    return "unknown";
}

namespace detail {

std::uint32_t
crc32Table(const std::uint8_t *data, std::size_t size,
           std::uint32_t seed)
{
    // Standard IEEE 802.3 reflected CRC-32, slice-by-8: eight tables
    // let eight lookups proceed independently per 8-byte block,
    // instead of one serial table-lookup chain per byte.
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < 8; ++k) {
            for (std::uint32_t i = 0; i < 256; ++i)
                t[k][i] =
                    t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
        }
        return t;
    }();
    std::uint32_t crc = ~seed;
    if constexpr (kLittleEndianHost) {
        while (size >= 8) {
            // Little-endian loads feed bytes lowest-address-first,
            // matching the reflected CRC's low-order-first order.
            std::uint32_t lo = loadLE<std::uint32_t>(data) ^ crc;
            const std::uint32_t hi = loadLE<std::uint32_t>(data + 4);
            crc = tables[7][lo & 0xFFu] ^
                  tables[6][(lo >> 8) & 0xFFu] ^
                  tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
                  tables[3][hi & 0xFFu] ^
                  tables[2][(hi >> 8) & 0xFFu] ^
                  tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
            data += 8;
            size -= 8;
        }
    }
    for (std::size_t i = 0; i < size; ++i)
        crc = tables[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

#if defined(__x86_64__) || defined(__i386__)

namespace {

#define CHAOS_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

CHAOS_CLMUL_TARGET __m128i
load128(const std::uint8_t *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** One fold step: (x.lo * k.lo) ^ (x.hi * k.hi) ^ next. */
CHAOS_CLMUL_TARGET __m128i
fold128(__m128i x, __m128i k, __m128i next)
{
    const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
    const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/**
 * Fold a multiple of 16 bytes, at least 64, into the (pre-inverted)
 * CRC state @p crc with carry-less multiplies: Gopal et al., "Fast
 * CRC Computation for Generic Polynomials Using PCLMULQDQ
 * Instruction" (Intel, 2009), in the bit-reflected domain. Four
 * 128-bit lanes fold 64 bytes per step (k1, k2), collapse into one
 * lane (k3, k4), fold the remaining 16-byte blocks, reduce 128 to
 * 64 bits (k5), and Barrett-reduce to 32 bits (P', mu'). The
 * constants are the reflected IEEE ones zlib and Linux use.
 */
CHAOS_CLMUL_TARGET std::uint32_t
crc32FoldClmul(const std::uint8_t *buf, std::size_t len,
               std::uint32_t crc)
{
    alignas(16) static const std::uint64_t k1k2[] = {0x0154442bd4,
                                                     0x01c6e41596};
    alignas(16) static const std::uint64_t k3k4[] = {0x01751997d0,
                                                     0x00ccaa009e};
    alignas(16) static const std::uint64_t k5k0[] = {0x0163cd6124,
                                                     0x0000000000};
    alignas(16) static const std::uint64_t poly[] = {0x01db710641,
                                                     0x01f7011641};
    __m128i x1 = load128(buf + 0x00);
    __m128i x2 = load128(buf + 0x10);
    __m128i x3 = load128(buf + 0x20);
    __m128i x4 = load128(buf + 0x30);
    x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
    buf += 64;
    len -= 64;

    __m128i k = _mm_load_si128(reinterpret_cast<const __m128i *>(k1k2));
    while (len >= 64) {
        x1 = fold128(x1, k, load128(buf + 0x00));
        x2 = fold128(x2, k, load128(buf + 0x10));
        x3 = fold128(x3, k, load128(buf + 0x20));
        x4 = fold128(x4, k, load128(buf + 0x30));
        buf += 64;
        len -= 64;
    }

    k = _mm_load_si128(reinterpret_cast<const __m128i *>(k3k4));
    x1 = fold128(x1, k, x2);
    x1 = fold128(x1, k, x3);
    x1 = fold128(x1, k, x4);
    while (len >= 16) {
        x1 = fold128(x1, k, load128(buf));
        buf += 16;
        len -= 16;
    }

    // 128 -> 64 bits.
    const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
    __m128i t = _mm_clmulepi64_si128(x1, k, 0x10);
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
    k = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(k5k0));
    t = _mm_srli_si128(x1, 4);
    x1 = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x00);
    x1 = _mm_xor_si128(x1, t);

    // Barrett reduction 64 -> 32 bits.
    k = _mm_load_si128(reinterpret_cast<const __m128i *>(poly));
    t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), k, 0x00);
    x1 = _mm_xor_si128(x1, t);
    return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

#undef CHAOS_CLMUL_TARGET

} // namespace

bool
crc32ClmulAvailable()
{
    static const bool available = [] {
        __builtin_cpu_init();
        return __builtin_cpu_supports("pclmul") &&
               __builtin_cpu_supports("sse4.1");
    }();
    return available;
}

std::uint32_t
crc32Clmul(const std::uint8_t *data, std::size_t size,
           std::uint32_t seed)
{
    if (size < kCrc32ClmulMinSize)
        return crc32Table(data, size, seed);
    const std::size_t folded = size & ~std::size_t{15};
    const std::uint32_t crc = ~crc32FoldClmul(data, folded, ~seed);
    return crc32Table(data + folded, size - folded, crc);
}

#else // No carry-less multiply on this architecture.

bool
crc32ClmulAvailable()
{
    return false;
}

std::uint32_t
crc32Clmul(const std::uint8_t *data, std::size_t size,
           std::uint32_t seed)
{
    return crc32Table(data, size, seed);
}

#endif

} // namespace detail

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Every frame pays a CRC on both ends of the wire; sample frames
    // are ~1.5 KB, where folding runs ~7x faster than the tables.
    // crc32Clmul hands short inputs to the tables itself.
    return detail::crc32ClmulAvailable()
               ? detail::crc32Clmul(data, size, seed)
               : detail::crc32Table(data, size, seed);
}

std::size_t
encodeSample(std::uint64_t tick, std::string_view machineId,
             bool hasMetered, double meteredW, const double *row,
             std::size_t rowSize, std::vector<std::uint8_t> &out)
{
    // Machine ids and rows come from user input (CLI flags, fleet
    // manifests), so a limit violation is recoverable, not a bug.
    raiseIf(machineId.empty() || machineId.size() > kMaxMachineIdLen,
            "encodeSample: machine id length out of range");
    raiseIf(rowSize > kMaxRowLen, "encodeSample: row too wide");
    const std::size_t payloadLen =
        sampleFrameSize(machineId.size(), rowSize) - kHeaderSize;
    PayloadWriter w = openFrame(out, FrameType::Sample, payloadLen);
    w.put(tick);
    w.put(static_cast<std::uint16_t>(machineId.size()));
    w.bytes(machineId.data(), machineId.size());
    w.put(static_cast<std::uint8_t>(hasMetered ? 1 : 0));
    w.put(meteredW);
    w.put(static_cast<std::uint16_t>(rowSize));
    w.row(row, rowSize);
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeSample(const SampleFrame &frame, std::vector<std::uint8_t> &out)
{
    return encodeSample(frame.tick, frame.machineId, frame.hasMetered,
                        frame.meteredW, frame.row.data(),
                        frame.row.size(), out);
}

std::size_t
encodeCredit(const CreditFrame &frame, std::vector<std::uint8_t> &out)
{
    constexpr std::size_t payloadLen = 8 + 8 + 4;
    PayloadWriter w = openFrame(out, FrameType::Credit, payloadLen);
    w.put(frame.acceptedTotal);
    w.put(frame.rejectedTotal);
    w.put(frame.granted);
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeNack(const NackFrame &frame, std::vector<std::uint8_t> &out)
{
    constexpr std::size_t payloadLen = 8 + 1;
    PayloadWriter w = openFrame(out, FrameType::Nack, payloadLen);
    w.put(frame.rejectedTotal);
    w.put(static_cast<std::uint8_t>(frame.reason));
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeIntrospect(const IntrospectFrame &frame,
                 std::vector<std::uint8_t> &out)
{
    constexpr std::size_t payloadLen = 8;
    PayloadWriter w = openFrame(out, FrameType::Introspect, payloadLen);
    w.put(frame.seq);
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeSnapshot(const SnapshotFrame &frame,
               std::vector<std::uint8_t> &out)
{
    // Snapshots are server-built, but the same validation that guards
    // the telemetry JSONL stream guards the wire: a malformed payload
    // is a caller bug surfaced here, not a corrupt frame surfaced at
    // the peer.
    raiseIf(!obs::jsonWellFormed(frame.json),
            "encodeSnapshot: payload is not well-formed JSON");
    raiseIf(frame.json.size() + 8 > kMaxPayloadLen,
            "encodeSnapshot: payload exceeds the frame size cap");
    const std::size_t payloadLen = 8 + frame.json.size();
    PayloadWriter w = openFrame(out, FrameType::Snapshot, payloadLen);
    w.put(frame.seq);
    w.bytes(frame.json.data(), frame.json.size());
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeBind(std::uint32_t slot, std::string_view machineId,
           std::vector<std::uint8_t> &out)
{
    raiseIf(machineId.empty() || machineId.size() > kMaxMachineIdLen,
            "encodeBind: machine id length out of range");
    raiseIf(slot >= kMaxSlots, "encodeBind: slot out of range");
    const std::size_t payloadLen = 4 + 2 + machineId.size();
    PayloadWriter w = openFrame(out, FrameType::Bind, payloadLen);
    w.put(slot);
    w.put(static_cast<std::uint16_t>(machineId.size()));
    w.bytes(machineId.data(), machineId.size());
    return sealFrame(out, w, payloadLen);
}

std::size_t
encodeBound(std::uint32_t slot, const std::vector<std::size_t> &indices,
            std::vector<std::uint8_t> &out)
{
    raiseIf(indices.size() > kMaxRowLen, "encodeBound: too many indices");
    for (std::size_t j = 0; j < indices.size(); ++j) {
        raiseIf(indices[j] >= kMaxRowLen ||
                    (j > 0 && indices[j] <= indices[j - 1]),
                "encodeBound: indices not ascending below kMaxRowLen");
    }
    const std::size_t payloadLen = 4 + 2 + 2 * indices.size();
    PayloadWriter w = openFrame(out, FrameType::Bound, payloadLen);
    w.put(slot);
    w.put(static_cast<std::uint16_t>(indices.size()));
    for (std::size_t idx : indices)
        w.put(static_cast<std::uint16_t>(idx));
    return sealFrame(out, w, payloadLen);
}

void
SampleBatchEncoder::add(std::vector<std::uint8_t> &out,
                        std::uint32_t slot, std::uint64_t tick,
                        bool hasMetered, double meteredW,
                        const double *row, std::size_t rowSize,
                        const std::size_t *indices, std::size_t count)
{
    raiseIf(rowSize > kMaxRowLen || count > kMaxRowLen,
            "SampleBatchEncoder: row too wide");
    const std::size_t entryLen = kBatchEntryHeader + 8 * count;
    if (entries_ > 0 &&
        out.size() - frameAt_ - kHeaderSize + entryLen > kMaxPayloadLen)
        seal(out);
    if (entries_ == 0) {
        frameAt_ = out.size();
        openFrame(out, FrameType::SampleBatch, 4);
    }
    const std::size_t at = out.size();
    out.resize(at + entryLen);
    PayloadWriter w{out.data() + at};
    w.put(slot);
    w.put(tick);
    w.put(static_cast<std::uint8_t>(hasMetered ? 1 : 0));
    w.put(meteredW);
    w.put(static_cast<std::uint16_t>(rowSize));
    w.put(static_cast<std::uint16_t>(count));
    for (std::size_t j = 0; j < count; ++j) {
        w.put(indices[j] < rowSize
                  ? row[indices[j]]
                  : std::numeric_limits<double>::quiet_NaN());
    }
    ++entries_;
}

std::size_t
SampleBatchEncoder::seal(std::vector<std::uint8_t> &out)
{
    if (entries_ == 0)
        return 0;
    std::uint8_t *h = out.data() + frameAt_;
    const std::size_t payloadLen = out.size() - frameAt_ - kHeaderSize;
    storeLE(h + 4, static_cast<std::uint32_t>(payloadLen));
    storeLE(h + kHeaderSize, entries_);
    storeLE(h + 8, frameCrc(h, payloadLen));
    entries_ = 0;
    return kHeaderSize + payloadLen;
}

const std::uint8_t *
readBatchEntry(const std::uint8_t *p, BatchEntry &entry)
{
    entry.slot = loadLE<std::uint32_t>(p);
    entry.tick = loadLE<std::uint64_t>(p + 4);
    entry.hasMetered = p[12] != 0;
    entry.meteredW = loadLE<double>(p + 13);
    entry.rowWidth = loadLE<std::uint16_t>(p + 21);
    entry.valueCount = loadLE<std::uint16_t>(p + 23);
    entry.values = p + kBatchEntryHeader;
    return entry.values + 8 * entry.valueCount;
}

std::vector<double>
SampleFrame::decodedRow() const
{
    std::vector<double> out(rowLen);
    loadRow(out.data(), rowBytes, rowLen);
    return out;
}

DecodeResult
decodeFrame(const std::uint8_t *data, std::size_t size, Frame &out)
{
    DecodeResult r;
    // Magic and version are checked as soon as their bytes arrive, so
    // a stream that is not this protocol errors on byte one, not
    // after a bogus length field asked for a megabyte of garbage.
    if (size >= 1 && data[0] != kMagic0)
        return decodeError("bad magic byte 0");
    if (size >= 2 && data[1] != kMagic1)
        return decodeError("bad magic byte 1");
    if (size >= 3 && data[2] != kProtocolVersion) {
        return decodeError("unsupported protocol version " +
                           std::to_string(data[2]));
    }
    if (size < kHeaderSize)
        return r; // NeedMore.

    const std::uint8_t type = data[3];
    const std::uint32_t payloadLen = loadLE<std::uint32_t>(data + 4);
    const std::uint32_t wireCrc = loadLE<std::uint32_t>(data + 8);
    if (payloadLen > kMaxPayloadLen) {
        return decodeError("payload length " +
                           std::to_string(payloadLen) +
                           " exceeds the " +
                           std::to_string(kMaxPayloadLen) +
                           "-byte cap");
    }
    if (size < kHeaderSize + payloadLen)
        return r; // NeedMore.

    if (frameCrc(data, payloadLen) != wireCrc)
        return decodeError("checksum mismatch");

    PayloadReader pr{data + kHeaderSize, payloadLen};
    switch (static_cast<FrameType>(type)) {
      case FrameType::Sample: {
        out.type = FrameType::Sample;
        SampleFrame &s = out.sample;
        s.tick = pr.get<std::uint64_t>();
        const std::uint16_t idLen = pr.get<std::uint16_t>();
        if (pr.bad || idLen == 0 || idLen > kMaxMachineIdLen ||
            !pr.take(idLen))
            return decodeError("sample: bad machine id length");
        s.machineId.assign(reinterpret_cast<const char *>(pr.p),
                           idLen);
        pr.p += idLen;
        pr.left -= idLen;
        s.hasMetered = pr.get<std::uint8_t>() != 0;
        s.meteredW = pr.get<double>();
        const std::uint16_t rowLen = pr.get<std::uint16_t>();
        if (pr.bad || rowLen > kMaxRowLen ||
            pr.left != static_cast<std::size_t>(rowLen) * 8)
            return decodeError("sample: bad row length");
        s.rowBytes = pr.p;
        s.rowLen = rowLen;
        pr.p += pr.left;
        pr.left = 0;
        break;
      }
      case FrameType::Credit:
        out.type = FrameType::Credit;
        out.credit.acceptedTotal = pr.get<std::uint64_t>();
        out.credit.rejectedTotal = pr.get<std::uint64_t>();
        out.credit.granted = pr.get<std::uint32_t>();
        if (pr.bad || pr.left != 0)
            return decodeError("credit: bad payload size");
        break;
      case FrameType::Nack: {
        out.type = FrameType::Nack;
        out.nack.rejectedTotal = pr.get<std::uint64_t>();
        const std::uint8_t reason = pr.get<std::uint8_t>();
        if (pr.bad || pr.left != 0 || reason < 1 || reason > 3)
            return decodeError("nack: bad payload");
        out.nack.reason = static_cast<NackReason>(reason);
        break;
      }
      case FrameType::Introspect:
        out.type = FrameType::Introspect;
        out.introspect.seq = pr.get<std::uint64_t>();
        if (pr.bad || pr.left != 0)
            return decodeError("introspect: bad payload size");
        break;
      case FrameType::Snapshot: {
        out.type = FrameType::Snapshot;
        out.snapshot.seq = pr.get<std::uint64_t>();
        if (pr.bad)
            return decodeError("snapshot: truncated payload");
        out.snapshot.json.assign(
            reinterpret_cast<const char *>(pr.p), pr.left);
        pr.p += pr.left;
        pr.left = 0;
        if (!obs::jsonWellFormed(out.snapshot.json))
            return decodeError("snapshot: payload is not JSON");
        break;
      }
      case FrameType::Bind: {
        out.type = FrameType::Bind;
        out.bind.slot = pr.get<std::uint32_t>();
        const std::uint16_t idLen = pr.get<std::uint16_t>();
        if (pr.bad || out.bind.slot >= kMaxSlots || idLen == 0 ||
            idLen > kMaxMachineIdLen || pr.left != idLen)
            return decodeError("bind: bad payload");
        out.bind.machineId.assign(reinterpret_cast<const char *>(pr.p),
                                  idLen);
        pr.p += idLen;
        pr.left = 0;
        break;
      }
      case FrameType::Bound: {
        out.type = FrameType::Bound;
        out.bound.slot = pr.get<std::uint32_t>();
        const std::uint16_t count = pr.get<std::uint16_t>();
        if (pr.bad || count > kMaxRowLen ||
            pr.left != static_cast<std::size_t>(count) * 2)
            return decodeError("bound: bad payload size");
        out.bound.indices.resize(count);
        for (std::size_t j = 0; j < count; ++j) {
            const std::size_t idx = pr.get<std::uint16_t>();
            if (idx >= kMaxRowLen ||
                (j > 0 && idx <= out.bound.indices[j - 1]))
                return decodeError("bound: indices not ascending");
            out.bound.indices[j] = idx;
        }
        break;
      }
      case FrameType::SampleBatch: {
        out.type = FrameType::SampleBatch;
        const std::uint32_t count = pr.get<std::uint32_t>();
        if (pr.bad || count == 0 || count > pr.left / kBatchEntryHeader)
            return decodeError("sample batch: bad entry count");
        out.batch.count = count;
        out.batch.entries = pr.p;
        // Walk every entry now, so a receiver reads them unchecked.
        BatchEntry e;
        for (std::uint32_t i = 0; i < count; ++i) {
            if (!pr.take(kBatchEntryHeader))
                return decodeError(
                    "sample batch: entries overrun the payload");
            readBatchEntry(pr.p, e);
            if (pr.p[12] > 1 || e.rowWidth > kMaxRowLen ||
                e.valueCount > kMaxRowLen)
                return decodeError("sample batch: bad entry");
            const std::size_t entryLen =
                kBatchEntryHeader + 8 * e.valueCount;
            if (!pr.take(entryLen))
                return decodeError(
                    "sample batch: entries overrun the payload");
            pr.p += entryLen;
            pr.left -= entryLen;
        }
        if (pr.left != 0)
            return decodeError(
                "sample batch: entries do not fill the payload");
        break;
      }
      default:
        return decodeError("unknown frame type " +
                           std::to_string(type));
    }
    if (pr.bad)
        return decodeError("truncated payload");
    r.status = DecodeStatus::Ok;
    r.consumed = kHeaderSize + payloadLen;
    return r;
}

bool
decodeFrameOrRaise(const std::uint8_t *data, std::size_t size,
                   Frame &out, std::size_t &consumed)
{
    const DecodeResult r = decodeFrame(data, size, out);
    if (r.status == DecodeStatus::Error)
        raise("net: corrupt frame: " + r.error);
    consumed = r.consumed;
    return r.status == DecodeStatus::Ok;
}

std::uint8_t *
FrameReader::prepare(std::size_t size)
{
    if (buf.size() - writePos < size && readPos > 0) {
        // Slide the unconsumed tail (at most a partial frame, when
        // next() keeps up) to the front before growing, so a
        // long-lived connection's buffer stays proportional to its
        // backlog plus one read.
        std::memmove(buf.data(), buf.data() + readPos, buffered());
        writePos -= readPos;
        readPos = 0;
    }
    if (buf.size() - writePos < size)
        buf.resize(writePos + size);
    return buf.data() + writePos;
}

void
FrameReader::commit(std::size_t size)
{
    if (size > buf.size() - writePos)
        panic("FrameReader::commit past the prepared space");
    writePos += size;
}

void
FrameReader::append(const std::uint8_t *data, std::size_t size)
{
    if (size == 0)
        return;
    std::memcpy(prepare(size), data, size);
    commit(size);
}

DecodeStatus
FrameReader::next(Frame &frame)
{
    if (!errorMessage.empty())
        return DecodeStatus::Error;
    const DecodeResult r =
        decodeFrame(buf.data() + readPos, buffered(), frame);
    switch (r.status) {
      case DecodeStatus::Ok:
        readPos += r.consumed;
        if (readPos == writePos)
            readPos = writePos = 0;
        return DecodeStatus::Ok;
      case DecodeStatus::NeedMore:
        return DecodeStatus::NeedMore;
      case DecodeStatus::Error:
        errorMessage = r.error;
        return DecodeStatus::Error;
    }
    return DecodeStatus::Error;
}

} // namespace chaos::net
