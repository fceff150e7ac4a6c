#include "net/protocol.hpp"

#include <array>
#include <cstring>

#include "obs/json.hpp"
#include "util/result.hpp"

namespace chaos::net {

namespace {

constexpr std::uint8_t kMagic0 = 'C';
constexpr std::uint8_t kMagic1 = 'W';

// ---- Little-endian primitive packing -------------------------------

void
putU16(std::vector<std::uint8_t> &out, std::uint16_t v)
{
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

std::uint16_t
getU16(const std::uint8_t *p)
{
    return static_cast<std::uint16_t>(p[0]) |
           static_cast<std::uint16_t>(p[1]) << 8;
}

std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i)
        v = v << 8 | p[i];
    return v;
}

std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = v << 8 | p[i];
    return v;
}

double
getF64(const std::uint8_t *p)
{
    const std::uint64_t bits = getU64(p);
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

/**
 * Payload reader with bounds checking: every get*() fails (sets bad)
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

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        const std::uint8_t v = *p;
        p += 1;
        left -= 1;
        return v;
    }

    std::uint16_t
    u16()
    {
        if (!take(2))
            return 0;
        const std::uint16_t v = getU16(p);
        p += 2;
        left -= 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        const std::uint32_t v = getU32(p);
        p += 4;
        left -= 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        const std::uint64_t v = getU64(p);
        p += 8;
        left -= 8;
        return v;
    }

    double
    f64()
    {
        if (!take(8))
            return 0.0;
        const double v = getF64(p);
        p += 8;
        left -= 8;
        return v;
    }
};

/** Finish building a binary frame: patch length, compute the CRC. */
std::size_t
sealFrame(std::vector<std::uint8_t> &out, std::size_t headerAt)
{
    const std::size_t payloadLen = out.size() - headerAt - kHeaderSize;
    std::uint8_t lenBytes[4];
    for (int i = 0; i < 4; ++i)
        lenBytes[i] = static_cast<std::uint8_t>(payloadLen >> (8 * i));
    std::memcpy(out.data() + headerAt + 4, lenBytes, 4);
    // CRC over [version, type, len] then the payload: every byte
    // after the magic is covered.
    std::uint32_t crc = crc32(out.data() + headerAt + 2, 6);
    crc = crc32(out.data() + headerAt + kHeaderSize, payloadLen, crc);
    for (int i = 0; i < 4; ++i) {
        out[headerAt + 8 + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(crc >> (8 * i));
    }
    return out.size() - headerAt;
}

/** Start a binary frame of @p type; length and CRC patched by seal. */
std::size_t
openFrame(std::vector<std::uint8_t> &out, FrameType type)
{
    const std::size_t headerAt = out.size();
    out.push_back(kMagic0);
    out.push_back(kMagic1);
    out.push_back(kProtocolVersion);
    out.push_back(static_cast<std::uint8_t>(type));
    putU32(out, 0); // Payload length, patched by sealFrame.
    putU32(out, 0); // CRC, patched by sealFrame.
    return headerAt;
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

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size, std::uint32_t seed)
{
    // Standard IEEE 802.3 reflected CRC-32, slice-by-8: every frame
    // pays a CRC on both ends of the wire, and the byte-at-a-time
    // loop's serial table-lookup chain was a measurable slice of the
    // per-sample budget at ingest rates. Eight tables let eight
    // lookups proceed independently per 8-byte block.
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
#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    while (size >= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, data, 4);
        std::memcpy(&hi, data + 4, 4);
        // The wire (and these loads on a little-endian host) feed
        // bytes lowest-address-first, matching the reflected CRC's
        // low-order-first processing.
        lo ^= crc;
        crc = tables[7][lo & 0xFFu] ^ tables[6][(lo >> 8) & 0xFFu] ^
              tables[5][(lo >> 16) & 0xFFu] ^ tables[4][lo >> 24] ^
              tables[3][hi & 0xFFu] ^ tables[2][(hi >> 8) & 0xFFu] ^
              tables[1][(hi >> 16) & 0xFFu] ^ tables[0][hi >> 24];
        data += 8;
        size -= 8;
    }
#endif
    for (std::size_t i = 0; i < size; ++i)
        crc = tables[0][(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
    return ~crc;
}

std::size_t
encodeSample(const SampleFrame &frame, std::vector<std::uint8_t> &out)
{
    // Machine ids and rows come from user input (CLI flags, fleet
    // manifests), so a limit violation is recoverable, not a bug.
    raiseIf(frame.machineId.empty() ||
                frame.machineId.size() > kMaxMachineIdLen,
            "encodeSample: machine id length out of range");
    raiseIf(frame.row.size() > kMaxRowLen,
            "encodeSample: row too wide");
    const std::size_t headerAt = openFrame(out, FrameType::Sample);
    putU64(out, frame.tick);
    putU16(out, static_cast<std::uint16_t>(frame.machineId.size()));
    out.insert(out.end(), frame.machineId.begin(),
               frame.machineId.end());
    out.push_back(frame.hasMetered ? 1 : 0);
    putF64(out, frame.meteredW);
    putU16(out, static_cast<std::uint16_t>(frame.row.size()));
    for (const double v : frame.row)
        putF64(out, v);
    return sealFrame(out, headerAt);
}

std::size_t
encodeCredit(const CreditFrame &frame, std::vector<std::uint8_t> &out)
{
    const std::size_t headerAt = openFrame(out, FrameType::Credit);
    putU64(out, frame.acceptedTotal);
    putU64(out, frame.rejectedTotal);
    putU32(out, frame.granted);
    return sealFrame(out, headerAt);
}

std::size_t
encodeNack(const NackFrame &frame, std::vector<std::uint8_t> &out)
{
    const std::size_t headerAt = openFrame(out, FrameType::Nack);
    putU64(out, frame.rejectedTotal);
    out.push_back(static_cast<std::uint8_t>(frame.reason));
    return sealFrame(out, headerAt);
}

std::size_t
encodeIntrospect(const IntrospectFrame &frame,
                 std::vector<std::uint8_t> &out)
{
    const std::size_t headerAt = openFrame(out, FrameType::Introspect);
    putU64(out, frame.seq);
    return sealFrame(out, headerAt);
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
    const std::size_t headerAt = openFrame(out, FrameType::Snapshot);
    putU64(out, frame.seq);
    out.insert(out.end(), frame.json.begin(), frame.json.end());
    return sealFrame(out, headerAt);
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
    const std::uint32_t payloadLen = getU32(data + 4);
    const std::uint32_t wireCrc = getU32(data + 8);
    if (payloadLen > kMaxPayloadLen) {
        return decodeError("payload length " +
                           std::to_string(payloadLen) +
                           " exceeds the " +
                           std::to_string(kMaxPayloadLen) +
                           "-byte cap");
    }
    if (size < kHeaderSize + payloadLen)
        return r; // NeedMore.

    std::uint32_t crc = crc32(data + 2, 6);
    crc = crc32(data + kHeaderSize, payloadLen, crc);
    if (crc != wireCrc)
        return decodeError("checksum mismatch");

    PayloadReader pr{data + kHeaderSize, payloadLen};
    switch (static_cast<FrameType>(type)) {
      case FrameType::Sample: {
        out.type = FrameType::Sample;
        SampleFrame &s = out.sample;
        s.tick = pr.u64();
        const std::uint16_t idLen = pr.u16();
        if (pr.bad || idLen == 0 || idLen > kMaxMachineIdLen ||
            !pr.take(idLen))
            return decodeError("sample: bad machine id length");
        s.machineId.assign(reinterpret_cast<const char *>(pr.p),
                           idLen);
        pr.p += idLen;
        pr.left -= idLen;
        s.hasMetered = pr.u8() != 0;
        s.meteredW = pr.f64();
        const std::uint16_t rowLen = pr.u16();
        if (pr.bad || rowLen > kMaxRowLen ||
            pr.left != static_cast<std::size_t>(rowLen) * 8)
            return decodeError("sample: bad row length");
        s.row.clear();
        s.row.reserve(rowLen);
        for (std::uint16_t i = 0; i < rowLen; ++i)
            s.row.push_back(pr.f64());
        break;
      }
      case FrameType::Credit:
        out.type = FrameType::Credit;
        out.credit.acceptedTotal = pr.u64();
        out.credit.rejectedTotal = pr.u64();
        out.credit.granted = pr.u32();
        if (pr.bad || pr.left != 0)
            return decodeError("credit: bad payload size");
        break;
      case FrameType::Nack: {
        out.type = FrameType::Nack;
        out.nack.rejectedTotal = pr.u64();
        const std::uint8_t reason = pr.u8();
        if (pr.bad || pr.left != 0 || reason < 1 || reason > 3)
            return decodeError("nack: bad payload");
        out.nack.reason = static_cast<NackReason>(reason);
        break;
      }
      case FrameType::Introspect:
        out.type = FrameType::Introspect;
        out.introspect.seq = pr.u64();
        if (pr.bad || pr.left != 0)
            return decodeError("introspect: bad payload size");
        break;
      case FrameType::Snapshot: {
        out.type = FrameType::Snapshot;
        out.snapshot.seq = pr.u64();
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
    raiseIf(r.status == DecodeStatus::Error,
            "net: corrupt frame: " + r.error);
    consumed = r.consumed;
    return r.status == DecodeStatus::Ok;
}

void
FrameReader::append(const std::uint8_t *data, std::size_t size)
{
    buf.insert(buf.end(), data, data + size);
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
        compact();
        return DecodeStatus::Ok;
      case DecodeStatus::NeedMore:
        return DecodeStatus::NeedMore;
      case DecodeStatus::Error:
        errorMessage = r.error;
        return DecodeStatus::Error;
    }
    return DecodeStatus::Error;
}

void
FrameReader::compact()
{
    // Reclaim consumed prefix space once it dominates the buffer, so
    // a long-lived connection's read buffer stays proportional to its
    // unconsumed backlog instead of growing without bound.
    if (readPos > 4096 && readPos * 2 > buf.size()) {
        buf.erase(buf.begin(),
                  buf.begin() + static_cast<std::ptrdiff_t>(readPos));
        readPos = 0;
    }
}

} // namespace chaos::net
