/**
 * @file
 * The CHAOS fleet-telemetry wire protocol: how counter samples travel
 * from collector machines to a ChaosIngestServer, and how credit /
 * NACK backpressure travels back.
 *
 * Frames are length-prefixed with a fixed 12-byte header:
 *
 *        offset  size  field
 *        0       1     magic0 'C'
 *        1       1     magic1 'W'
 *        2       1     version (kProtocolVersion)
 *        3       1     frame type (FrameType)
 *        4       4     payload length, little-endian u32
 *        8       4     CRC-32 over bytes [2..8) and the payload
 *        12      len   payload
 *
 *    All integers are little-endian; doubles travel as their IEEE-754
 *    bit pattern (a NaN payload survives the trip bit-identically).
 *    The CRC covers version, type, and the length field as well as
 *    the payload, so any corrupt byte outside the two magic bytes is
 *    caught by the checksum and the two magic bytes are checked
 *    directly: a mutated frame is rejected, never silently accepted.
 *
 * Frame vocabulary:
 *
 *  - Sample (client -> server): one machine-second of telemetry —
 *    machine id, tick, the catalog-ordered counter row, and an
 *    optional metered reference reading.
 *  - Credit (server -> client): cumulative accepted/rejected counts
 *    plus freshly granted send credits. The client may keep at most
 *    `window` unacknowledged samples in flight; credits replenish the
 *    window as the server disposes of samples, so a slow server
 *    throttles its clients explicitly instead of letting the kernel
 *    socket buffer (and then a drop-oldest queue) absorb the
 *    overload silently.
 *  - Nack (server -> client): a sample was *rejected* — queue
 *    backpressure, unknown machine id, or a structurally invalid
 *    sample — with the cumulative rejected count. Rejected samples
 *    still consume and return credit (they were disposed of), so the
 *    client's window accounting never wedges.
 *  - Introspect (client -> server): ask the server for a live
 *    observability snapshot; carries a client-chosen sequence number
 *    echoed in the reply so a poller can match request to response.
 *  - Snapshot (server -> client): the reply — one validated JSON
 *    object (fleet state, stage-latency percentiles, flight-recorder
 *    summary, ingest stats) as the payload. This is what `chaos top`
 *    renders.
 *  - Bind (client -> server): name a *slot* — the client's own dense
 *    per-connection number, 0, 1, 2, ... — for a machine id. The
 *    server answers with Bound, or with a Nack(UnknownMachine) whose
 *    rejected total does not advance (no sample was rejected) and
 *    leaves the slot unbound. Sent again for a bound slot, it
 *    acknowledges the server's latest Bound for that slot: every
 *    SampleBatch entry after it carries that Bound's projection.
 *  - Bound (server -> client): a slot's projection, the ascending
 *    catalog indices of the counters its machine's models read. Sent
 *    in reply to a slot's first Bind, and again (at most one
 *    unacknowledged at a time) when the machine's projection changes.
 *  - SampleBatch (client -> server): samples of bound slots, one entry
 *    each, under one header and one CRC. An entry holds the slot's
 *    counters at its acknowledged projection's indices only, NaN for
 *    an index at or past the row's width. Before its Bound arrives a
 *    client sends a machine's samples as Sample frames; a peer that
 *    never binds sends only those.
 *
 * Payload layouts (after the header; integers little-endian):
 *
 *        frame        field                     size
 *        Sample       tick                      8
 *                     machine id length n       2 (1..256)
 *                     machine id                n
 *                     metered flag              1
 *                     metered watts             8
 *                     row width w               2 (<= 4096)
 *                     counter row               8 w
 *        Credit       accepted total            8
 *                     rejected total            8
 *                     granted                   4
 *        Nack         rejected total            8
 *                     reason                    1
 *        Introspect   sequence                  8
 *        Snapshot     sequence                  8
 *                     JSON object               rest
 *        Bind         slot                      4 (< kMaxSlots)
 *                     machine id length n       2 (1..256)
 *                     machine id                n
 *        Bound        slot                      4
 *                     index count k             2 (<= 4096)
 *                     catalog indices           2 k, ascending,
 *                                               each < 4096
 *        SampleBatch  entry count e             4 (>= 1), then e of:
 *                     slot                      4
 *                     tick                      8
 *                     metered flag              1 (0 or 1)
 *                     metered watts             8
 *                     row width w               2 (<= 4096)
 *                     value count k             2 (<= 4096)
 *                     projected values          8 k
 *
 * Encode/decode are pure functions over byte buffers — no sockets in
 * this translation unit — so the framing state machine is testable
 * (and fuzzable) without a network in sight. Incremental decoding
 * lives in FrameReader, which tolerates arbitrary fragmentation: a
 * frame split at every byte boundary decodes identically to one
 * delivered whole.
 */
#ifndef CHAOS_NET_PROTOCOL_HPP
#define CHAOS_NET_PROTOCOL_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace chaos::net {

/** Protocol version this build speaks. */
inline constexpr std::uint8_t kProtocolVersion = 1;

/** Frame header size in bytes (magic..crc, before the payload). */
inline constexpr std::size_t kHeaderSize = 12;

/** Maximum payload length a peer may claim (1 MiB). */
inline constexpr std::uint32_t kMaxPayloadLen = 1u << 20;

/** Maximum counter-row width a sample may carry. */
inline constexpr std::size_t kMaxRowLen = 4096;

/** Maximum machine-id length a sample may carry. */
inline constexpr std::size_t kMaxMachineIdLen = 256;

/** Slots one connection may bind (Bind slot numbers stay below it). */
inline constexpr std::uint32_t kMaxSlots = 1u << 16;

/** Bytes of a SampleBatch entry before its values. */
inline constexpr std::size_t kBatchEntryHeader = 25;

/** Wire frame types (byte 3 of the header). */
enum class FrameType : std::uint8_t {
    Sample = 1,     ///< client -> server: one machine-second of telemetry.
    Credit = 2,     ///< server -> client: window replenishment + ack totals.
    Nack = 3,       ///< server -> client: a sample was rejected.
    Introspect = 4, ///< client -> server: request a live snapshot.
    Snapshot = 5,   ///< server -> client: the snapshot reply (JSON).
    Bind = 6,       ///< client -> server: name a slot for a machine.
    Bound = 7,      ///< server -> client: a slot's projection.
    SampleBatch = 8, ///< client -> server: projected samples of slots.
};

/** Why a sample was rejected (Nack payload). */
enum class NackReason : std::uint8_t {
    Backpressure = 1,   ///< Shard queue full; resend later or shed.
    UnknownMachine = 2, ///< Machine id not registered with the fleet.
    BadSample = 3,      ///< Structurally invalid sample payload.
};

/** @return Stable lowercase name for @p reason (e.g. "backpressure"). */
const char *nackReasonName(NackReason reason);

/** One machine-second of telemetry in flight. */
struct SampleFrame
{
    std::uint64_t tick = 0;  ///< Producer-side sample index.
    std::string machineId;   ///< Fleet registry key.
    bool hasMetered = false; ///< True when meteredW is a real reading.
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    /** Catalog-ordered counter values to encode (encodeSample). */
    std::vector<double> row;
    /**
     * Set by decoding instead of @c row: the row's @c rowLen
     * little-endian doubles in place inside the decoded buffer (for a
     * FrameReader, valid until its next call), so a reader that needs
     * a few counters copies only those.
     */
    const std::uint8_t *rowBytes = nullptr;
    std::size_t rowLen = 0;

    /** The decoded row's values (a copy of rowBytes). */
    std::vector<double> decodedRow() const;
};

/** Window replenishment + cumulative ack totals. */
struct CreditFrame
{
    std::uint64_t acceptedTotal = 0; ///< Samples accepted so far.
    std::uint64_t rejectedTotal = 0; ///< Samples rejected so far.
    std::uint32_t granted = 0;       ///< Send credits granted now.
};

/** One sample rejected (see NackReason). */
struct NackFrame
{
    std::uint64_t rejectedTotal = 0; ///< Samples rejected so far.
    NackReason reason = NackReason::Backpressure;
};

/** Request for a live observability snapshot. */
struct IntrospectFrame
{
    std::uint64_t seq = 0; ///< Client token, echoed in the Snapshot.
};

/** The snapshot reply: one validated single-line JSON object. */
struct SnapshotFrame
{
    std::uint64_t seq = 0; ///< Echo of the request's token.
    std::string json;      ///< Well-formed JSON object (checked on
                           ///< both encode and decode).
};

/** Name client slot @c slot for a machine (or acknowledge a Bound). */
struct BindFrame
{
    std::uint32_t slot = 0;
    std::string machineId;
};

/** A slot's projection: the counters its batch entries carry. */
struct BoundFrame
{
    std::uint32_t slot = 0;
    std::vector<std::size_t> indices; ///< Ascending catalog indices.
};

/** One SampleBatch entry, read in place (see readBatchEntry). */
struct BatchEntry
{
    std::uint32_t slot = 0;
    std::uint64_t tick = 0;
    bool hasMetered = false;
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    /** Width of the catalog row the values were taken from. */
    std::size_t rowWidth = 0;
    /** Number of projected values. */
    std::size_t valueCount = 0;
    /** The values, @c valueCount little-endian doubles in place. */
    const std::uint8_t *values = nullptr;
};

/**
 * A decoded SampleBatch: its entries stay in the decoded buffer (for
 * a FrameReader, valid until its next call), already checked to fit
 * the payload exactly. Walk them with readBatchEntry.
 */
struct SampleBatchFrame
{
    std::uint32_t count = 0;                ///< Entries, at least 1.
    const std::uint8_t *entries = nullptr; ///< The first entry.
};

/**
 * Read the entry at @p p of a decoded SampleBatch into @p entry.
 * @return The address of the next entry.
 */
const std::uint8_t *readBatchEntry(const std::uint8_t *p,
                                   BatchEntry &entry);

/** A decoded frame: @c type selects which member is meaningful. */
struct Frame
{
    FrameType type = FrameType::Sample;
    SampleFrame sample;
    CreditFrame credit;
    NackFrame nack;
    IntrospectFrame introspect;
    SnapshotFrame snapshot;
    BindFrame bind;
    BoundFrame bound;
    SampleBatchFrame batch;
};

/**
 * CRC-32 (IEEE 802.3 polynomial, reflected, as zlib computes it) of
 * @p data; seedable for chaining: crc32(b, crc32(a)) == crc32(a||b).
 * Inputs of at least detail::kCrc32ClmulMinSize bytes fold with
 * carry-less multiplies (PCLMULQDQ) when the CPU has them, chosen
 * once at run time; shorter inputs, and CPUs or architectures
 * without them, use slice-by-8 tables. Both give the same value.
 */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size,
                    std::uint32_t seed = 0);

/** The two crc32() kernels, exposed so tests can check each. */
namespace detail {

/** Shortest input crc32() hands to the carry-less-multiply kernel. */
inline constexpr std::size_t kCrc32ClmulMinSize = 64;

/** Slice-by-8 table CRC-32: any input, any host. */
std::uint32_t crc32Table(const std::uint8_t *data, std::size_t size,
                         std::uint32_t seed = 0);

/** True when this CPU can run crc32Clmul's folding kernel. */
bool crc32ClmulAvailable();

/**
 * PCLMULQDQ-folding CRC-32 of the 16-byte blocks of @p data, with
 * the table kernel for the tail and for inputs under
 * kCrc32ClmulMinSize bytes. Call only when crc32ClmulAvailable().
 */
std::uint32_t crc32Clmul(const std::uint8_t *data, std::size_t size,
                         std::uint32_t seed = 0);

} // namespace detail

// ---- Encoding (appends to @p out, returns bytes appended) ----------

/** Bytes of a Sample frame with an @p idLen-byte id and @p rowSize counters. */
constexpr std::size_t
sampleFrameSize(std::size_t idLen, std::size_t rowSize)
{
    return kHeaderSize + 8 + 2 + idLen + 1 + 8 + 2 + 8 * rowSize;
}

/**
 * Append one binary Sample frame built straight from its fields, so
 * a sender need not assemble a SampleFrame. Raises RecoverableError
 * when the machine id is empty or longer than kMaxMachineIdLen, or
 * the row is wider than kMaxRowLen.
 */
std::size_t encodeSample(std::uint64_t tick, std::string_view machineId,
                         bool hasMetered, double meteredW,
                         const double *row, std::size_t rowSize,
                         std::vector<std::uint8_t> &out);

/**
 * Append one binary Sample frame from a SampleFrame. A convenience for
 * tests and tools; the client encodes from its fields (above).
 */
std::size_t encodeSample(const SampleFrame &frame,
                         std::vector<std::uint8_t> &out);

/** Append one binary Credit frame. */
std::size_t encodeCredit(const CreditFrame &frame,
                         std::vector<std::uint8_t> &out);

/** Append one binary Nack frame. */
std::size_t encodeNack(const NackFrame &frame,
                       std::vector<std::uint8_t> &out);

/** Append one binary Introspect frame. */
std::size_t encodeIntrospect(const IntrospectFrame &frame,
                             std::vector<std::uint8_t> &out);

/**
 * Append one binary Snapshot frame. Raises RecoverableError when the
 * JSON payload is not well-formed or would overflow the payload cap.
 */
std::size_t encodeSnapshot(const SnapshotFrame &frame,
                           std::vector<std::uint8_t> &out);

/**
 * Append one binary Bind frame naming @p slot for @p machineId.
 * Raises RecoverableError when the machine id is empty or longer
 * than kMaxMachineIdLen, or the slot is not below kMaxSlots.
 */
std::size_t encodeBind(std::uint32_t slot, std::string_view machineId,
                       std::vector<std::uint8_t> &out);

/**
 * Append one binary Bound frame for @p slot advertising @p indices
 * (ascending, each below kMaxRowLen; raises RecoverableError if not).
 */
std::size_t encodeBound(std::uint32_t slot,
                        const std::vector<std::size_t> &indices,
                        std::vector<std::uint8_t> &out);

/**
 * Builds SampleBatch frames in place at the end of a byte buffer.
 * add() appends one entry to the open frame, opening one when none
 * is; seal() stamps the open frame's length, entry count and CRC.
 * Nothing else may be appended to the buffer while a frame is open.
 * An entry that would take the payload past kMaxPayloadLen seals the
 * open frame and starts the next.
 */
class SampleBatchEncoder
{
  public:
    /**
     * Append one entry: @p row's values at @p indices (NaN for an
     * index at or past @p rowSize). Raises RecoverableError when the
     * row or the index list is wider than kMaxRowLen.
     */
    void add(std::vector<std::uint8_t> &out, std::uint32_t slot,
             std::uint64_t tick, bool hasMetered, double meteredW,
             const double *row, std::size_t rowSize,
             const std::size_t *indices, std::size_t count);

    /** Seal the open frame. @return Its bytes (0 when none open). */
    std::size_t seal(std::vector<std::uint8_t> &out);

  private:
    std::size_t frameAt_ = 0; ///< Offset of the open frame's header.
    std::uint32_t entries_ = 0; ///< In the open frame; 0: none open.
};

// ---- Decoding ------------------------------------------------------

/** What one decode attempt concluded. */
enum class DecodeStatus {
    Ok,       ///< One whole frame decoded; @c consumed bytes used.
    NeedMore, ///< The buffer holds only a frame prefix; read more.
    Error,    ///< The stream is corrupt; the connection is unusable.
};

/** Result of one decode attempt over a byte buffer. */
struct DecodeResult
{
    DecodeStatus status = DecodeStatus::NeedMore;
    std::size_t consumed = 0; ///< Bytes consumed (Ok only).
    std::string error;        ///< Human-readable cause (Error only).
};

/**
 * Try to decode one binary frame from the front of [data, data+size).
 * Pure and incremental: returns NeedMore on any true prefix of a
 * valid frame, Ok (with @c consumed) on a whole one, and Error on a
 * stream that can never become valid (bad magic, unknown version or
 * type, oversized or undersized length, checksum mismatch, malformed
 * payload). @p out is only meaningful on Ok; a Sample's row and a
 * SampleBatch's entries are left in @p data (SampleFrame::rowBytes,
 * SampleBatchFrame::entries), so decoding does not allocate or copy
 * them. A SampleBatch is checked structurally here (entry count,
 * widths, lengths); whether its slots are bound and its value counts
 * match their projections is the receiver's check.
 */
DecodeResult decodeFrame(const std::uint8_t *data, std::size_t size,
                         Frame &out);

/**
 * Exception-style wrapper over decodeFrame for callers that want the
 * library's RecoverableError contract: raises on Error, returns false
 * on NeedMore, true (with @p out filled) on Ok.
 */
bool decodeFrameOrRaise(const std::uint8_t *data, std::size_t size,
                        Frame &out, std::size_t &consumed);

/**
 * Incremental framing state machine for one connection. Feed it bytes
 * in whatever fragments the transport delivers; pull whole frames
 * out. A stream whose first byte is not the binary magic is an
 * immediate protocol error. Errors are sticky — a corrupt stream cannot resynchronize, matching the
 * server's close-on-error contract.
 */
class FrameReader
{
  public:
    /**
     * Buffer @p size bytes received from the peer. A copying
     * convenience for tests; transports read straight into the
     * buffer through prepare()/commit().
     */
    void append(const std::uint8_t *data, std::size_t size);

    /**
     * Writable space for up to @p size more bytes at the end of the
     * buffer, so a transport can read into it without a staging copy.
     * The space is valid until the next call on this reader; commit()
     * the bytes actually written, if any, before that call.
     */
    std::uint8_t *prepare(std::size_t size);

    /** Mark @p size bytes of the last prepare()'s space as received. */
    void commit(std::size_t size);

    /**
     * Try to extract the next whole frame into @p frame.
     * @return Ok (frame filled), NeedMore (feed more bytes), or
     *         Error (see error(); sticky).
     */
    DecodeStatus next(Frame &frame);

    /** Human-readable cause of the sticky Error state ("" while ok). */
    const std::string &error() const { return errorMessage; }

    /** Bytes buffered but not yet consumed by a decoded frame. */
    std::size_t buffered() const { return writePos - readPos; }

  private:
    /** Received bytes live in [readPos, writePos); the rest is spare. */
    std::vector<std::uint8_t> buf;
    std::size_t readPos = 0;
    std::size_t writePos = 0;
    std::string errorMessage;
};

} // namespace chaos::net

#endif // CHAOS_NET_PROTOCOL_HPP
