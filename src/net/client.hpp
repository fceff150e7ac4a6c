/**
 * @file
 * IngestClient: one connection's worth of the client side of the
 * chaos wire protocol (net/protocol.hpp) — framing, the credit
 * window, and ack accounting — shared by the loadgen harness, the
 * tests, and the `chaos loadgen` CLI.
 *
 * Flow control: the client keeps at most `window` samples in flight
 * (sent but not yet covered by a Credit frame's cumulative totals).
 * Once half the window is in flight, send() reads the acks that
 * have arrived (one non-blocking read per half window of sends), so
 * credits return before the window fills and the credit round trip
 * measures the server, not the client's reading delay. When the
 * window is full, send() pumps acks — blocking on the socket if
 * necessary — before writing the next sample, so a slow or
 * backpressuring server throttles the producer instead of growing an
 * unbounded buffer. Rejected samples (Nack / rejected counts) also
 * return window credit: accounting never wedges on an overloaded
 * server.
 *
 * Slots: the first send for a machine on a connection also sends
 * Bind{slot, id}, the slot being the next dense number. Until the
 * server's Bound{slot, indices} arrives, the machine's samples go out
 * as full-row Sample frames; after it, as SampleBatch entries holding
 * only the counters at those catalog indices (NaN past the row's
 * width), every entry of a flush under one frame header and one CRC.
 * A later Bound for the slot (the machine's projection moved) is
 * acknowledged with another Bind, written after the entries encoded
 * under the old projection and before the first under the new one.
 * A machine the server does not know gets a Nack(UnknownMachine)
 * whose rejected total does not advance; its slot stays unbound and
 * its samples keep going out as Sample frames (each then rejected).
 *
 * Latency: every sample's send time is remembered until a Credit
 * frame covers it; the credit-ack round trip is the frame latency the
 * bench gates on (p50/p99 over a bounded ring).
 */
#ifndef CHAOS_NET_CLIENT_HPP
#define CHAOS_NET_CLIENT_HPP

#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"

namespace chaos::net {

/** Client-side knobs. */
struct IngestClientConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Max samples in flight before send() blocks pumping acks. */
    std::size_t window = 1024;
    /** Credit-RTT ring capacity (latency percentiles). */
    std::size_t maxLatencySamples = 8192;
    /** Give up pumping acks after this long with no progress, ms. */
    int ackTimeoutMs = 10000;
    /**
     * Write the buffered frames once the samples handed to send()
     * since the last write add up to this many bytes as full-row
     * Sample frames (sampleFrameSize: 8 per counter plus the id and
     * fixed fields), whatever they take on the wire: a bound
     * machine's batch entry holds only its projected counters, so
     * the client writes at the same samples as a client that never
     * binds, with ~20x fewer bytes. Buffered frames are always
     * flushed before the client blocks waiting for acks (the server
     * cannot ack what it has not received), so correctness never
     * depends on the threshold — only the syscall rate does. 0 writes
     * every sample immediately (lowest latency, one syscall per
     * sample).
     */
    std::size_t coalesceBytes = 56 * 1024;
};

/** One protocol connection (see file comment). Not thread-safe. */
class IngestClient
{
  public:
    explicit IngestClient(IngestClientConfig config);
    ~IngestClient();

    IngestClient(const IngestClient &) = delete;
    IngestClient &operator=(const IngestClient &) = delete;

    /** Connect to host:port. Raises RecoverableError on failure. */
    void connect();

    /**
     * Send one sample, blocking on the credit window when full.
     * Raises RecoverableError when the server closed the connection
     * or the window could not be replenished within ackTimeoutMs.
     */
    void send(std::uint64_t tick, const std::string &machineId,
              const double *row, std::size_t rowSize,
              double meteredW =
                  std::numeric_limits<double>::quiet_NaN());

    /**
     * Consume any acks the server has sent. @p blocking waits up to
     * ackTimeoutMs for at least one frame. @return Frames consumed.
     * Raises RecoverableError on a protocol error from the server.
     */
    std::size_t pump(bool blocking);

    /**
     * Block until every sent sample is covered by an ack (or the
     * server closes). @return True when fully drained.
     */
    bool drain();

    /** Close the connection (idempotent). */
    void close();

    bool connected() const { return sock.valid(); }

    std::uint64_t sent() const { return sentCount; }
    /** Samples the server accepted into its queues (from acks). */
    std::uint64_t accepted() const { return acceptedTotal; }
    /** Samples the server rejected (backpressure/unknown/bad). */
    std::uint64_t rejected() const { return rejectedTotal; }
    /** Nack frames received, by reason (indexed by NackReason). */
    std::uint64_t nacks(NackReason reason) const;
    /** True if the server ever sent a backpressure Nack. */
    bool sawBackpressure() const
    {
        return nacks(NackReason::Backpressure) > 0;
    }

    /** Credit-ack round trips observed so far, milliseconds. */
    std::vector<double> latenciesMs() const;

    /**
     * The catalog indices @p machineId's samples are sent at (its
     * latest Bound), or null while its samples go as full rows.
     */
    const std::vector<std::size_t> *
    projectionOf(const std::string &machineId) const;

  private:
    /** One machine this connection has sent for. */
    struct Slot
    {
        std::string machineId;
        std::vector<std::size_t> indices; ///< Its latest Bound.
        bool bound = false;
    };

    /**
     * @p machineId's slot, binding a new one (Bind frame) on its
     * first send; kMaxSlots once the connection has bound that many.
     */
    std::uint32_t slotFor(const std::string &machineId);
    /** Seal any open batch, then append Bind{slot, machineId}. */
    void queueBind(std::uint32_t slot, const std::string &machineId);
    std::uint64_t inFlight() const
    {
        return sentCount - (acceptedTotal + rejectedTotal);
    }
    void handleAck(const Frame &frame);
    void writeAll(const std::uint8_t *data, std::size_t size);
    /** Write out any coalesced frames still sitting in outBuf. */
    void flushSendBuffer();
    /**
     * One recv() with @p flags into the frame reader; nothing when
     * interrupted or, under MSG_DONTWAIT, when no data is waiting.
     * Raises when the server closed or on error.
     */
    void readSocket(int flags);

    IngestClientConfig cfg;
    OwnedFd sock;
    FrameReader reader;
    Frame frame;                      ///< Reused decode target.
    std::vector<std::uint8_t> outBuf; ///< Coalesced unsent frames.
    SampleBatchEncoder batch;         ///< Open batch frame in outBuf.
    /** Sample-frame bytes of the samples sent since the last write. */
    std::size_t unsentSampleBytes = 0;

    std::unordered_map<std::string, std::uint32_t> slotOf;
    std::vector<Slot> slots;

    std::uint64_t sentCount = 0;
    std::uint64_t lastAckRead = 0; ///< sentCount at send()'s last read.
    std::uint64_t acceptedTotal = 0;
    std::uint64_t rejectedTotal = 0;
    std::uint64_t nackCounts[4] = {0, 0, 0, 0};
    /** Rejected total of the last Nack (see handleAck). */
    std::uint64_t lastNackRejected = 0;

    /** Send times of in-flight samples, oldest first. */
    std::deque<std::chrono::steady_clock::time_point> sendTimes;
    std::vector<double> latencyRing;
    std::size_t latencyCount = 0;
};

/**
 * One-shot introspection poll: connect to host:port, send one binary
 * Introspect frame with @p seq, and block until the matching Snapshot
 * reply arrives (ignoring any Credit/Nack chatter in between).
 * @return The snapshot's JSON payload (already validated by the
 *         protocol decoder). Raises RecoverableError on connection
 *         failure, protocol error, a server close, or @p timeoutMs
 *         elapsing first. This is what `chaos top` polls.
 */
std::string fetchSnapshot(const std::string &host, std::uint16_t port,
                          std::uint64_t seq = 1,
                          int timeoutMs = 5000);

} // namespace chaos::net

#endif // CHAOS_NET_CLIENT_HPP
