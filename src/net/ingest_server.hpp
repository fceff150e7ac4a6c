/**
 * @file
 * ChaosIngestServer: the network ingest boundary of the fleet serving
 * subsystem — the point where telemetry from other machines enters
 * the process, and therefore the point where corruption, overload,
 * and misbehaving peers must be absorbed without taking serving down.
 *
 * Architecture (one server):
 *
 *   clients ──TCP──> poll() listener thread
 *       per-connection FrameReader (tolerates arbitrary
 *       fragmentation; see net/protocol.hpp)
 *       Bind frames ──SlotBindings──> Bound replies
 *       SampleBatch entries, Sample frames ──offer()──> FleetServer
 *       shard queues
 *       Credit/Nack/Bound frames ──buffered writes──> clients
 *
 * Slots: a client names each machine once per connection with a
 * Bind{slot, id}; the connection's SlotBindings, a vector indexed by
 * slot, resolves the id once and answers Bound{slot, indices} with
 * the machine's interned projection. The client then sends that
 * machine's samples as SampleBatch entries holding only the
 * projected counters, and the poll thread copies each entry's values
 * straight into a queue slot tagged with the projection the entry
 * carries — no id, no hash, no gather per sample. When the machine's
 * projection moves (a swap, a quarantine substitute or a shadow),
 * the next entry for it triggers a fresh Bound; entries the client
 * encoded before it saw that Bound still arrive under the old
 * projection, are accepted, and are counted by the drain as
 * projection misses (chaos.serve.projection_misses), exactly like an
 * in-process sample gathered before a widening. The client's
 * acknowledging Bind marks where the new projection starts. Sample
 * frames (a client's first samples of a machine, or a peer that never
 * binds) resolve their id per frame, through the registry.
 *
 * Contracts:
 *
 *  - Explicit backpressure: a sample that arrives while its shard
 *    queue is full is REJECTED — the client gets a Nack (reason
 *    backpressure) and cumulative rejected counts on its next Credit
 *    frame — instead of the in-process path's silent drop-oldest.
 *    The client decides what to shed; the server never lies about
 *    what it kept. One Backpressure event is emitted per saturation
 *    episode per connection.
 *  - Corruption is connection-fatal: a frame that fails the magic,
 *    version, length, checksum, or structural checks, a SampleBatch
 *    entry naming an unbound slot or carrying a value count other
 *    than its slot's projection size, and a Bind that neither names
 *    the next slot nor acknowledges a Bound, close the connection
 *    (after a best-effort Nack(BadSample)) with a ConnectionDrop
 *    event and per-connection accounting — a corrupt stream cannot
 *    resynchronize, and a half-trusted frame must never reach an
 *    estimator (a batch is checked whole before any entry is
 *    offered).
 *  - A rejected or malformed sample is never silently accepted and
 *    never crashes the server; every path increments a counter a
 *    dashboard can see (chaos.net.*) and a per-connection stat the
 *    ingest snapshot reports.
 *
 * The poll thread does decode + offer only; evaluation stays on the
 * FleetServer's drainer thread(s), so a slow model never backs up
 * into the kernel accept queue.
 */
#ifndef CHAOS_NET_INGEST_SERVER_HPP
#define CHAOS_NET_INGEST_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/server.hpp"

namespace chaos::net {

/**
 * The server side of one connection's slots (see the file comment and
 * net/protocol.hpp): which machine each slot names, the projection
 * its SampleBatch entries carry, and a fresh Bound awaiting the
 * client's acknowledgement. Owned by the poll thread like the rest of
 * a connection, and socket-free, so tests drive it directly.
 */
class SlotBindings
{
  public:
    /** One slot. */
    struct Binding
    {
        /** The machine; null when its Bind named an unknown id. */
        serve::MachineEntry *entry = nullptr;
        /** What the slot's entries carry: the acknowledged Bound's. */
        const CounterProjection *projection = nullptr;
        /** A fresh Bound sent and not yet acknowledged, or null. */
        const CounterProjection *offered = nullptr;
    };

    /** What bind() made of a Bind frame. */
    enum class BindOutcome {
        Bound,   ///< New slot bound: answer Bound with its projection.
        Acked,   ///< The offered projection is now the slot's.
        Unknown, ///< New slot, unknown machine: it stays unbound.
        Invalid, ///< Protocol violation: the connection is unusable.
    };

    /** What offer() did with one batch. */
    struct BatchResult
    {
        std::uint32_t accepted = 0;
        std::uint32_t rejected = 0; ///< Refused: shard queue full.
        /** The machine of the first refused entry, if any. */
        serve::MachineEntry *firstRejected = nullptr;
    };

    explicit SlotBindings(serve::FleetServer &fleet) : fleet_(fleet) {}

    /**
     * Handle a Bind: a new slot must be the next number (slots are
     * dense), an existing one must name its machine again and have a
     * Bound awaiting acknowledgement.
     */
    BindOutcome bind(const BindFrame &frame);

    /** The binding of @p slot (bind() returned Bound for it). */
    const Binding &at(std::uint32_t slot) const { return slots_[slot]; }

    /**
     * True when every entry of @p batch names a slot bound to a
     * machine and carries as many values as that slot's projection.
     */
    bool admits(const SampleBatchFrame &batch) const;

    /**
     * Offer every entry of @p batch (admitted, see admits()) to the
     * fleet in order, its values copied into the queue slot tagged
     * with the slot's projection and stamped @p ingestNs. Appends to
     * @p out a Bound for each slot whose machine's projection moved
     * off the one it carries (one unacknowledged Bound per slot at a
     * time), and a Nack(Backpressure) for each entry the fleet
     * refused, carrying @p rejectedTotal, which counts it.
     */
    BatchResult offer(const SampleBatchFrame &batch,
                      std::uint64_t ingestNs, std::uint64_t &rejectedTotal,
                      std::vector<std::uint8_t> &out);

  private:
    serve::FleetServer &fleet_;
    std::vector<Binding> slots_;
};

/** Ingest-server knobs. */
struct IngestServerConfig
{
    /** Address to bind (loopback by default). */
    std::string bindAddress = "127.0.0.1";
    /** Port to listen on; 0 picks an ephemeral port (see port()). */
    std::uint16_t port = 0;
    /**
     * Send a Credit frame as soon as this many samples were disposed
     * of (accepted or rejected) on a connection; 0 means 128. Every
     * poll round also ends by crediting what each connection
     * disposed of in it, so a client waits at most one round for its
     * acks, and a connection that sends one frame per round gets one
     * Credit frame per sample. Crediting only in idle rounds would
     * save under 0.2 µs per sample of poll CPU but delay a client's
     * last acks by up to pollTimeoutMs.
     */
    std::size_t creditBatch = 0;
    /** Refuse connections beyond this many concurrently open. */
    std::size_t maxConnections = 4096;
    /** Bytes per read() attempt. */
    std::size_t readChunk = 64 * 1024;
    /** poll() timeout (bounds credit-flush and stop latency), ms. */
    int pollTimeoutMs = 20;
    /**
     * Close a connection whose unsent ack backlog exceeds this many
     * bytes (a client that never reads its acks would otherwise grow
     * the write buffer without bound).
     */
    std::size_t maxWriteBacklog = 4u << 20;
};

/** One connection's accounting (live or closed). */
struct ConnectionStats
{
    std::uint64_t id = 0;     ///< Accept-order id, unique per server.
    std::string peer;         ///< "addr:port" of the client.
    bool open = false;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t samplesAccepted = 0;
    std::uint64_t rejectedBackpressure = 0; ///< Shard queue full.
    std::uint64_t rejectedUnknown = 0;      ///< Unregistered machine.
    std::uint64_t badFrames = 0;            ///< Corrupt input seen.
    std::string closeReason; ///< "" while open or after a clean EOF.
};

/** Whole-server ingest snapshot. */
struct IngestStats
{
    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsOpen = 0;
    std::uint64_t connectionsDropped = 0; ///< Closed on error.
    std::uint64_t connectionsRefused = 0; ///< Over maxConnections.
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t samplesAccepted = 0;
    std::uint64_t rejectedBackpressure = 0;
    std::uint64_t rejectedUnknown = 0;
    std::uint64_t badFrames = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t creditsSent = 0;
    std::uint64_t introspectsServed = 0; ///< Snapshot replies sent.
    /** Per-connection attribution, accept order. */
    std::vector<ConnectionStats> connections;

    /** Serialize as one single-line JSON object. */
    std::string toJson() const;
};

/** The network ingest boundary (see file comment). */
class ChaosIngestServer
{
  public:
    /**
     * @param server Destination fleet; must outlive this object.
     */
    explicit ChaosIngestServer(serve::FleetServer &server,
                               IngestServerConfig config = {});

    /** Stops the listener (closing every connection) if running. */
    ~ChaosIngestServer();

    ChaosIngestServer(const ChaosIngestServer &) = delete;
    ChaosIngestServer &operator=(const ChaosIngestServer &) = delete;

    /**
     * Bind, listen, and spawn the poll thread. Raises
     * RecoverableError when the address cannot be bound.
     */
    void start();

    /** Close the listener and every connection; join the thread. */
    void stop();

    /** True while the poll thread runs. */
    bool running() const { return runningFlag.load(); }

    /** The bound port (meaningful after start()). */
    std::uint16_t port() const { return boundPort; }

    /** Aggregate + per-connection accounting snapshot. */
    IngestStats stats() const;

    /** The configuration the server was built with. */
    const IngestServerConfig &config() const { return cfg; }

  private:
    struct Connection;

    void loop();
    void acceptPending();
    /** @return false when the connection was closed. */
    bool handleReadable(Connection &conn);
    bool processFrames(Connection &conn);
    /** @param ingestNs Decode-time stamp (0 when tracing is off). */
    void handleSample(Connection &conn, std::uint64_t ingestNs);
    /** @return false when the batch is not admitted (see SlotBindings). */
    bool handleBatch(Connection &conn, std::uint64_t ingestNs);
    /** @return false on a protocol violation. */
    bool handleBind(Connection &conn);
    /**
     * Count a bad frame, send a best-effort Nack(BadSample) and close
     * @p conn. @return false, for processFrames to return.
     */
    bool dropBadPeer(Connection &conn, const std::string &reason);
    /** Build and queue the Snapshot reply to an Introspect request. */
    void queueSnapshot(Connection &conn, std::uint64_t seq);
    /**
     * Assemble the introspection snapshot JSON: fleet state, ingest
     * stats, stage-latency percentiles, and the flight-recorder
     * summary. Falls back to a headline-only form (no per-machine or
     * per-connection detail) when the full one would overflow the
     * frame payload cap.
     */
    std::string buildIntrospectJson() const;
    void queueCredit(Connection &conn);
    void queueNack(Connection &conn, NackReason reason);
    /** Reclaim conn.outBuf's written prefix before encoding into it. */
    void compactOutput(Connection &conn);
    /** @return false when the connection was closed. */
    bool flushWrites(Connection &conn);
    void closeConnection(Connection &conn, const std::string &reason,
                         bool isError);

    serve::FleetServer &fleet;
    IngestServerConfig cfg;

    OwnedFd listener;
    OwnedFd wakeRead, wakeWrite; ///< Self-pipe to interrupt poll().
    std::uint16_t boundPort = 0;

    std::thread pollThread;
    std::atomic<bool> runningFlag{false};
    std::atomic<bool> stopRequested{false};

    /** Poll-thread-owned live connections. */
    std::vector<std::shared_ptr<Connection>> live;
    /** All connections ever accepted (stats), accept order. */
    mutable std::mutex statsMu;
    std::vector<std::shared_ptr<Connection>> all;

    std::atomic<std::uint64_t> nextConnId{0};
    std::atomic<std::uint64_t> acceptedConns{0};
    std::atomic<std::uint64_t> droppedConns{0};
    std::atomic<std::uint64_t> refusedConns{0};
    std::atomic<std::uint64_t> nacks{0};
    std::atomic<std::uint64_t> credits{0};
    std::atomic<std::uint64_t> introspects{0};
};

} // namespace chaos::net

#endif // CHAOS_NET_INGEST_SERVER_HPP
