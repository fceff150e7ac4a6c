/**
 * @file
 * Per-stage pipeline latency tracing for the serving path.
 *
 * Every sample is stamped with a monotonic ingest timestamp where it
 * enters the pipeline — at wire decode in ChaosIngestServer, or at
 * FleetServer::submit for in-process producers — and the stamp rides
 * the recycled queue slots through the drain. The drain then accounts
 * each sample's time into stage histograms under chaos.serve.stage.*:
 *
 *   decode_us      wire bytes -> decoded frame (network ingest only)
 *   queue_wait_us  ingest stamp -> popBatch picked the sample up
 *   drain_batch_us one drain pass over every shard (pop + group +
 *                  predict + aux)
 *   predict_us     the batched estimator call for one drain pass
 *   e2e_us         ingest stamp -> estimate produced (true end-to-end)
 *
 * Tracing is on by default and gated by one relaxed atomic; the
 * per-sample cost is one clock read at the stamp site and two
 * histogram observes at the drain (clock reads at the drain are per
 * batch, not per sample). bench/serve_throughput gates the total at
 * ≤1% / 20 ns per sample on the batched drain path.
 */
#ifndef CHAOS_SERVE_STAGE_METRICS_HPP
#define CHAOS_SERVE_STAGE_METRICS_HPP

#include "obs/metrics.hpp"

#include <cstdint>
#include <string>

namespace chaos::serve {

/** Turn sample stage tracing on or off (default: on). */
void setStageTracingEnabled(bool enabled);

/** @return True when samples are stamped and stage histograms fed. */
bool stageTracingEnabled();

/** @return Monotonic now in ns when tracing is enabled, else 0. */
std::uint64_t stageStampNs();

/** Cached references to the chaos.serve.stage.* histograms. */
struct StageMetrics {
    obs::Histogram &decodeUs;
    obs::Histogram &queueWaitUs;
    obs::Histogram &drainBatchUs;
    obs::Histogram &predictUs;
    obs::Histogram &e2eUs;

    static StageMetrics &get();
};

/**
 * @return Single-line JSON {"decode_us": {"p50": ..., "p99": ...,
 *         "count": ...}, ...} over all five stage histograms, with
 *         0 standing in for percentiles of empty histograms so the
 *         payload always parses as plain numbers.
 */
std::string stageLatencyJson();

} // namespace chaos::serve

#endif // CHAOS_SERVE_STAGE_METRICS_HPP
