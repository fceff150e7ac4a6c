/**
 * @file
 * Shared plumbing for the reproduction benches: paper-scale campaign
 * configuration and small formatting helpers.
 *
 * Every bench binary regenerates one table or figure of the paper
 * (see DESIGN.md's experiment index) and prints the same rows/series
 * the paper reports. Scale knobs can be reduced with the
 * CHAOS_BENCH_FAST=1 environment variable for smoke runs.
 */
#ifndef CHAOS_BENCH_COMMON_BENCH_SUPPORT_HPP
#define CHAOS_BENCH_COMMON_BENCH_SUPPORT_HPP

#include <string>

#include "core/chaos.hpp"

namespace chaos {
namespace bench {

/** True if CHAOS_BENCH_FAST=1 is set (shrinks campaign scale). */
bool fastMode();

/**
 * Paper-scale campaign: 5-machine clusters, 5 runs per workload,
 * 5-fold run-grouped cross validation. Fast mode shrinks to 3
 * machines / 2 runs / 2 folds.
 */
CampaignConfig paperCampaignConfig(uint64_t seed = 2012);

/** Collect + feature-select one cluster, logging progress. */
ClusterCampaign campaignFor(MachineClass mc,
                            const CampaignConfig &config);

/**
 * Release the raw run logs of a campaign (they duplicate the dataset
 * and dominate memory when many clusters are held at once).
 */
void dropRawRuns(ClusterCampaign &campaign);

/**
 * Where a BENCH_*.json was measured: its "hardware_threads" and
 * "build_type" fields, as JSON object lines ending in ",\n".
 */
std::string hostJsonFields();

/** "12.3%" style formatting of a fraction. */
std::string pct(double fraction, int decimals = 1);

/** Render an ASCII sparkline of a series (downsampled to width). */
std::string sparkline(const std::vector<double> &series, size_t width);

} // namespace bench
} // namespace chaos

#endif // CHAOS_BENCH_COMMON_BENCH_SUPPORT_HPP
