#include "core/feature_selection.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "models/lasso.hpp"
#include "models/stepwise.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "oscounters/counter_catalog.hpp"
#include "stats/correlation.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"

namespace chaos {

namespace {

/** Uniform-stride subsample of row indices up to @p cap rows. */
std::vector<size_t>
strideRows(size_t total, size_t cap)
{
    std::vector<size_t> rows;
    if (total <= cap) {
        rows.resize(total);
        for (size_t i = 0; i < total; ++i)
            rows[i] = i;
    } else {
        const double stride = static_cast<double>(total) /
                              static_cast<double>(cap);
        rows.reserve(cap);
        for (size_t i = 0; i < cap; ++i)
            rows.push_back(static_cast<size_t>(i * stride));
    }
    return rows;
}

} // namespace

std::vector<size_t>
screenCounters(const Dataset &data,
               const FeatureSelectionConfig &config, Rng &rng,
               FeatureSelectionResult *funnel)
{
    (void)rng;
    obs::Span span("select.screen");
    panicIf(data.numRows() == 0, "screenCounters: empty dataset");

    if (funnel)
        funnel->catalogSize = data.numFeatures();

    // --- Step 0: drop constant and explicitly excluded counters. ---
    std::vector<size_t> alive;
    {
        obs::Span step_span("select.constant_drop");
        std::set<size_t> dropped;
        for (size_t c : data.constantColumns())
            dropped.insert(c);
        for (const auto &name : config.excludedCounters) {
            for (size_t c = 0; c < data.numFeatures(); ++c) {
                if (data.featureNames()[c] == name)
                    dropped.insert(c);
            }
        }
        for (size_t c = 0; c < data.numFeatures(); ++c) {
            if (!dropped.count(c))
                alive.push_back(c);
        }
    }
    if (funnel)
        funnel->afterConstantDrop = alive.size();

    // --- Step 1: prune |r| > threshold pairs. Within a correlated
    // pair, keep the counter more correlated with measured power
    // (a deterministic, power-aware representative choice). ---
    obs::Span prune_span("select.correlation_prune");
    const auto sample_rows =
        strideRows(data.numRows(), config.maxCorrelationRows);
    const Dataset sampled = data.selectRows(sample_rows);
    const Matrix sub = sampled.features().selectColumns(alive);
    const Matrix corr = correlationMatrix(sub);

    // Correlation of each surviving column with power. Canonical
    // counters (the well-understood Perfmon names the paper's Table
    // II reports) get a small bonus so that, within a correlated
    // group, the familiar representative wins near-ties — e.g.
    // "Processor_0 Frequency" over "% of Maximum Frequency".
    const std::set<std::string> canonical = {
        "Processor(_Total)\\% Processor Time",
        "Processor Performance\\Processor_0 Frequency",
        "Memory\\Cache Faults/sec",
        "Memory\\Pages/sec",
        "Memory\\Page Faults/sec",
        "Memory\\Committed Bytes",
        "Memory\\Page Reads/sec",
        "Memory\\Pool Nonpaged Allocs",
        "PhysicalDisk(_Total)\\% Disk Time",
        "PhysicalDisk(_Total)\\Disk Bytes/sec",
        "Process(_Total)\\Page Faults/sec",
        "Process(_Total)\\IO Data Bytes/sec",
        "Processor(_Total)\\Interrupts/sec",
        "Processor(_Total)\\% DPC Time",
        "Cache\\Data Map Pins/sec",
        "Cache\\Pin Reads/sec",
        "Cache\\Pin Read Hits %",
        "Cache\\Copy Reads/sec",
        "Cache\\Fast Reads Not Possible/sec",
        "Cache\\Lazy Write Flushes/sec",
        "Job Object Details(_Total)\\Page File Bytes Peak",
        "IPv4\\Datagrams/sec",
        "Network Interface(nic0)\\Bytes Total/sec",
    };
    std::vector<double> power_corr(alive.size());
    for (size_t i = 0; i < alive.size(); ++i) {
        power_corr[i] =
            std::fabs(pearson(sub.column(i), sampled.powerW()));
        if (canonical.count(data.featureNames()[alive[i]]))
            power_corr[i] += 0.05;
    }

    // Order candidates by descending power correlation; greedily keep
    // a counter unless it correlates above threshold with one
    // already kept.
    std::vector<size_t> order(alive.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&power_corr](size_t a, size_t b) {
                  if (power_corr[a] != power_corr[b])
                      return power_corr[a] > power_corr[b];
                  return a < b;
              });

    std::vector<size_t> kept_local;  // Indices into `alive`.
    for (size_t cand : order) {
        bool redundant = false;
        for (size_t kept : kept_local) {
            if (std::fabs(corr(cand, kept)) >
                config.correlationThreshold) {
                redundant = true;
                break;
            }
        }
        if (!redundant)
            kept_local.push_back(cand);
    }
    std::sort(kept_local.begin(), kept_local.end());

    std::vector<size_t> survivors;
    survivors.reserve(kept_local.size());
    for (size_t i : kept_local)
        survivors.push_back(alive[i]);
    prune_span.end();
    if (funnel)
        funnel->afterCorrelation = survivors.size();

    // --- Step 2: co-dependent counters (a = b + c): remove the
    // derived counter a and one addend, keeping a single part, per
    // the paper's Algorithm 1 lines 4-6. ---
    obs::Span codep_span("select.co_dependency");
    const auto &catalog = CounterCatalog::instance();
    std::set<std::string> surviving_names;
    for (size_t c : survivors)
        surviving_names.insert(data.featureNames()[c]);

    std::set<std::string> codep_drop;
    for (const auto &dep : catalog.coDependencies()) {
        // Count how many participants are still alive.
        size_t alive_parts = 0;
        for (const auto &part : dep.parts) {
            if (surviving_names.count(part))
                ++alive_parts;
        }
        const bool sum_alive = surviving_names.count(dep.sum) > 0;
        if (sum_alive && alive_parts >= 1) {
            // Keep only the last alive part; drop the sum and the
            // other parts.
            codep_drop.insert(dep.sum);
            bool kept_one = false;
            for (const auto &part : dep.parts) {
                if (!surviving_names.count(part))
                    continue;
                if (!kept_one) {
                    kept_one = true;  // This part survives.
                } else {
                    codep_drop.insert(part);
                }
            }
        }
    }

    std::vector<size_t> final_survivors;
    for (size_t c : survivors) {
        if (!codep_drop.count(data.featureNames()[c]))
            final_survivors.push_back(c);
    }
    if (funnel)
        funnel->afterCoDependency = final_survivors.size();
    return final_survivors;
}

FeatureSelectionResult
selectClusterFeatures(const Dataset &data,
                      const FeatureSelectionConfig &config, Rng &rng)
{
    obs::Span span("select.cluster_features");
    static auto &lasso_fits =
        obs::Registry::instance().counter("chaos.select.lasso_fits");
    static auto &stepwise_runs =
        obs::Registry::instance().counter("chaos.select.stepwise_runs");
    static auto &threshold_iters =
        obs::Registry::instance().counter(
            "chaos.select.threshold_iterations");

    FeatureSelectionResult result;
    const std::vector<size_t> screened =
        screenCounters(data, config, rng, &result);
    panicIf(screened.empty(), "screening removed every counter");

    // Distinct machines and workloads present in the data.
    std::set<int> machine_set(data.machineIds().begin(),
                              data.machineIds().end());
    const auto &workload_names = data.workloadNames();

    // --- Steps 3-4: per machine and workload, L1 then stepwise. ---
    // Slices are listed in (machine, workload) order and screened in
    // parallel; records are appended in list order, so the result is
    // the same for any thread count.
    obs::Span slice_span("select.per_machine_slices");
    struct Slice
    {
        int machine = 0;
        int workload = 0;
        std::vector<size_t> rows;  ///< Rows of data, in data order.
    };
    std::vector<Slice> slices;
    for (int machine : machine_set) {
        for (size_t w = 0; w < workload_names.size(); ++w) {
            Slice slice{machine, static_cast<int>(w), {}};
            for (size_t r = 0; r < data.numRows(); ++r) {
                if (data.machineIds()[r] == machine &&
                    data.workloadIds()[r] == slice.workload)
                    slice.rows.push_back(r);
            }
            slices.push_back(std::move(slice));
        }
    }

    LassoSolver lasso;
    auto records = parallelMap<PerMachineSelection>(
        slices.size(), [&](size_t i) {
            const Slice &slice = slices[i];
            PerMachineSelection record;
            if (slice.rows.size() < 50)
                return record;  // Not enough data to screen.

            const auto picked =
                strideRows(slice.rows.size(), config.maxScreeningRows);
            Matrix x(picked.size(), screened.size());
            std::vector<double> y(picked.size());
            for (size_t k = 0; k < picked.size(); ++k) {
                const size_t r = slice.rows[picked[k]];
                const double *src = data.features().rowPtr(r);
                for (size_t c = 0; c < screened.size(); ++c)
                    x(k, c) = src[screened[c]];
                y[k] = data.powerW()[r];
            }

            record.machineId = slice.machine;
            record.workload = workload_names[slice.workload];

            // Step 3: L1 regularization discards the bulk.
            lasso_fits.add();
            const LassoFit fit = lasso.fitWithTargetSupport(
                x, y, config.lassoMaxSupport);
            const auto support = fit.support();
            if (support.empty())
                return record;
            for (size_t s : support) {
                record.lassoSelected.push_back(
                    data.featureNames()[screened[s]]);
            }

            // Step 4: Wald stepwise on the L1 survivors.
            const Matrix xs = x.selectColumns(support);
            StepwiseConfig sw;
            sw.alpha = config.stepwiseAlpha;
            stepwise_runs.add();
            const StepwiseResult stepped = stepwiseEliminate(xs, y, sw);
            for (size_t k : stepped.keptFeatures) {
                record.significant.push_back(
                    data.featureNames()[screened[support[k]]]);
            }
            return record;
        });
    for (PerMachineSelection &record : records) {
        if (!record.lassoSelected.empty())
            result.perMachine.push_back(std::move(record));
    }
    slice_span.end();
    panicIf(result.perMachine.empty(),
            "no machine/workload slice had enough data");

    // --- Step 5: weighted occurrence histogram across the union. ---
    for (const auto &record : result.perMachine) {
        std::set<std::string> significant(record.significant.begin(),
                                          record.significant.end());
        for (const auto &name : record.lassoSelected) {
            result.histogram[name] += significant.count(name)
                                          ? 1.0
                                          : config.insignificantWeight;
        }
    }

    // --- Step 6: threshold + cluster-level stepwise; raise the
    // threshold until stepwise keeps everything. ---
    obs::Span threshold_span("select.threshold_search");
    const auto pooled_rows = strideRows(
        data.numRows(), config.maxCorrelationRows);
    const Dataset pooled = data.selectRows(pooled_rows);

    double threshold = config.initialThreshold;
    for (;;) {
        threshold_iters.add();
        std::vector<size_t> candidates;
        for (size_t c : screened) {
            const auto it =
                result.histogram.find(data.featureNames()[c]);
            if (it != result.histogram.end() &&
                it->second >= threshold) {
                candidates.push_back(c);
            }
        }
        if (candidates.empty()) {
            // Threshold overshot every feature: back off to the
            // densest non-empty level.
            double best = 0.0;
            for (const auto &[name, weight] : result.histogram)
                best = std::max(best, weight);
            raiseIf(best <= 0.0,
                    "selectClusterFeatures: empty feature histogram");
            threshold = best;
            continue;
        }

        const Matrix x = pooled.features().selectColumns(candidates);
        StepwiseConfig sw;
        sw.alpha = config.stepwiseAlpha;
        stepwise_runs.add();
        const StepwiseResult stepped =
            stepwiseEliminate(x, pooled.powerW(), sw);

        if (stepped.keptFeatures.size() == candidates.size() ||
            stepped.keptFeatures.size() <= 2) {
            result.selected.clear();
            for (size_t k : stepped.keptFeatures) {
                result.selected.push_back(
                    data.featureNames()[candidates[k]]);
            }
            result.finalThreshold = threshold;
            return result;
        }
        threshold += 1.0;
    }
}

} // namespace chaos
