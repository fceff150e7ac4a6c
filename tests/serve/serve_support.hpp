/**
 * @file
 * Shared plumbing for the serving-subsystem tests: a cheap deployable
 * machine model over two real catalog counters, catalog-row builders
 * that exercise it, linear models over any chosen counters with
 * random rows to feed them, and an observer recording every estimate.
 */
#ifndef CHAOS_TESTS_SERVE_SERVE_SUPPORT_HPP
#define CHAOS_TESTS_SERVE_SERVE_SUPPORT_HPP

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/cluster_model.hpp"
#include "models/linear.hpp"
#include "oscounters/counter_catalog.hpp"
#include "serve/server.hpp"
#include "util/random.hpp"

namespace chaos {
namespace serve_testing {

/** The two catalog counters every test model consumes. */
inline const std::vector<std::string> &
testCounters()
{
    static const std::vector<std::string> names = {
        "Processor(0)\\% Processor Time",
        "Processor(1)\\% Processor Time",
    };
    return names;
}

/**
 * Fit a linear model on synthetic utilization data: roughly
 * baseW + 0.1*u0 + 0.08*u1 watts. Different @p baseW values yield
 * models whose predictions differ by tens of watts, which hot-swap
 * tests rely on.
 */
inline MachinePowerModel
makeTestModel(uint64_t seed, double baseW = 25.0)
{
    Rng rng(seed);
    const size_t n = 200;
    Matrix x(n, 2);
    std::vector<double> y(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 100.0);
        x(i, 1) = rng.uniform(0.0, 100.0);
        y[i] = baseW + 0.1 * x(i, 0) + 0.08 * x(i, 1) +
               rng.normal(0.0, 0.05);
    }
    auto model = std::make_shared<LinearModel>();
    model->fit(x, y);
    return MachinePowerModel::fromParts(
        FeatureSet{"serve-test", testCounters()}, std::move(model));
}

/** Full-catalog row with the two test counters set to @p u0, @p u1. */
inline std::vector<double>
catalogRow(double u0, double u1)
{
    const auto &catalog = CounterCatalog::instance();
    std::vector<double> row(catalog.size(), 0.0);
    row[catalog.indexOf(testCounters()[0])] = u0;
    row[catalog.indexOf(testCounters()[1])] = u1;
    return row;
}

/** Largest plausible test value of catalog counter @p idx. */
inline double
valueCeiling(std::size_t idx)
{
    return std::min(50.0, CounterCatalog::instance().def(idx).maxPlausible);
}

/**
 * A linear model over the catalog counters @p indices (repeats
 * allowed: a model may read one counter as two features), fitted on
 * synthetic data; @p seed varies the coefficients.
 */
inline MachinePowerModel
modelOver(const std::vector<std::size_t> &indices, std::uint64_t seed)
{
    const auto &catalog = CounterCatalog::instance();
    std::vector<std::string> names;
    for (std::size_t idx : indices)
        names.push_back(catalog.def(idx).name);
    Rng rng(seed);
    const std::size_t n = 120;
    Matrix x(n, indices.size());
    std::vector<double> y(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        y[i] = 20.0 + static_cast<double>(seed % 7);
        for (std::size_t j = 0; j < indices.size(); ++j) {
            x(i, j) = rng.uniform(0.0, valueCeiling(indices[j]));
            y[i] += (0.1 + 0.05 * static_cast<double>(j)) * x(i, j);
        }
        y[i] += rng.normal(0.0, 0.05);
    }
    auto model = std::make_shared<LinearModel>();
    model->fit(x, y);
    return MachinePowerModel::fromParts(
        FeatureSet{"projection-test", names}, std::move(model));
}

/** A full catalog row of plausible values (every counter set). */
inline std::vector<double>
randomRow(Rng &rng)
{
    const auto &catalog = CounterCatalog::instance();
    std::vector<double> row(catalog.size());
    for (std::size_t i = 0; i < row.size(); ++i)
        row[i] = rng.uniform(0.0, valueCeiling(i));
    return row;
}

/** Records every served estimate per machine index, in order. */
class Recorder : public serve::SampleObserver
{
  public:
    void
    onSample(serve::MachineEntry &entry, OnlinePowerEstimator &,
             double estimateW, double) override
    {
        std::lock_guard<std::mutex> lock(mu);
        if (entry.index() >= watts.size())
            watts.resize(entry.index() + 1);
        watts[entry.index()].push_back(estimateW);
    }

    std::mutex mu;
    std::vector<std::vector<double>> watts;
};

} // namespace serve_testing
} // namespace chaos

#endif // CHAOS_TESTS_SERVE_SERVE_SUPPORT_HPP
