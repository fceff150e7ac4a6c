#include "monitor/quality.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace chaos::monitor {

RollingQuality::RollingQuality(QualityMonitorConfig config)
    : config_(config)
{
    ring.resize(std::max<std::size_t>(config_.windowSamples, 1), 0.0);
}

bool
RollingQuality::addResidual(double residualW)
{
    if (!std::isfinite(residualW))
        return false;

    // Rolling window: replace the oldest residual, keep the sums
    // incremental so the update is O(1).
    if (fill == ring.size()) {
        const double evicted = ring[head];
        sumR -= evicted;
        sumR2 -= evicted * evicted;
    } else {
        ++fill;
    }
    ring[head] = residualW;
    if (++head == ring.size())
        head = 0;
    sumR += residualW;
    sumR2 += residualW * residualW;

    ++total;
    if (total <= config_.warmupSamples) {
        // Welford accumulation for the baseline.
        const double delta = residualW - warmMean;
        warmMean += delta / static_cast<double>(total);
        warmM2 += delta * (residualW - warmMean);
        if (total == config_.warmupSamples) {
            mu0 = warmMean;
            const double var =
                total > 1 ? warmM2 / static_cast<double>(total - 1)
                          : 0.0;
            sigma0 = std::max(std::sqrt(std::max(var, 0.0)),
                              config_.minSigmaW);
        }
        return false;
    }

    if (driftedFlag)
        return false;

    const double z = (residualW - mu0) / sigma0;
    cumUp += z - config_.driftDelta;
    minUp = std::min(minUp, cumUp);
    cumDown += z + config_.driftDelta;
    maxDown = std::max(maxDown, cumDown);
    if (driftStatistic() > config_.driftLambda) {
        driftedFlag = true;
        return true;
    }
    return false;
}

double
RollingQuality::rmseOf(double sumSq, std::size_t fill)
{
    if (fill == 0)
        return 0.0;
    return std::sqrt(std::max(sumSq, 0.0) / static_cast<double>(fill));
}

double
RollingQuality::meanOf(double sum, std::size_t fill)
{
    if (fill == 0)
        return 0.0;
    return sum / static_cast<double>(fill);
}

double
RollingQuality::dreOf(double rmseW, double envelopeSpanW)
{
    if (std::isnan(envelopeSpanW))
        return std::numeric_limits<double>::quiet_NaN();
    return rmseW / envelopeSpanW;
}

double
RollingQuality::driftStatistic() const
{
    return std::max(cumUp - minUp, maxDown - cumDown);
}

void
RollingQuality::reset()
{
    std::fill(ring.begin(), ring.end(), 0.0);
    head = 0;
    fill = 0;
    sumR = 0.0;
    sumR2 = 0.0;
    total = 0;
    warmMean = 0.0;
    warmM2 = 0.0;
    mu0 = 0.0;
    sigma0 = 0.0;
    cumUp = 0.0;
    minUp = 0.0;
    cumDown = 0.0;
    maxDown = 0.0;
    driftedFlag = false;
}

void
RollingQuality::acknowledge()
{
    cumUp = 0.0;
    minUp = 0.0;
    cumDown = 0.0;
    maxDown = 0.0;
    driftedFlag = false;
}

} // namespace chaos::monitor
