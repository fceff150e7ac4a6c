/**
 * @file
 * Per-machine rolling model-quality statistics and drift detection.
 *
 * The paper's accuracy claim is stated in DRE = rMSE / (Pmax − Pidle)
 * (Eq. 6), measured offline by cross-validation. A deployed model has
 * no folds — only the stream of (estimate, metered reference) pairs —
 * so this layer recomputes the same metric *online* over a rolling
 * window of residuals, alongside the window bias (mean residual), and
 * runs a two-sided Page-Hinkley detector over standardized residuals
 * to flag the moment the residual distribution shifts away from the
 * calibration baseline (model drift).
 *
 * RollingQuality is pure arithmetic: no locks, no metrics, no events
 * — a handful of flops per sample, cheap enough for the serving hot
 * path. FleetMonitor (fleet_monitor.hpp) owns one per machine and
 * layers the observability on top.
 *
 * Drift math: after a warmup of W residuals fixes the baseline
 * (mu0, sigma0), each residual r is standardized to z = (r−mu0)/sigma0
 * and two cumulative Page-Hinkley statistics are updated:
 *
 *   up:   mUp  += z − delta;  excursion = mUp − min(mUp so far)
 *   down: mDn  += z + delta;  excursion = max(mDn so far) − mDn
 *
 * Either excursion exceeding lambda latches the Drifting state. delta
 * absorbs small drifts that are not worth flagging; lambda trades
 * detection delay against false positives (both in standardized
 * units, so one set of defaults works across platforms with very
 * different absolute residual scales).
 */
#ifndef CHAOS_MONITOR_QUALITY_HPP
#define CHAOS_MONITOR_QUALITY_HPP

#include <cstddef>
#include <limits>
#include <vector>

#include "core/online.hpp"

namespace chaos::monitor {

/** Knobs for one machine's rolling-quality tracker. */
struct QualityMonitorConfig
{
    /** Residuals in the rolling rMSE/DRE/bias window. */
    std::size_t windowSamples = 60;

    /**
     * Reference samples used to fix the standardization baseline
     * before drift detection arms. Until warmup completes the model
     * quality stays Unknown. Size this to span a full workload cycle:
     * a baseline taken from one phase flags every later phase whose
     * residual bias differs, even when the model is healthy (600
     * samples = 10 minutes at the 1 Hz collector cadence).
     */
    std::size_t warmupSamples = 600;

    /**
     * Page-Hinkley drift tolerance, standardized units. Mean shifts
     * below delta·sigma0 are absorbed; workload-dependent residual
     * bias of a healthy fleet model sits around 0.3–0.5 sigma, so the
     * default tolerates it while a telemetry fault (many sigma) still
     * accumulates almost at full speed.
     */
    double driftDelta = 0.5;

    /** Page-Hinkley drift threshold, standardized units. */
    double driftLambda = 60.0;

    /**
     * Floor on the baseline standard deviation (watts): protects the
     * standardization against a pathologically quiet warmup window.
     */
    double minSigmaW = 0.25;

    /**
     * Power envelope [idlePowerW, maxPowerW] supplying the DRE
     * denominator (Eq. 6). When unset (max <= idle) rollingDre()
     * reports NaN; FleetMonitor fills the envelope in from each
     * estimator's own configuration.
     */
    double idlePowerW = 0.0;
    double maxPowerW = 0.0;

    /** True when a DRE denominator is available. */
    bool hasEnvelope() const { return maxPowerW > idlePowerW; }

    /** The DRE denominator Pmax − Pidle; NaN without an envelope. */
    double
    envelopeSpanW() const
    {
        return hasEnvelope() ? maxPowerW - idlePowerW
                             : std::numeric_limits<double>::quiet_NaN();
    }
};

/** Rolling residual window + drift detector for one machine. */
class RollingQuality
{
  public:
    explicit RollingQuality(QualityMonitorConfig config = {});

    /**
     * Feed one residual (metered minus estimated watts). Non-finite
     * residuals are ignored (meter dropouts are a telemetry-health
     * concern, not a model-quality one).
     *
     * @return True exactly once: on the sample whose Page-Hinkley
     *         excursion first crosses the threshold.
     */
    bool addResidual(double residualW);

    /** Reference samples consumed so far. */
    std::size_t samples() const { return total; }

    /** Residuals currently in the rolling window. */
    std::size_t windowFill() const { return fill; }

    /** Rolling root-mean-square residual, watts (0 when empty). */
    double windowRmseW() const { return rmseOf(sumR2, fill); }

    /** Rolling DRE = windowRmseW / (Pmax − Pidle); NaN w/o envelope. */
    double rollingDre() const
    {
        return dreOf(windowRmseW(), config_.envelopeSpanW());
    }

    /** Rolling mean residual (estimator bias), watts (0 when empty). */
    double biasW() const { return meanOf(sumR, fill); }

    /** Sum and sum of squares of the residuals in the window. */
    double windowSumW() const { return sumR; }
    double windowSumSqW() const { return sumR2; }

    /**
     * The report formulas over window sums, so a copy of the sums
     * (FleetMonitor's published slots) reports bit-identically.
     */
    static double rmseOf(double sumSq, std::size_t fill);
    static double meanOf(double sum, std::size_t fill);
    static double dreOf(double rmseW, double envelopeSpanW);

    /** True once the standardization baseline is fixed. */
    bool warmedUp() const { return total >= config_.warmupSamples; }

    /** True once the drift detector has fired (latched). */
    bool drifted() const { return driftedFlag; }

    /** Largest current Page-Hinkley excursion, standardized units. */
    double driftStatistic() const;

    /** Baseline mean fixed at warmup (0 before warmup completes). */
    double baselineMeanW() const { return mu0; }

    /** Baseline standard deviation fixed at warmup (after flooring). */
    double baselineSigmaW() const { return sigma0; }

    /**
     * The quality-state lattice: Unknown (still warming up) → Ok →
     * Drifting (latched until reset). Inline: read once per sample
     * on the serving hot path.
     */
    ModelQuality
    quality() const
    {
        if (driftedFlag)
            return ModelQuality::Drifting;
        return warmedUp() ? ModelQuality::Ok : ModelQuality::Unknown;
    }

    /** Forget everything (a new model was deployed). */
    void reset();

    /**
     * Clear the latched drift verdict but keep the calibration
     * baseline and rolling window. Used when a remediation decided to
     * keep the incumbent model (rollback): the detector re-arms
     * immediately, so a genuinely persisting drift refires within a
     * bounded number of samples instead of being latched forever,
     * while a transient one stays quiet. Deploying a *new* model
     * calls reset() instead.
     */
    void acknowledge();

    /** The configuration this tracker was built with. */
    const QualityMonitorConfig &config() const { return config_; }

  private:
    QualityMonitorConfig config_;

    // Rolling window (ring buffer) with incremental sums.
    std::vector<double> ring;
    std::size_t head = 0;
    std::size_t fill = 0;
    double sumR = 0.0;
    double sumR2 = 0.0;

    // Warmup accumulation (Welford) and the frozen baseline.
    std::size_t total = 0;
    double warmMean = 0.0;
    double warmM2 = 0.0;
    double mu0 = 0.0;
    double sigma0 = 0.0;

    // Two-sided Page-Hinkley state.
    double cumUp = 0.0;
    double minUp = 0.0;
    double cumDown = 0.0;
    double maxDown = 0.0;
    bool driftedFlag = false;
};

} // namespace chaos::monitor

#endif // CHAOS_MONITOR_QUALITY_HPP
