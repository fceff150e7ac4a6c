/**
 * @file
 * Mergeable quantile sketch (DDSketch-style relative-error buckets)
 * for hierarchical roll-ups.
 *
 * A fixed-bucket Histogram answers "how many drains took < 1 ms?"
 * but its percentiles are only as good as bounds chosen up front —
 * useless when one sketch must cover an Atom's 0.3 W residuals and a
 * Xeon's 40 W ones. The QuantileSketch instead buckets values on a
 * logarithmic grid: bucket i covers (gamma^(i-1), gamma^i] with
 * gamma = (1 + alpha) / (1 - alpha), so every reported quantile is
 * within relative error alpha of a true observation, at any scale,
 * with O(log range / alpha) buckets.
 *
 * The property that makes it the roll-up primitive: two sketches with
 * the same alpha merge by adding per-bucket counts — an associative,
 * commutative O(buckets) operation. A rack's sketch is the merge of
 * its fleets' sketches is the merge of their machines' points, and
 * the result is bit-identical regardless of merge order or thread
 * count (integer counts; exact min/max kept commutatively).
 *
 * Negative values are bucketed on a mirrored grid and values in
 * [-minIndexable, minIndexable] land in a dedicated zero bucket, so
 * signed quantities (bias, residuals) work too. Non-finite inputs are
 * ignored. Like the rest of this library it sits below chaos_util:
 * failures (alpha mismatch on merge) report through a bool, never an
 * exception.
 */
#ifndef CHAOS_OBS_SKETCH_HPP
#define CHAOS_OBS_SKETCH_HPP

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace chaos::obs {

/** Mergeable relative-error quantile sketch (see file comment). */
class QuantileSketch
{
  public:
    /**
     * @param relativeAccuracy Quantile relative-error bound alpha in
     *        (0, 1); 0.01 means a reported p99 is within 1 % of a
     *        true observation's value. Out-of-range values are
     *        clamped into [1e-4, 0.5].
     */
    explicit QuantileSketch(double relativeAccuracy = 0.01);

    /**
     * Record @p count occurrences of @p v. Non-finite values are
     * ignored (meter dropouts are a health concern, not a
     * distribution sample); count 0 is a no-op.
     */
    void add(double v, std::uint64_t count = 1);

    /**
     * Fold @p other into this sketch (per-bucket count addition).
     * @return False (leaving this sketch untouched) when the two
     *         sketches were built with different accuracies.
     */
    bool merge(const QuantileSketch &other);

    /**
     * Fold @p n sketches in at once: the same result as n merge()
     * calls in any order (counts add, min/max commute), in one pass
     * over their buckets instead of one pass over this sketch's per
     * call. @return False (leaving this sketch untouched) when any
     * accuracy differs.
     */
    bool mergeAll(const QuantileSketch *const *others, std::size_t n);

    /** Total recorded occurrences. */
    std::uint64_t count() const { return total_; }

    /** True when nothing was recorded. */
    bool empty() const { return total_ == 0; }

    /**
     * Value at quantile @p q in [0, 1] (clamped): a bucket-midpoint
     * estimate within the configured relative accuracy of a true
     * observation, clamped to the exact observed [min, max].
     * @return NaN when the sketch is empty.
     */
    double quantile(double q) const;

    /** Exact smallest recorded value (meaningful when !empty()). */
    double minValue() const { return min_; }

    /** Exact largest recorded value (meaningful when !empty()). */
    double maxValue() const { return max_; }

    /** The relative-error bound the sketch was built with. */
    double relativeAccuracy() const { return alpha_; }

    /** Buckets currently occupied (memory is O(buckets)). */
    std::size_t numBuckets() const
    {
        return positive_.size() + negative_.size() + (zero_ ? 1 : 0);
    }

    /** Approximate heap footprint in bytes (for budget gates). */
    std::size_t memoryBytes() const;

    /** Forget everything (accuracy is kept). */
    void clear();

    /**
     * Single-line JSON: accuracy, count, exact min/max, and the
     * occupied buckets as [index, count] pairs in ascending index
     * order. Deterministic: equal sketch states serialize to equal
     * bytes, so roll-up snapshots can be compared bitwise.
     */
    std::string toJson() const;

  private:
    /** Occupied buckets as (index, count), ascending index. */
    using Buckets = std::vector<std::pair<std::int32_t, std::uint64_t>>;

    static void bump(Buckets &buckets, std::int32_t index,
                     std::uint64_t count);
    static void mergeBuckets(Buckets &into,
                             const QuantileSketch *const *others,
                             std::size_t n, Buckets QuantileSketch::*side);

    std::int32_t bucketIndex(double magnitude) const;
    double bucketValue(std::int32_t index) const;

    double alpha_;
    double gamma_;
    double logGamma_;
    std::uint64_t total_ = 0;
    std::uint64_t zero_ = 0;
    double min_;
    double max_;
    Buckets positive_;
    Buckets negative_;
};

} // namespace chaos::obs

#endif // CHAOS_OBS_SKETCH_HPP
