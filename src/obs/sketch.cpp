#include "obs/sketch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

namespace chaos::obs {

namespace {

/** Magnitudes at or below this collapse into the zero bucket. */
constexpr double kMinIndexable = 1e-12;

std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

QuantileSketch::QuantileSketch(double relativeAccuracy)
    : alpha_(std::clamp(relativeAccuracy, 1e-4, 0.5)),
      gamma_((1.0 + alpha_) / (1.0 - alpha_)),
      logGamma_(std::log(gamma_)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{}

std::int32_t
QuantileSketch::bucketIndex(double magnitude) const
{
    // Bucket i covers (gamma^(i-1), gamma^i]; ceil keeps the upper
    // edge inclusive so the index is stable for exact powers.
    return static_cast<std::int32_t>(
        std::ceil(std::log(magnitude) / logGamma_));
}

double
QuantileSketch::bucketValue(std::int32_t index) const
{
    // Midpoint (harmonic) estimate: within alpha of every value the
    // bucket can hold.
    return 2.0 * std::pow(gamma_, index) / (gamma_ + 1.0);
}

void
QuantileSketch::bump(Buckets &buckets, std::int32_t index,
                     std::uint64_t count)
{
    const auto it = std::lower_bound(
        buckets.begin(), buckets.end(), index,
        [](const auto &bucket, std::int32_t i) {
            return bucket.first < i;
        });
    if (it != buckets.end() && it->first == index) {
        it->second += count;
        return;
    }
    const auto at = it - buckets.begin();
    if (buckets.capacity() == 0)
        buckets.reserve(4); // Skip the 1, 2, 4 growth steps.
    buckets.insert(buckets.begin() + at, {index, count});
}

void
QuantileSketch::mergeBuckets(Buckets &into,
                             const QuantileSketch *const *others,
                             std::size_t n, Buckets QuantileSketch::*side)
{
    std::size_t entries = into.size();
    std::int32_t lo = into.empty() ? 0 : into.front().first;
    std::int32_t hi = into.empty() ? 0 : into.back().first;
    for (std::size_t k = 0; k < n; ++k) {
        const Buckets &from = others[k]->*side;
        if (from.empty())
            continue;
        lo = entries == 0 ? from.front().first
                          : std::min(lo, from.front().first);
        hi = entries == 0 ? from.back().first
                          : std::max(hi, from.back().first);
        entries += from.size();
    }
    if (entries == into.size())
        return;
    const auto range = static_cast<std::size_t>(
        static_cast<std::int64_t>(hi) - lo + 1);
    if (range <= 4 * entries) {
        // Dense: add every count into its index slot, then compact.
        std::vector<std::uint64_t> dense(range, 0);
        for (const auto &[index, count] : into)
            dense[static_cast<std::size_t>(index - lo)] += count;
        for (std::size_t k = 0; k < n; ++k) {
            for (const auto &[index, count] : others[k]->*side)
                dense[static_cast<std::size_t>(index - lo)] += count;
        }
        into.clear();
        for (std::size_t i = 0; i < range; ++i) {
            if (dense[i] != 0)
                into.emplace_back(static_cast<std::int32_t>(lo + i),
                                  dense[i]);
        }
        return;
    }
    // Sparse: concatenate, sort by index, sum equal indices.
    into.reserve(entries);
    for (std::size_t k = 0; k < n; ++k) {
        const Buckets &from = others[k]->*side;
        into.insert(into.end(), from.begin(), from.end());
    }
    std::sort(into.begin(), into.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 0; i < into.size(); ++i) {
        if (out > 0 && into[out - 1].first == into[i].first)
            into[out - 1].second += into[i].second;
        else
            into[out++] = into[i];
    }
    into.resize(out);
}

void
QuantileSketch::add(double v, std::uint64_t count)
{
    if (count == 0 || !std::isfinite(v))
        return;
    if (v > kMinIndexable)
        bump(positive_, bucketIndex(v), count);
    else if (v < -kMinIndexable)
        bump(negative_, bucketIndex(-v), count);
    else
        zero_ += count;
    total_ += count;
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
}

bool
QuantileSketch::merge(const QuantileSketch &other)
{
    const QuantileSketch *one = &other;
    return mergeAll(&one, 1);
}

bool
QuantileSketch::mergeAll(const QuantileSketch *const *others,
                         std::size_t n)
{
    for (std::size_t k = 0; k < n; ++k) {
        if (others[k]->alpha_ != alpha_)
            return false;
    }
    mergeBuckets(positive_, others, n, &QuantileSketch::positive_);
    mergeBuckets(negative_, others, n, &QuantileSketch::negative_);
    for (std::size_t k = 0; k < n; ++k) {
        zero_ += others[k]->zero_;
        total_ += others[k]->total_;
        min_ = std::min(min_, others[k]->min_);
        max_ = std::max(max_, others[k]->max_);
    }
    return true;
}

double
QuantileSketch::quantile(double q) const
{
    if (total_ == 0)
        return std::numeric_limits<double>::quiet_NaN();
    q = std::clamp(q, 0.0, 1.0);
    // 1-based rank of the wanted observation in ascending order.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               q * static_cast<double>(total_) + 0.5));

    std::uint64_t cumulative = 0;
    // Ascending order: most-negative magnitudes first.
    for (auto it = negative_.rbegin(); it != negative_.rend(); ++it) {
        cumulative += it->second;
        if (cumulative >= rank)
            return std::clamp(-bucketValue(it->first), min_, max_);
    }
    cumulative += zero_;
    if (cumulative >= rank)
        return std::clamp(0.0, min_, max_);
    for (const auto &[index, count] : positive_) {
        cumulative += count;
        if (cumulative >= rank)
            return std::clamp(bucketValue(index), min_, max_);
    }
    return max_;
}

std::size_t
QuantileSketch::memoryBytes() const
{
    return sizeof(*this) +
           (positive_.capacity() + negative_.capacity()) *
               sizeof(Buckets::value_type);
}

void
QuantileSketch::clear()
{
    total_ = 0;
    zero_ = 0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
    positive_.clear();
    negative_.clear();
}

std::string
QuantileSketch::toJson() const
{
    std::ostringstream out;
    out << "{\"accuracy\": " << formatDouble(alpha_)
        << ", \"count\": " << total_;
    if (total_ > 0) {
        out << ", \"min\": " << formatDouble(min_)
            << ", \"max\": " << formatDouble(max_);
    }
    out << ", \"zero\": " << zero_ << ", \"negative\": [";
    bool first = true;
    for (const auto &[index, count] : negative_) {
        out << (first ? "" : ", ") << "[" << index << ", " << count
            << "]";
        first = false;
    }
    out << "], \"positive\": [";
    first = true;
    for (const auto &[index, count] : positive_) {
        out << (first ? "" : ", ") << "[" << index << ", " << count
            << "]";
        first = false;
    }
    out << "]}";
    return out.str();
}

} // namespace chaos::obs
