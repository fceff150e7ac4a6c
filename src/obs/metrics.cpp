#include "obs/metrics.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sstream>

namespace chaos::obs {

namespace {

std::atomic<bool> metricsOn{true};

/// Format a double with enough digits to round-trip exactly.
std::string
formatDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}



} // namespace

void
setMetricsEnabled(bool enabled)
{
    metricsOn.store(enabled, std::memory_order_relaxed);
}

bool
metricsEnabled()
{
    return metricsOn.load(std::memory_order_relaxed);
}

Histogram::Histogram(std::vector<double> upperBounds)
    : bounds_(std::move(upperBounds)),
      counts_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      minSeen_(std::numeric_limits<double>::infinity()),
      maxSeen_(-std::numeric_limits<double>::infinity())
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    if (!metricsEnabled())
        return;
    auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    std::size_t bucket = static_cast<std::size_t>(it - bounds_.begin());
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);

    // min and max are commutative, so CAS loops keep them exact and
    // deterministic regardless of observation order.
    double seen = minSeen_.load(std::memory_order_relaxed);
    while (v < seen &&
           !minSeen_.compare_exchange_weak(seen, v,
                                           std::memory_order_relaxed)) {
    }
    seen = maxSeen_.load(std::memory_order_relaxed);
    while (v > seen &&
           !maxSeen_.compare_exchange_weak(seen, v,
                                           std::memory_order_relaxed)) {
    }
}

void
Histogram::observeBulk(const double *values, std::size_t n,
                       double offset)
{
    if (n == 0 || !metricsEnabled())
        return;
    constexpr std::size_t kMaxLocalBuckets = 64;
    if (bounds_.size() + 1 > kMaxLocalBuckets) {
        for (std::size_t i = 0; i < n; ++i)
            observe(values[i] + offset);
        return;
    }
    std::uint64_t local[kMaxLocalBuckets] = {};
    double lo = values[0] + offset;
    double hi = values[0] + offset;
    const double *bounds = bounds_.data();
    const std::size_t numBounds = bounds_.size();
    std::size_t b = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double v = values[i] + offset;
        // Bulk values cluster (one drain pass's waits): try the last
        // value's bucket before searching. Same bucket as
        // lower_bound: bounds[b - 1] < v <= bounds[b].
        if (!((b == 0 || bounds[b - 1] < v) &&
              (b == numBounds || !(bounds[b] < v)))) {
            b = static_cast<std::size_t>(
                std::lower_bound(bounds, bounds + numBounds, v) -
                bounds);
        }
        ++local[b];
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }
    for (std::size_t b = 0; b <= bounds_.size(); ++b) {
        if (local[b])
            counts_[b].fetch_add(local[b],
                                 std::memory_order_relaxed);
    }
    double seen = minSeen_.load(std::memory_order_relaxed);
    while (lo < seen &&
           !minSeen_.compare_exchange_weak(seen, lo,
                                           std::memory_order_relaxed)) {
    }
    seen = maxSeen_.load(std::memory_order_relaxed);
    while (hi > seen &&
           !maxSeen_.compare_exchange_weak(seen, hi,
                                           std::memory_order_relaxed)) {
    }
}

bool
Histogram::merge(const Histogram &other)
{
    if (bounds_ != other.bounds_)
        return false;
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        const std::uint64_t n =
            other.counts_[i].load(std::memory_order_relaxed);
        if (n)
            counts_[i].fetch_add(n, std::memory_order_relaxed);
    }
    // Reuse the CAS min/max loops: merge is just two more
    // commutative observations.
    const double lo = other.minSeen_.load(std::memory_order_relaxed);
    double seen = minSeen_.load(std::memory_order_relaxed);
    while (lo < seen &&
           !minSeen_.compare_exchange_weak(seen, lo,
                                           std::memory_order_relaxed)) {
    }
    const double hi = other.maxSeen_.load(std::memory_order_relaxed);
    seen = maxSeen_.load(std::memory_order_relaxed);
    while (hi > seen &&
           !maxSeen_.compare_exchange_weak(seen, hi,
                                           std::memory_order_relaxed)) {
    }
    return true;
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out(bounds_.size() + 1);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = counts_[i].load(std::memory_order_relaxed);
    return out;
}

std::uint64_t
Histogram::count() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        total += counts_[i].load(std::memory_order_relaxed);
    return total;
}

double
Histogram::minValue() const
{
    return minSeen_.load(std::memory_order_relaxed);
}

double
Histogram::maxValue() const
{
    return maxSeen_.load(std::memory_order_relaxed);
}

double
Histogram::percentile(double q) const
{
    const std::vector<std::uint64_t> counts = bucketCounts();
    std::uint64_t total = 0;
    for (std::uint64_t c : counts)
        total += c;
    if (total == 0)
        return std::numeric_limits<double>::quiet_NaN();

    q = std::clamp(q, 0.0, 1.0);
    const double lo = minValue();
    const double hi = maxValue();
    // Rank of the wanted observation, 1-based, in sorted order.
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               q * static_cast<double>(total) + 0.5));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        const std::uint64_t before = cumulative;
        cumulative += counts[i];
        if (cumulative < rank)
            continue;
        // Interpolate inside the bucket, but over the part of it the
        // observations can actually occupy: the first occupied bucket
        // starts at the observed min, the last one (and the unbounded
        // overflow bucket) ends at the observed max. Raw bucket edges
        // here skew boundary quantiles toward values never observed —
        // p99/p100 of a distribution confined to one bucket used to
        // land on the bucket edge before the clamp pulled them back.
        const double lowerRaw = i == 0 ? lo : bounds_[i - 1];
        const double upperRaw = i == bounds_.size() ? hi : bounds_[i];
        const double lower = std::max(lowerRaw, lo);
        const double upper = std::max(std::min(upperRaw, hi), lower);
        const double within =
            static_cast<double>(rank - before) /
            static_cast<double>(counts[i]);
        return lower + within * (upper - lower);
    }
    return hi;
}

void
Histogram::reset()
{
    for (std::size_t i = 0; i <= bounds_.size(); ++i)
        counts_[i].store(0, std::memory_order_relaxed);
    minSeen_.store(std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
    maxSeen_.store(-std::numeric_limits<double>::infinity(),
                   std::memory_order_relaxed);
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

Counter &
Registry::counter(const std::string &name, Stability stability)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        auto entry = std::make_unique<CounterEntry>();
        entry->stability = stability;
        it = counters_.emplace(name, std::move(entry)).first;
    }
    return it->second->counter;
}

Gauge &
Registry::gauge(const std::string &name, Stability stability)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        auto entry = std::make_unique<GaugeEntry>();
        entry->stability = stability;
        it = gauges_.emplace(name, std::move(entry)).first;
    }
    return it->second->gauge;
}

Histogram &
Registry::histogram(const std::string &name,
                    const std::vector<double> &upperBounds,
                    Stability stability)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(name, std::make_unique<HistogramEntry>(stability,
                                                                 upperBounds))
                 .first;
    }
    return it->second->histogram;
}

namespace {

/// Append one `"key": {"name": value, ...}` section holding the
/// entries of the selected stability class.
template <typename Map, typename Render>
void
appendSection(std::ostringstream &out, const std::string &indent,
              const std::string &key, const Map &entries, Stability wanted,
              Render render, bool &needComma)
{
    if (needComma)
        out << ",\n";
    needComma = true;
    out << indent << "\"" << key << "\": {";
    bool first = true;
    for (const auto &[name, entry] : entries) {
        if (entry->stability != wanted)
            continue;
        out << (first ? "\n" : ",\n") << indent << "  \"" << jsonEscape(name)
            << "\": ";
        render(out, *entry);
        first = false;
    }
    if (first)
        out << "}";
    else
        out << "\n" << indent << "}";
}

} // namespace

std::string
Registry::snapshotJson(bool includeScheduling) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream out;

    auto renderCounter = [](std::ostringstream &s, const CounterEntry &e) {
        s << e.counter.value();
    };
    auto renderGauge = [](std::ostringstream &s, const GaugeEntry &e) {
        s << e.gauge.value();
    };
    auto renderHistogram = [](std::ostringstream &s,
                              const HistogramEntry &e) {
        const Histogram &h = e.histogram;
        s << "{\"bounds\": [";
        for (std::size_t i = 0; i < h.bounds().size(); ++i)
            s << (i ? ", " : "") << formatDouble(h.bounds()[i]);
        s << "], \"counts\": [";
        auto counts = h.bucketCounts();
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < counts.size(); ++i) {
            s << (i ? ", " : "") << counts[i];
            total += counts[i];
        }
        s << "], \"count\": " << total;
        if (total > 0) {
            s << ", \"min\": " << formatDouble(h.minValue())
              << ", \"max\": " << formatDouble(h.maxValue());
        }
        s << "}";
    };

    auto emitClass = [&](const std::string &indent, Stability wanted,
                         bool &needComma) {
        appendSection(out, indent, "counters", counters_, wanted,
                      renderCounter, needComma);
        appendSection(out, indent, "gauges", gauges_, wanted, renderGauge,
                      needComma);
        appendSection(out, indent, "histograms", histograms_, wanted,
                      renderHistogram, needComma);
    };

    out << "{\n";
    bool needComma = false;
    emitClass("  ", Stability::Stable, needComma);
    if (includeScheduling) {
        out << ",\n  \"scheduling\": {\n";
        bool innerComma = false;
        emitClass("    ", Stability::Scheduling, innerComma);
        out << "\n  }";
    }
    out << "\n}\n";
    return out.str();
}

void
Registry::resetAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, entry] : counters_)
        entry->counter.reset();
    for (auto &[name, entry] : gauges_)
        entry->gauge.reset();
    for (auto &[name, entry] : histograms_)
        entry->histogram.reset();
}

} // namespace chaos::obs
