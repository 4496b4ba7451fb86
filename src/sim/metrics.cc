#include "sim/metrics.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach
{

SimTime
LatencyHistogram::quantile(double p) const
{
    if (count_ == 0)
        return 0;
    if (p > 1.0)
        p = 1.0;
    std::uint64_t target =
        static_cast<std::uint64_t>(p * double(count_) + 0.5);
    if (target == 0)
        target = 1;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            SimTime hi = bucketUpperBound(i);
            return hi > max_ ? max_ : hi;
        }
    }
    return max_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0)
        return;
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    if (count_ == 0 || other.min_ < min_)
        min_ = other.min_;
    if (other.max_ > max_)
        max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
}

MetricsRegistry::MetricsRegistry()
{
    // Registration order gives the fixed ids of namespace metric.
    histogram("latency.fault_ns");
    histogram("latency.pageout_ns");
    histogram("latency.pmap_op_ns");
    histogram("latency.disk_ns");
    histogram("tlb.shootdown_wait_ns");
    MACH_ASSERT(defs.size() == metric::kNumBuiltins);
}

MetricId
MetricsRegistry::registerMetric(const std::string &name,
                                const std::uint64_t *bound)
{
    auto it = byName.find(name);
    if (it != byName.end()) {
        // A name is one histogram or one bound field, never both.
        MACH_ASSERT(!bound && defs[it->second].hist);
        return MetricId{it->second};
    }
    Def def;
    def.name = name;
    def.bound = bound;
    if (!bound)
        def.hist = std::make_unique<LatencyHistogram>();
    unsigned index = unsigned(defs.size());
    defs.push_back(std::move(def));
    byName.emplace(name, index);
    return MetricId{index};
}

MetricId
MetricsRegistry::histogram(const std::string &name)
{
    return registerMetric(name, nullptr);
}

MetricId
MetricsRegistry::bind(const std::string &name,
                      const std::uint64_t *storage)
{
    MACH_ASSERT(storage != nullptr);
    return registerMetric(name, storage);
}

void
MetricsRegistry::record(MetricId id, SimTime ns)
{
    LatencyHistogram *hist = defs[id.index].hist.get();
    MACH_ASSERT(hist != nullptr); // bound counters have none
    hist->record(ns);
}

std::uint64_t
MetricsRegistry::value(MetricId id) const
{
    if (!id.valid())
        return 0;
    const std::uint64_t *bound = defs[id.index].bound;
    MACH_ASSERT(bound != nullptr);
    return *bound;
}

LatencyHistogram
MetricsRegistry::histogramValue(MetricId id) const
{
    if (!id.valid())
        return {};
    const LatencyHistogram *hist = defs[id.index].hist.get();
    MACH_ASSERT(hist != nullptr);
    return *hist;
}

MetricId
MetricsRegistry::find(const std::string &name) const
{
    auto it = byName.find(name);
    return it == byName.end() ? MetricId{} : MetricId{it->second};
}

MetricsRegistry::Snapshot
MetricsRegistry::snapshot() const
{
    Snapshot snap;
    for (const Def &def : defs) {
        if (def.bound)
            snap.counters.emplace_back(def.name, *def.bound);
        else
            snap.histograms.emplace_back(def.name, *def.hist);
    }
    auto byFirst = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byFirst);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byFirst);
    return snap;
}

std::uint64_t
MetricsRegistry::Snapshot::counterValue(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

} // namespace mach
