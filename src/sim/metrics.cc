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

MetricsRegistry::MetricsRegistry(unsigned ncpus_)
    : ncpus(ncpus_ ? ncpus_ : 1)
{
    // Registration order gives the fixed ids of namespace metric.
    histogram("latency.fault_ns");
    histogram("latency.pageout_ns");
    histogram("latency.pmap_op_ns");
    histogram("latency.disk_ns");
    histogram("tlb.shootdown_wait_ns");
    counter("tlb.shootdown_rounds");
    counter("tlb.shootdown_remote_targets");
    MACH_ASSERT(defs.size() == metric::kNumBuiltins);
}

MetricId
MetricsRegistry::registerMetric(const std::string &name, MetricKind kind,
                                const std::uint64_t *bound)
{
    auto it = byName.find(name);
    if (it != byName.end()) {
        MACH_ASSERT(defs[it->second].kind == kind);
        return MetricId{it->second};
    }
    Def def;
    def.name = name;
    def.kind = kind;
    def.bound = bound;
    if (!bound) {
        if (kind == MetricKind::Histogram)
            def.hists = std::make_unique<LatencyHistogram[]>(ncpus);
        else
            def.slots = std::make_unique<Slot[]>(ncpus);
    }
    unsigned index = unsigned(defs.size());
    defs.push_back(std::move(def));
    byName.emplace(name, index);
    return MetricId{index};
}

MetricId
MetricsRegistry::counter(const std::string &name)
{
    return registerMetric(name, MetricKind::Counter, nullptr);
}

MetricId
MetricsRegistry::histogram(const std::string &name)
{
    return registerMetric(name, MetricKind::Histogram, nullptr);
}

MetricId
MetricsRegistry::bind(const std::string &name,
                      const std::uint64_t *storage)
{
    MACH_ASSERT(storage != nullptr);
    return registerMetric(name, MetricKind::Counter, storage);
}

void
MetricsRegistry::add(MetricId id, std::uint64_t delta, CpuId cpu)
{
    if (!id.valid())
        return;
    // Only owned counters have slots (not histograms or bound
    // metrics), so the null check is also the kind check.
    Slot *slots = defs[id.index].slots.get();
    MACH_ASSERT(slots != nullptr);
    // The simulator is single-threaded: a relaxed load+store bumps
    // the shard without the locked read-modify-write an RMW atomic
    // would cost on the fault hot path.
    Slot &slot = slots[cpu < ncpus ? cpu : 0];
    slot.v.store(slot.v.load(std::memory_order_relaxed) + delta,
                 std::memory_order_relaxed);
}

void
MetricsRegistry::record(MetricId id, SimTime ns, CpuId cpu)
{
    if (!id.valid())
        return;
    LatencyHistogram *hists = defs[id.index].hists.get();
    MACH_ASSERT(hists != nullptr); // only histograms have shards
    hists[cpu < ncpus ? cpu : 0].record(ns);
}

std::uint64_t
MetricsRegistry::value(MetricId id) const
{
    if (!id.valid())
        return 0;
    const Def &def = defs[id.index];
    if (def.bound)
        return *def.bound;
    std::uint64_t sum = 0;
    for (unsigned c = 0; c < ncpus; ++c)
        sum += def.slots[c].v.load(std::memory_order_relaxed);
    return sum;
}

LatencyHistogram
MetricsRegistry::histogramValue(MetricId id) const
{
    LatencyHistogram merged;
    if (!id.valid())
        return merged;
    const Def &def = defs[id.index];
    MACH_ASSERT(def.kind == MetricKind::Histogram);
    for (unsigned c = 0; c < ncpus; ++c)
        merged.merge(def.hists[c]);
    return merged;
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
    for (unsigned i = 0; i < defs.size(); ++i) {
        const Def &def = defs[i];
        MetricId id{i};
        switch (def.kind) {
          case MetricKind::Counter:
            snap.counters.emplace_back(def.name, value(id));
            break;
          case MetricKind::Histogram:
            snap.histograms.emplace_back(def.name, histogramValue(id));
            break;
        }
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
