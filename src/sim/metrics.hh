/**
 * @file
 * The VM metrics registry: one name for every counter and histogram
 * the simulator reports.
 *
 * A MetricsRegistry holds two kinds of named metric:
 *
 *  - *counters* are plain std::uint64_t fields owned by the layer
 *    that counts them (VmSys::stats, the pageout daemon's counters,
 *    the pmap layer's shootdown counters, the zones).  The registry
 *    binds each once by name and reads it at snapshot time, so the
 *    hot `++stats.x` form costs nothing extra and a counter and its
 *    named view cannot disagree;
 *  - *histograms* are log2 latency distributions the registry owns,
 *    one per metric.
 *
 * The registry registers its built-in histograms (namespace metric
 * below) at fixed ids in its constructor, so their emit sites index
 * them directly.  The four per-operation latency histograms are
 * sampled only while a trace sink (src/sim/trace.hh) is attached;
 * the shootdown wait whenever the registry is attached.
 *
 * Cost discipline: the registry rides on the SimClock next to the
 * trace sink, every emit helper first tests that pointer, and
 * metrics never charge simulated time.
 *
 * The same header defines VmAccounting, the per-task / per-object
 * attribution record maintained at the vm_fault / vm_pageout emit
 * sites and surfaced through the task_info-style API in vm_user.
 */

#ifndef MACH_SIM_METRICS_HH
#define MACH_SIM_METRICS_HH

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/types.hh"
#include "sim/sim_clock.hh"
#include "sim/trace.hh"

namespace mach
{

/**
 * A log2-bucketed histogram of simulated nanoseconds.  Cheap enough
 * to update per event; rich enough for benchmarks to report counts,
 * totals and approximate quantiles.
 */
class LatencyHistogram
{
  public:
    /** Bucket i holds samples with bit_width(ns) == i (0 = zero). */
    static constexpr unsigned kBuckets = 48;

    void
    record(SimTime ns)
    {
        unsigned b = bucketOf(ns);
        ++buckets_[b];
        ++count_;
        sum_ += ns;
        if (count_ == 1 || ns < min_)
            min_ = ns;
        if (ns > max_)
            max_ = ns;
    }

    std::uint64_t count() const { return count_; }
    SimTime total() const { return sum_; }
    SimTime min() const { return count_ ? min_ : 0; }
    SimTime max() const { return max_; }
    SimTime mean() const { return count_ ? sum_ / count_ : 0; }
    std::uint64_t bucketCount(unsigned i) const { return buckets_[i]; }

    /** Inclusive upper bound of bucket @p i (its samples are ≤ it). */
    static SimTime
    bucketUpperBound(unsigned i)
    {
        if (i == 0)
            return 0;
        if (i >= 64)
            return ~SimTime(0);
        return (SimTime(1) << i) - 1;
    }

    /**
     * Approximate quantile: the upper bound of the first bucket at
     * which the cumulative count reaches @p p * count (0 < p <= 1).
     */
    SimTime quantile(double p) const;

    void merge(const LatencyHistogram &other);
    void reset() { *this = LatencyHistogram{}; }

  private:
    static unsigned
    bucketOf(SimTime ns)
    {
        unsigned w = std::bit_width(std::uint64_t(ns));
        return w < kBuckets ? w : kBuckets - 1;
    }

    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    SimTime sum_ = 0;
    SimTime min_ = 0;
    SimTime max_ = 0;
};

/** Opaque handle to a registered metric (index into the registry). */
struct MetricId
{
    static constexpr unsigned kInvalid = ~0u;
    unsigned index = kInvalid;
    bool valid() const { return index != kInvalid; }
};

/**
 * The built-in histograms every registry registers in its
 * constructor, at these fixed ids.
 */
namespace metric
{
inline constexpr MetricId faultNs{0};    //!< latency.fault_ns
inline constexpr MetricId pageoutNs{1};  //!< latency.pageout_ns
inline constexpr MetricId pmapOpNs{2};   //!< latency.pmap_op_ns
inline constexpr MetricId diskNs{3};     //!< latency.disk_ns
/** tlb.shootdown_wait_ns: one sample per immediate round. */
inline constexpr MetricId shootdownWaitNs{4};
inline constexpr unsigned kNumBuiltins = 5;
} // namespace metric

/**
 * Attribution record for one task (via its VmMap) or one VmObject:
 * where that task's faults went, what I/O it caused.  Updated at the
 * vm_fault / vm_pageout emit sites, read by vmTaskInfo / the
 * introspection tests.
 */
struct VmAccounting
{
    static constexpr unsigned kNumFaultKinds = 6;

    /** Faults by resolution, indexed by TraceFaultKind. */
    std::array<std::uint64_t, kNumFaultKinds> faultsByKind{};
    std::uint64_t pageouts = 0; //!< pages of this object laundered

    std::uint64_t
    faults() const
    {
        std::uint64_t n = 0;
        for (std::uint64_t k : faultsByKind)
            n += k;
        return n;
    }

    void
    noteFault(TraceFaultKind kind)
    {
        ++faultsByKind[static_cast<unsigned>(kind)];
    }

    std::uint64_t
    faultsOf(TraceFaultKind kind) const
    {
        return faultsByKind[static_cast<unsigned>(kind)];
    }

    std::uint64_t pageins() const
    {
        return faultsOf(TraceFaultKind::Pagein);
    }
    std::uint64_t zeroFills() const
    {
        return faultsOf(TraceFaultKind::ZeroFill);
    }
    std::uint64_t cowFaults() const
    {
        return faultsOf(TraceFaultKind::Cow);
    }

    void
    merge(const VmAccounting &other)
    {
        for (unsigned i = 0; i < kNumFaultKinds; ++i)
            faultsByKind[i] += other.faultsByKind[i];
        pageouts += other.pageouts;
    }
};

/**
 * The registry proper.  Registration (boot-time, cold) hands back
 * MetricIds; the emit paths use only those ids.
 */
class MetricsRegistry
{
  public:
    /** Registers the built-ins of namespace metric. */
    MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Registration (find-or-create by name) @{ */
    MetricId histogram(const std::string &name);

    /**
     * Expose a counter field (e.g. a VmStatistics field) by name.
     * The storage must outlive the registry; it is read at snapshot
     * time only.
     */
    MetricId bind(const std::string &name, const std::uint64_t *storage);
    /** @} */

    /** Record a sample into histogram @p id (hot). */
    void record(MetricId id, SimTime ns);

    /** @name Snapshot / query (cold) @{ */
    /** Value of a bound counter; 0 for an invalid id. */
    std::uint64_t value(MetricId id) const;
    /** Histogram @p id; empty for an invalid id. */
    LatencyHistogram histogramValue(MetricId id) const;

    struct Snapshot
    {
        /** name -> value of every bound counter. */
        std::vector<std::pair<std::string, std::uint64_t>> counters;
        /** name -> distribution of every histogram. */
        std::vector<std::pair<std::string, LatencyHistogram>> histograms;

        /** Convenience lookup; 0 when absent. */
        std::uint64_t counterValue(const std::string &name) const;
    };

    /** Every metric's current value, sorted by name. */
    Snapshot snapshot() const;

    MetricId find(const std::string &name) const;
    std::size_t size() const { return defs.size(); }
    /** @} */

  private:
    /** A bound counter (bound set) or an owned histogram (hist set). */
    struct Def
    {
        std::string name;
        const std::uint64_t *bound = nullptr;
        std::unique_ptr<LatencyHistogram> hist;
    };

    MetricId registerMetric(const std::string &name,
                            const std::uint64_t *bound);

    std::vector<Def> defs;
    std::unordered_map<std::string, unsigned> byName;
};

/**
 * @name Emit helpers
 *
 * The per-call-site cost: one branch on the clock's registry pointer
 * (null before VmSys attaches it and after VmSys is gone, while the
 * pmaps that outlive it still run).
 * @{
 */

/** Record a sample into a registered histogram. */
inline void
metricRecord(SimClock &clock, MetricId id, SimTime ns)
{
    if (MetricsRegistry *m = clock.metricsRegistry())
        m->record(id, ns);
}

/**
 * Record an operation latency (metric::faultNs, pageoutNs, pmapOpNs
 * or diskNs), but only while a trace sink is attached: sampling them
 * on every operation cost 4-5% of perfbench's host throughput
 * (EXPERIMENTS.md section L), so tracing is what switches them on.
 */
inline void
metricLatency(SimClock &clock, MetricId id, SimTime ns)
{
    if (clock.traceSink())
        metricRecord(clock, id, ns);
}

/** @} */

} // namespace mach

#endif // MACH_SIM_METRICS_HH
