/**
 * @file
 * The metrics registry (src/sim/metrics.hh): histogram math,
 * registration semantics, the built-in ids, per-CPU shard merging,
 * bound metrics, snapshots, histogram bucket edges, and the
 * clock-attached emit helpers.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "sim/metrics.hh"
#include "sim/sim_clock.hh"
#include "sim/trace.hh"

namespace mach
{
namespace
{

TEST(LatencyHistogramTest, CountsTotalsAndExtremes)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0u);

    h.record(100);
    h.record(300);
    h.record(200);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.total(), 600u);
    EXPECT_EQ(h.min(), 100u);
    EXPECT_EQ(h.max(), 300u);
    EXPECT_EQ(h.mean(), 200u);
}

TEST(LatencyHistogramTest, BucketsAreLog2)
{
    LatencyHistogram h;
    h.record(0);    // bucket 0
    h.record(1);    // bucket 1
    h.record(5);    // bucket 3: bit_width(5) == 3
    h.record(1024); // bucket 11
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.bucketCount(11), 1u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(11), 2047u);
}

TEST(LatencyHistogramTest, QuantileMergeAndReset)
{
    LatencyHistogram h;
    for (int i = 0; i < 90; ++i)
        h.record(4);       // bucket 3, upper bound 7
    for (int i = 0; i < 10; ++i)
        h.record(1000);    // bucket 10, upper bound 1023
    EXPECT_EQ(h.quantile(0.5), 7u);
    // The p99 bucket's upper bound (1023) is clamped to the max seen.
    EXPECT_EQ(h.quantile(0.99), 1000u);

    LatencyHistogram other;
    other.record(1u << 20);
    h.merge(other);
    EXPECT_EQ(h.count(), 101u);
    EXPECT_EQ(h.max(), 1u << 20);
    EXPECT_EQ(h.min(), 4u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

TEST(MetricsRegistryTest, RegistrationFindsOrCreates)
{
    MetricsRegistry reg(2);
    MetricId a = reg.counter("vm.faults");
    MetricId b = reg.counter("vm.faults");
    MetricId c = reg.counter("vm.pageins");
    EXPECT_TRUE(a.valid());
    EXPECT_EQ(a.index, b.index);
    EXPECT_NE(a.index, c.index);
    EXPECT_EQ(reg.size(), metric::kNumBuiltins + 2);

    EXPECT_EQ(reg.find("vm.faults").index, a.index);
    EXPECT_FALSE(reg.find("no.such").valid());
}

TEST(MetricsRegistryTest, CounterShardsMergeAcrossCpus)
{
    MetricsRegistry reg(4);
    MetricId id = reg.counter("c");
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        reg.add(id, cpu + 1, cpu); // 1+2+3+4
    EXPECT_EQ(reg.value(id), 10u);
}

TEST(MetricsRegistryTest, BuiltinsHaveFixedIds)
{
    MetricsRegistry reg(2);
    EXPECT_EQ(reg.size(), metric::kNumBuiltins);
    EXPECT_EQ(reg.find("latency.fault_ns").index, metric::faultNs.index);
    EXPECT_EQ(reg.find("latency.pageout_ns").index,
              metric::pageoutNs.index);
    EXPECT_EQ(reg.find("latency.pmap_op_ns").index,
              metric::pmapOpNs.index);
    EXPECT_EQ(reg.find("latency.disk_ns").index, metric::diskNs.index);
    EXPECT_EQ(reg.find("tlb.shootdown_wait_ns").index,
              metric::shootdownWaitNs.index);
    EXPECT_EQ(reg.find("tlb.shootdown_rounds").index,
              metric::shootdownRounds.index);
    EXPECT_EQ(reg.find("tlb.shootdown_remote_targets").index,
              metric::shootdownRemoteTargets.index);
    // Registering a built-in by name finds it rather than adding one.
    EXPECT_EQ(reg.counter("tlb.shootdown_rounds").index,
              metric::shootdownRounds.index);
    EXPECT_EQ(reg.size(), metric::kNumBuiltins);
}

TEST(MetricsRegistryTest, HistogramShardsMergeAndKeepEdges)
{
    MetricsRegistry reg(2);
    MetricId id = reg.histogram("h");
    // Exact bucket-edge values: bucket index is bit_width(v), so 7
    // and 8 land in different buckets (upper bounds 7 and 15).
    reg.record(id, 7, 0);
    reg.record(id, 8, 1);
    reg.record(id, 8, 0);
    LatencyHistogram h = reg.histogramValue(id);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 8u);
    EXPECT_EQ(h.bucketCount(3), 1u); // 7 -> bucket 3 [4,7]
    EXPECT_EQ(h.bucketCount(4), 2u); // 8 -> bucket 4 [8,15]
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(3), 7u);
    EXPECT_EQ(LatencyHistogram::bucketUpperBound(4), 15u);
}

TEST(MetricsRegistryTest, BoundMetricReadsExternalStorage)
{
    std::uint64_t external = 0;
    MetricsRegistry reg(1);
    MetricId id = reg.bind("vm.external", &external);
    EXPECT_EQ(reg.value(id), 0u);
    external = 42; // the ++stats.x hot path, unchanged
    EXPECT_EQ(reg.value(id), 42u);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete)
{
    std::uint64_t external = 9;
    MetricsRegistry reg(2);
    reg.bind("b.bound", &external);
    MetricId c = reg.counter("a.counter");
    MetricId h = reg.histogram("m.hist");
    reg.add(c, 3, 1);
    reg.record(h, 100, 1);

    // Two more counters and five more histograms are built-ins.
    MetricsRegistry::Snapshot s = reg.snapshot();
    auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    ASSERT_EQ(s.counters.size(), 4u);
    EXPECT_TRUE(std::is_sorted(s.counters.begin(), s.counters.end(),
                               byName));
    EXPECT_EQ(s.counters[0].first, "a.counter");
    EXPECT_EQ(s.counters[0].second, 3u);
    EXPECT_EQ(s.counters[1].first, "b.bound");
    EXPECT_EQ(s.counters[1].second, 9u);
    ASSERT_EQ(s.histograms.size(), 6u);
    EXPECT_TRUE(std::is_sorted(s.histograms.begin(), s.histograms.end(),
                               byName));
    for (const auto &[name, hist] : s.histograms)
        EXPECT_EQ(hist.count(), name == "m.hist" ? 1u : 0u) << name;

    EXPECT_EQ(s.counterValue("b.bound"), 9u);
    EXPECT_EQ(s.counterValue("missing"), 0u);
}

TEST(MetricsHelperTest, DetachedClockCostsOneBranch)
{
    SimClock clock;
    MetricsRegistry reg(1);
    MetricId id = reg.counter("c");

    // No registry attached: helpers are no-ops.
    metricAdd(clock, id);
    EXPECT_EQ(reg.value(id), 0u);

    VmAccounting acct;
    acctFault(clock, &acct, TraceFaultKind::ZeroFill);
    acctPageout(clock, &acct);
    EXPECT_EQ(acct.faults(), 0u);
    EXPECT_EQ(acct.pageouts, 0u);
}

TEST(MetricsHelperTest, AttachedClockEmits)
{
    SimClock clock;
    MetricsRegistry reg(1);
    clock.setMetricsRegistry(&reg);
    MetricId c = reg.counter("c");
    MetricId h = reg.histogram("h");

    metricAdd(clock, c, 2);
    metricRecord(clock, h, 1000);
    EXPECT_EQ(reg.value(c), 2u);
    EXPECT_EQ(reg.histogramValue(h).count(), 1u);

    VmAccounting acct;
    acctFault(clock, &acct, TraceFaultKind::Cow);
    acctFault(clock, &acct, TraceFaultKind::Cow);
    acctFault(clock, &acct, TraceFaultKind::Pagein);
    acctPageout(clock, &acct);
    EXPECT_EQ(acct.faults(), 3u);
    EXPECT_EQ(acct.cowFaults(), 2u);
    EXPECT_EQ(acct.pageins(), 1u);
    EXPECT_EQ(acct.pageouts, 1u);

    clock.setMetricsRegistry(nullptr);
    metricAdd(clock, c);
    EXPECT_EQ(reg.value(c), 2u);
}

TEST(MetricsHelperTest, LatencySamplesNeedASink)
{
    SimClock clock;
    MetricsRegistry reg(1);
    clock.setMetricsRegistry(&reg);

    // A registry alone does not sample operation latencies...
    metricLatency(clock, metric::faultNs, 500);
    EXPECT_EQ(reg.histogramValue(metric::faultNs).count(), 0u);

    // ...an attached trace sink switches them on.
    TraceSink sink(4);
    clock.setTraceSink(&sink);
    metricLatency(clock, metric::faultNs, 500);
    EXPECT_EQ(reg.histogramValue(metric::faultNs).count(), 1u);
    EXPECT_EQ(sink.totalEmitted(), 0u); // samples are not events
}

TEST(VmAccountingTest, MergeSumsEveryKind)
{
    VmAccounting a, b;
    a.faultsByKind[static_cast<unsigned>(TraceFaultKind::ZeroFill)] =
        3;
    a.pageouts = 1;
    b.faultsByKind[static_cast<unsigned>(TraceFaultKind::Cow)] = 2;
    b.pageouts = 4;
    a.merge(b);
    EXPECT_EQ(a.faults(), 5u);
    EXPECT_EQ(a.zeroFills(), 3u);
    EXPECT_EQ(a.cowFaults(), 2u);
    EXPECT_EQ(a.pageouts, 5u);
}

} // namespace
} // namespace mach
