/**
 * @file
 * The VM event tracing layer (src/sim/trace.hh): ring-buffer
 * wraparound accounting, attach/detach semantics, event ordering, the
 * event sequence of a copy-on-write fault, which registry histograms
 * an attached sink switches on, and that attaching one leaves every
 * simulated result unchanged.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "test_util.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

TEST(TraceSinkTest, RingWraparoundIsLossyButCounted)
{
    TraceSink sink(8);
    EXPECT_EQ(sink.capacity(), 8u);

    for (std::uint64_t i = 0; i < 20; ++i) {
        sink.emit(TraceEventType::Ipi, /*cpu=*/0, /*time=*/i * 10,
                  /*detail=*/0, /*arg0=*/i, /*arg1=*/0);
    }

    EXPECT_EQ(sink.totalEmitted(), 20u);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.totalDropped(), 12u);

    // The retained window is the newest 8 events, oldest first.
    for (std::size_t i = 0; i < sink.size(); ++i) {
        EXPECT_EQ(sink.at(i).arg0, 12 + i);
        EXPECT_EQ(sink.at(i).time, (12 + i) * 10);
    }

    sink.reset();
    EXPECT_EQ(sink.totalEmitted(), 0u);
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.totalDropped(), 0u);
}

TEST(TraceSinkTest, NoLossBelowCapacity)
{
    TraceSink sink(16);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.emit(TraceEventType::DiskRead, 0, i, 0, i, 0);
    EXPECT_EQ(sink.size(), 10u);
    EXPECT_EQ(sink.totalDropped(), 0u);
    EXPECT_EQ(sink.at(0).arg0, 0u);
    EXPECT_EQ(sink.at(9).arg0, 9u);
}

TEST(TraceSinkTest, EventNamesAreStable)
{
    EXPECT_STREQ(traceEventName(TraceEventType::FaultBegin),
                 "fault_begin");
    EXPECT_STREQ(traceEventName(TraceEventType::DiskWrite),
                 "disk_write");
    EXPECT_STREQ(traceFaultKindName(TraceFaultKind::Cow), "cow");
}

/** A kernel-driven workload: zero fill, fork, COW write, pageout. */
class TraceKernelTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
    }

    // The sink must outlive the kernel (task teardown emits events),
    // and a detach here keeps an early ASSERT exit from leaving the
    // clock pointing at a destroyed sink.
    void
    TearDown() override
    {
        kernel->machine.clock().setTraceSink(nullptr);
    }

    TraceSink sink;

    /** Touch a few fresh pages so events of several types appear. */
    void
    workload()
    {
        VmOffset addr = 0;
        ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
                  KernReturn::Success);
        auto data = test::pattern(2 * page);
        ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(),
                                    data.size()),
                  KernReturn::Success);
        ASSERT_EQ(vmDeallocate(*kernel->vm, task->map(), addr,
                               4 * page),
                  KernReturn::Success);
    }

    /** The registry's merged histogram for built-in @p id. */
    LatencyHistogram
    latency(MetricId id) const
    {
        return kernel->vm->metrics.histogramValue(id);
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
};

TEST_F(TraceKernelTest, DetachedSinkSeesNothing)
{
    // Never attached: a full workload emits no events and samples
    // no operation latencies...
    workload();
    EXPECT_EQ(sink.totalEmitted(), 0u);
    EXPECT_EQ(latency(metric::faultNs).count(), 0u);

    // ...and statistics() reports empty histograms.
    VmStatistics st = kernel->vm->statistics();
    EXPECT_EQ(st.faultLatency.count(), 0u);
    EXPECT_EQ(st.pmapOpLatency.count(), 0u);
}

TEST_F(TraceKernelTest, DetachStopsEmission)
{
    kernel->machine.clock().setTraceSink(&sink);
    workload();
    std::uint64_t mid = sink.totalEmitted();
    EXPECT_GT(mid, 0u);

    // statistics() reports the registry's histograms, which the
    // attached sink switched on.
    VmStatistics st = kernel->vm->statistics();
    EXPECT_GT(st.faultLatency.count(), 0u);
    EXPECT_GT(st.pmapOpLatency.count(), 0u);
    EXPECT_EQ(st.faultLatency.count(), latency(metric::faultNs).count());

    // Detached: no more events, and no more latency samples.
    std::uint64_t faults = latency(metric::faultNs).count();
    kernel->machine.clock().setTraceSink(nullptr);
    workload();
    EXPECT_EQ(sink.totalEmitted(), mid);
    EXPECT_EQ(latency(metric::faultNs).count(), faults);
}

TEST_F(TraceKernelTest, FaultLatencyCountMatchesFaultEndEvents)
{
    kernel->machine.clock().setTraceSink(&sink);
    workload();
    Task *child = kernel->taskFork(*task);
    workload();
    kernel->taskTerminate(child);
    kernel->machine.clock().setTraceSink(nullptr);
    ASSERT_EQ(sink.totalDropped(), 0u)
        << "test workload must fit in the default ring";

    std::uint64_t fault_ends = 0;
    for (std::size_t i = 0; i < sink.size(); ++i) {
        if (sink.at(i).type == TraceEventType::FaultEnd)
            ++fault_ends;
    }
    EXPECT_GT(fault_ends, 0u);
    EXPECT_EQ(latency(metric::faultNs).count(), fault_ends);
}

TEST(TraceRegistryTest, UntracedRunSamplesOnlyShootdowns)
{
    // A 4-CPU MultiMax with a task active on every CPU, so fork's
    // write-protect and the COW copy run immediate shootdown rounds.
    Kernel kernel(test::tinySpec(ArchType::Ns32082, 2, 4));
    ASSERT_EQ(kernel.machine.clock().traceSink(), nullptr);
    VmSize page = kernel.pageSize();
    Task *task = kernel.taskCreate();
    for (CpuId cpu = 0; cpu < 4; ++cpu)
        kernel.switchTo(task, cpu);
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 8 * page, true),
              KernReturn::Success);
    auto data = test::pattern(8 * page);
    ASSERT_EQ(kernel.taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);
    Task *child = kernel.taskFork(*task);
    ASSERT_EQ(kernel.taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);
    kernel.taskTerminate(child);

    const MetricsRegistry &reg = kernel.vm->metrics;
    for (MetricId id : {metric::faultNs, metric::pageoutNs,
                        metric::pmapOpNs, metric::diskNs})
        EXPECT_EQ(reg.histogramValue(id).count(), 0u) << id.index;
    std::uint64_t rounds = reg.value(metric::shootdownRounds);
    EXPECT_GT(rounds, 0u);
    EXPECT_GT(kernel.vm->pmaps.shootdownIpis, 0u);
    EXPECT_EQ(reg.histogramValue(metric::shootdownWaitNs).count(), rounds);
    EXPECT_EQ(kernel.vm->statistics().shootdownLatency.count(), rounds);
}

TEST_F(TraceKernelTest, EventsOrderedBySimulatedTime)
{
    kernel->machine.clock().setTraceSink(&sink);
    workload();
    Task *child = kernel->taskFork(*task);
    workload();
    kernel->taskTerminate(child);

    ASSERT_GT(sink.size(), 0u);
    for (std::size_t i = 1; i < sink.size(); ++i) {
        EXPECT_LE(sink.at(i - 1).time, sink.at(i).time)
            << "event " << i << " ("
            << traceEventName(sink.at(i).type)
            << ") out of order after "
            << traceEventName(sink.at(i - 1).type);
    }
    EXPECT_LE(sink.at(sink.size() - 1).time,
              kernel->machine.clock().now());
    kernel->machine.clock().setTraceSink(nullptr);
}

TEST_F(TraceKernelTest, CowFaultEventSequence)
{
    // Build a writable page in the parent before tracing starts.
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, page, true),
              KernReturn::Success);
    auto data = test::pattern(64);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);

    kernel->machine.clock().setTraceSink(&sink);

    // Fork write-protects the parent's resident mappings, which must
    // show up as a protect plus a TLB-consistency request.
    std::uint64_t cow0 = kernel->vm->stats.cowFaults;
    Task *child = kernel->taskFork(*task);
    std::size_t fork_end = sink.size();

    // First write in the child: the copy-on-write fault proper.
    std::uint8_t byte = 0x5a;
    ASSERT_EQ(kernel->taskWrite(*child, addr, &byte, 1),
              KernReturn::Success);
    EXPECT_EQ(kernel->vm->stats.cowFaults, cow0 + 1);
    ASSERT_EQ(sink.totalDropped(), 0u)
        << "test workload must fit in the default ring";

    auto findFrom = [&](std::size_t from, TraceEventType type,
                        std::uint64_t arg0, int detail) {
        for (std::size_t i = from; i < sink.size(); ++i) {
            const TraceRecord &r = sink.at(i);
            if (r.type != type)
                continue;
            if (arg0 != ~std::uint64_t(0) && r.arg0 != arg0)
                continue;
            if (detail >= 0 && r.detail != detail)
                continue;
            return i;
        }
        return sink.size();
    };
    const auto any = ~std::uint64_t(0);

    // The fork window: pmap_copy_on_write on the parent's page plus
    // the shootdown request that keeps remote TLBs consistent.
    std::size_t prot = findFrom(0, TraceEventType::PmapCow, any, -1);
    ASSERT_LT(prot, fork_end) << "fork did not write-protect";
    std::size_t shoot = findFrom(0, TraceEventType::Shootdown, any, -1);
    ASSERT_LT(shoot, fork_end) << "fork protect sent no shootdown";

    // The fault window: begin(write) -> mapping entered -> end(cow).
    std::size_t begin =
        findFrom(fork_end, TraceEventType::FaultBegin, addr,
                 static_cast<int>(FaultType::Write));
    ASSERT_LT(begin, sink.size()) << "no write FaultBegin for the COW";
    std::size_t enter =
        findFrom(begin, TraceEventType::PmapEnter, addr, -1);
    ASSERT_LT(enter, sink.size()) << "COW fault entered no mapping";
    std::size_t end =
        findFrom(enter, TraceEventType::FaultEnd, addr,
                 static_cast<int>(TraceFaultKind::Cow));
    ASSERT_LT(end, sink.size()) << "no FaultEnd with kind=cow";

    // The resolution latency rides in arg1 and lands in the
    // registry's fault histogram.
    EXPECT_GT(sink.at(end).arg1, 0u);
    EXPECT_GT(latency(metric::faultNs).count(), 0u);
    EXPECT_GT(latency(metric::pmapOpNs).count(), 0u);

    kernel->machine.clock().setTraceSink(nullptr);
    kernel->taskTerminate(child);
}

/**
 * Attaching a sink must not change anything the simulation computes:
 * the same script runs on two fresh kernels, one traced, and every
 * simulated time, VM counter and shootdown counter must agree.  The
 * MultiMax runs on 4 CPUs so shootdown rounds and IPIs happen.
 */
class TraceNeutralityTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    std::unique_ptr<Kernel>
    makeKernel() const
    {
        unsigned cpus = GetParam() == ArchType::Ns32082 ? 4 : 1;
        return std::make_unique<Kernel>(
            test::tinySpec(GetParam(), 1, cpus));
    }

    /** Fork, COW writes, dealloc, then pageout pressure. */
    static void
    script(Kernel &kernel)
    {
        const VmSize page = kernel.pageSize();
        const unsigned cpus = kernel.machine.numCpus();
        Task *parent = kernel.taskCreate();
        for (CpuId cpu = 0; cpu < cpus; ++cpu)
            kernel.switchTo(parent, cpu);

        VmSize size = 16 * page;
        VmOffset addr = 0;
        ASSERT_EQ(parent->map().allocate(&addr, size, true),
                  KernReturn::Success);
        auto data = test::pattern(size, 5);
        ASSERT_EQ(kernel.taskWrite(*parent, addr, data.data(), size),
                  KernReturn::Success);

        Task *child = kernel.taskFork(*parent);
        kernel.switchTo(child, cpus - 1);
        auto other = test::pattern(size / 2, 6);
        ASSERT_EQ(kernel.taskWrite(*child, addr, other.data(),
                                   other.size()),
                  KernReturn::Success);
        kernel.switchTo(parent, 0);
        ASSERT_EQ(kernel.taskWrite(*parent, addr + size / 2,
                                   other.data(), other.size()),
                  KernReturn::Success);
        ASSERT_EQ(vmDeallocate(*kernel.vm, parent->map(), addr, size / 2),
                  KernReturn::Success);

        // Write more than physical memory holds, then read it back.
        VmSize big = kernel.machine.spec.physMemBytes * 3 / 2;
        VmOffset baddr = 0;
        ASSERT_EQ(child->map().allocate(&baddr, big, true),
                  KernReturn::Success);
        auto fill = test::pattern(big, 7);
        ASSERT_EQ(kernel.taskWrite(*child, baddr, fill.data(), big),
                  KernReturn::Success);
        std::vector<std::uint8_t> back(big);
        ASSERT_EQ(kernel.taskRead(*child, baddr, back.data(), big),
                  KernReturn::Success);
        ASSERT_EQ(back, fill);
        kernel.taskTerminate(child);
    }
};

TEST_P(TraceNeutralityTest, SinkDoesNotChangeSimulatedResults)
{
    auto plain = makeKernel();
    auto traced = makeKernel();
    TraceSink sink(1 << 16);
    traced->machine.clock().setTraceSink(&sink);
    script(*plain);
    script(*traced);
    traced->machine.clock().setTraceSink(nullptr);
    ASSERT_FALSE(HasFatalFailure());
    EXPECT_GT(sink.totalEmitted(), 0u);

    const SimClock &a = plain->machine.clock();
    const SimClock &b = traced->machine.clock();
    EXPECT_EQ(a.now(), b.now());
    for (std::size_t k = 0; k < SimClock::numKinds; ++k)
        EXPECT_EQ(a.kindTotal(CostKind(k)), b.kindTotal(CostKind(k)))
            << "cost kind " << k;

    // Every VmStatistics counter and every pmap shootdown counter
    // (shootdownIpis ... batchFlushes, rounds, remote targets) is a
    // registry counter; the queue counts are filled separately.
    auto ca = plain->vm->metricsSnapshot().counters;
    auto cb = traced->vm->metricsSnapshot().counters;
    ASSERT_EQ(ca.size(), cb.size());
    for (std::size_t i = 0; i < ca.size(); ++i) {
        EXPECT_EQ(ca[i].first, cb[i].first);
        EXPECT_EQ(ca[i].second, cb[i].second) << ca[i].first;
    }
    VmStatistics sa = plain->vm->statistics();
    VmStatistics sb = traced->vm->statistics();
    EXPECT_EQ(sa.freeCount, sb.freeCount);
    EXPECT_EQ(sa.activeCount, sb.activeCount);
    EXPECT_EQ(sa.inactiveCount, sb.inactiveCount);
    EXPECT_EQ(sa.wireCount, sb.wireCount);
    EXPECT_EQ(plain->machine.ipiCount(), traced->machine.ipiCount());

    // The script exercised what it claims to.
    EXPECT_GT(sa.cowFaults, 0u);
    EXPECT_GT(sa.pageouts, 0u);
    if (plain->machine.numCpus() > 1) {
        EXPECT_GT(plain->vm->metrics.value(metric::shootdownRounds), 0u);
        EXPECT_GT(sa.shootdownIpis, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, TraceNeutralityTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
