/**
 * @file
 * End-to-end introspection: per-task accounting reproduces the
 * global VmStatistics counters across a fork/COW workload, the
 * task_info-style API reports resident and wired pages, per-object
 * attribution follows the satisfying object, and the registry
 * snapshot agrees with the bound counters.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "kern/task.hh"
#include "sim/metrics.hh"
#include "test_util.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

class IntrospectionTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        ASSERT_EQ(kernel->machine.clock().metricsRegistry(),
                  &kernel->vm->metrics);
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
};

TEST_F(IntrospectionTest, TaskSumsReproduceGlobalCounters)
{
    // Faults from task maps are attributed exactly once each, so
    // across any workload driven purely through task memory the
    // per-task records must sum to the global VmStatistics deltas.
    VmStatistics before = kernel->vm->stats;

    Task *parent = kernel->taskCreate();
    VmOffset addr = 0;
    VmSize size = 8 * page;
    ASSERT_EQ(parent->map().allocate(&addr, size, true),
              KernReturn::Success);
    auto data = test::pattern(size);
    ASSERT_EQ(kernel->taskWrite(*parent, addr, data.data(), size),
              KernReturn::Success);

    Task *child = kernel->taskFork(*parent);
    // Child COWs half the region, parent re-touches its own copy.
    ASSERT_EQ(kernel->taskWrite(*child, addr, data.data(), size / 2),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskWrite(*parent, addr, data.data(), size),
              KernReturn::Success);

    VmStatistics after = kernel->vm->stats;
    TaskVmInfo pi = parent->vmInfo();
    TaskVmInfo ci = child->vmInfo();

    VmAccounting sum = pi.acct;
    sum.merge(ci.acct);
    EXPECT_EQ(sum.faults(), after.faults - before.faults);
    EXPECT_EQ(sum.zeroFills(),
              after.zeroFillCount - before.zeroFillCount);
    EXPECT_EQ(sum.cowFaults(), after.cowFaults - before.cowFaults);
    EXPECT_EQ(sum.pageins(), after.pageins - before.pageins);

    // The workload is zero-fill + COW only; both kinds must appear.
    EXPECT_GT(sum.zeroFills(), 0u);
    EXPECT_GT(sum.cowFaults(), 0u);
    // The child's COW writes landed on the child, not the parent.
    EXPECT_GT(ci.acct.cowFaults(), 0u);

    kernel->taskTerminate(child);
}

TEST_F(IntrospectionTest, TaskInfoCountsResidentAndWiredPages)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);

    TaskVmInfo empty = task->vmInfo();
    EXPECT_EQ(empty.residentPages, 0u);
    EXPECT_GE(empty.virtualSize, 4 * page);

    // Touch three of the four pages.
    ASSERT_EQ(kernel->taskTouch(*task, addr, 3 * page,
                                AccessType::Write),
              KernReturn::Success);
    TaskVmInfo touched = task->vmInfo();
    EXPECT_EQ(touched.residentPages, 3u);
    EXPECT_EQ(touched.wiredPages, 0u);

    // Wire one page and recount.
    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, true),
              KernReturn::Success);
    TaskVmInfo wired = task->vmInfo();
    EXPECT_EQ(wired.wiredPages, 1u);
    EXPECT_EQ(wired.residentPages, 3u);

    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, false),
              KernReturn::Success);
    EXPECT_EQ(task->vmInfo().wiredPages, 0u);
}

TEST_F(IntrospectionTest, ObjectAccountingFollowsSatisfyingObject)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 2 * page,
                                AccessType::Write),
              KernReturn::Success);

    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    ASSERT_NE(lr.object, nullptr);
    // Two zero-fill faults landed on the anonymous object, and the
    // object's identity is stable and non-zero.
    EXPECT_NE(lr.object->id, 0u);
    EXPECT_EQ(lr.object->acct.zeroFills(), 2u);
}

TEST_F(IntrospectionTest, RegistrySnapshotAgreesWithBoundCounters)
{
    Task *task = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 4 * page,
                                AccessType::Write),
              KernReturn::Success);

    MetricsRegistry::Snapshot snap = kernel->vm->metricsSnapshot();
    EXPECT_EQ(snap.counterValue("vm.faults"),
              kernel->vm->stats.faults);
    EXPECT_EQ(snap.counterValue("vm.zero_fills"),
              kernel->vm->stats.zeroFillCount);
    EXPECT_GT(snap.counterValue("vm.faults"), 0u);
    EXPECT_EQ(snap.counterValue("tlb.shootdown_rounds"),
              kernel->vm->pmaps.shootdownRoundSeq);
    EXPECT_EQ(snap.counterValue("tlb.shootdown_ipis"),
              kernel->vm->pmaps.shootdownIpis);
}

TEST_F(IntrospectionTest, DaemonMetricsCountPageoutPasses)
{
    // A kernel with very little memory, so writing twice the
    // physical size forces the pageout daemon to run.
    MachineSpec tiny = test::tinySpec(ArchType::Vax, 1);
    tiny.physMemBytes = 64 << 10;
    Kernel small(tiny);
    VmSize pg = small.pageSize();
    Task *task = small.taskCreate();
    VmOffset addr = 0;
    VmSize total = 128 * 1024;
    ASSERT_EQ(task->map().allocate(&addr, total, true),
              KernReturn::Success);
    auto data = test::pattern(total, 3);
    ASSERT_EQ(small.taskWrite(*task, addr, data.data(),
                              data.size()),
              KernReturn::Success);
    ASSERT_GT(small.vm->stats.pageouts, 0u);

    MetricsRegistry::Snapshot snap = small.vm->metricsSnapshot();
    EXPECT_GT(snap.counterValue("pageout.passes"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_scanned"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_reclaimed"), 0u);
    EXPECT_GT(snap.counterValue("pageout.pages_laundered"), 0u);
    EXPECT_EQ(snap.counterValue("vm.pageouts"),
              small.vm->stats.pageouts);
    EXPECT_EQ(snap.counterValue("pageout.passes"),
              small.vm->pageoutStats.passes);
    EXPECT_EQ(snap.counterValue("pageout.pages_laundered"),
              small.vm->pageoutStats.laundered);

    // The laundered pages were attributed to the owning object.
    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    ASSERT_NE(lr.object, nullptr);
    EXPECT_GT(lr.object->acct.pageouts, 0u);
    (void)pg;
}

} // namespace
} // namespace mach
