/**
 * @file
 * End-to-end fault handling through the Kernel: zero fill, data
 * integrity through the MMU, copy-on-write fork semantics, shared
 * inheritance, protection enforcement, vm_copy, vm_read/vm_write,
 * and the Table 2-1 API surface.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "test_util.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

class VmFaultTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(GetParam(), 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
};

TEST_P(VmFaultTest, ZeroFillOnDemand)
{
    VmOffset addr = 0;
    ASSERT_EQ(vmAllocate(*kernel->vm, task->map(), &addr, 4 * page,
                         true),
              KernReturn::Success);

    std::uint64_t zf0 = kernel->vm->stats.zeroFillCount;
    std::vector<std::uint8_t> buf(page, 0xff);
    ASSERT_EQ(kernel->taskRead(*task, addr, buf.data(), page),
              KernReturn::Success);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(kernel->vm->stats.zeroFillCount, zf0 + 1);

    // Unallocated addresses fault fatally.
    std::uint8_t b;
    EXPECT_EQ(kernel->taskRead(*task, addr + 64 * page, &b, 1),
              KernReturn::InvalidAddress);
}

TEST_P(VmFaultTest, WriteReadRoundTripThroughMmu)
{
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 8 * page, true),
              KernReturn::Success);
    auto data = test::pattern(3 * page + 17);
    ASSERT_EQ(kernel->taskWrite(*task, addr + 5, data.data(),
                                data.size()),
              KernReturn::Success);
    std::vector<std::uint8_t> out(data.size());
    ASSERT_EQ(kernel->taskRead(*task, addr + 5, out.data(),
                               out.size()),
              KernReturn::Success);
    EXPECT_EQ(data, out);
}

TEST_P(VmFaultTest, ForkCopyOnWriteSemantics)
{
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);
    auto parent_data = test::pattern(4 * page, 11);
    ASSERT_EQ(kernel->taskWrite(*task, addr, parent_data.data(),
                                parent_data.size()),
              KernReturn::Success);

    Task *child = kernel->taskFork(*task);

    // The child sees the parent's data without copying.
    std::vector<std::uint8_t> out(4 * page);
    ASSERT_EQ(kernel->taskRead(*child, addr, out.data(), out.size()),
              KernReturn::Success);
    EXPECT_EQ(out, parent_data);

    // Child writes; parent must not see them (copy semantics).
    std::uint64_t cow0 = kernel->vm->stats.cowFaults;
    auto child_data = test::pattern(page, 22);
    ASSERT_EQ(kernel->taskWrite(*child, addr, child_data.data(),
                                child_data.size()),
              KernReturn::Success);
    EXPECT_GT(kernel->vm->stats.cowFaults, cow0);

    std::vector<std::uint8_t> parent_out(page);
    ASSERT_EQ(kernel->taskRead(*task, addr, parent_out.data(), page),
              KernReturn::Success);
    EXPECT_TRUE(std::equal(parent_out.begin(), parent_out.end(),
                           parent_data.begin()));

    // Parent writes; child must not see them either.
    auto parent_new = test::pattern(page, 33);
    ASSERT_EQ(kernel->taskWrite(*task, addr + page, parent_new.data(),
                                page),
              KernReturn::Success);
    std::vector<std::uint8_t> child_out(page);
    ASSERT_EQ(kernel->taskRead(*child, addr + page, child_out.data(),
                               page),
              KernReturn::Success);
    EXPECT_TRUE(std::equal(child_out.begin(), child_out.end(),
                           parent_data.begin() + page));

    kernel->taskTerminate(child);
}

TEST_P(VmFaultTest, CollapseFreesFramesWithClearAttributes)
{
    // Frames a collapse discards go back to the free list like any
    // other freed page: with their modify/reference attributes clear.
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    auto data = test::pattern(2 * page, 12);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);
    VmMap::LookupResult lr;
    ASSERT_EQ(task->map().lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    std::vector<PhysAddr> frames;
    for (VmOffset off : {lr.offset, lr.offset + page})
        frames.push_back(lr.object->pageAt(off)->physAddr);
    for (PhysAddr pa : frames)
        ASSERT_TRUE(kernel->vm->pmaps.isModified(pa));

    // Parent and child both copy page 0; once the child is gone the
    // parent's copy of page 1 collapses the original object, whose
    // two pages are both hidden and discarded.
    Task *child = kernel->taskFork(*task);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), page),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskWrite(*child, addr, data.data(), page),
              KernReturn::Success);
    kernel->taskTerminate(child);
    std::uint64_t collapses = kernel->vm->stats.objectCollapses;
    ASSERT_EQ(kernel->taskWrite(*task, addr + page, data.data(), page),
              KernReturn::Success);
    ASSERT_EQ(kernel->vm->stats.objectCollapses, collapses + 1);

    for (PhysAddr pa : frames) {
        EXPECT_FALSE(kernel->vm->pmaps.isModified(pa)) << pa;
        EXPECT_FALSE(kernel->vm->pmaps.isReferenced(pa)) << pa;
    }
}

TEST_P(VmFaultTest, ForkChainGrandchildren)
{
    // Three generations with writes at each level; every task sees
    // exactly its own version.  Exercises shadow-chain traversal and
    // collapse under realistic fork use.
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    std::vector<std::uint8_t> v1(2 * page, 1);
    ASSERT_EQ(kernel->taskWrite(*task, addr, v1.data(), v1.size()),
              KernReturn::Success);

    Task *child = kernel->taskFork(*task);
    std::vector<std::uint8_t> v2(page, 2);
    ASSERT_EQ(kernel->taskWrite(*child, addr, v2.data(), v2.size()),
              KernReturn::Success);

    Task *grandchild = kernel->taskFork(*child);
    std::vector<std::uint8_t> v3(page, 3);
    ASSERT_EQ(kernel->taskWrite(*grandchild, addr, v3.data(),
                                v3.size()),
              KernReturn::Success);

    std::uint8_t b;
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, 1);
    ASSERT_EQ(kernel->taskRead(*child, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, 2);
    ASSERT_EQ(kernel->taskRead(*grandchild, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, 3);

    // The untouched second page is shared by all three.
    ASSERT_EQ(kernel->taskRead(*grandchild, addr + page, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, 1);

    kernel->taskTerminate(grandchild);
    kernel->taskTerminate(child);
}

TEST_P(VmFaultTest, SharedInheritanceIsReadWriteShared)
{
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 2 * page, true),
              KernReturn::Success);
    ASSERT_EQ(vmInherit(*kernel->vm, task->map(), addr, 2 * page,
                        VmInherit::Share),
              KernReturn::Success);

    Task *child = kernel->taskFork(*task);

    std::uint32_t magic = 0xdeadbeef;
    ASSERT_EQ(kernel->taskWrite(*child, addr, &magic, sizeof(magic)),
              KernReturn::Success);
    std::uint32_t seen = 0;
    ASSERT_EQ(kernel->taskRead(*task, addr, &seen, sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);  // parent sees the child's write

    magic = 0x12345678;
    ASSERT_EQ(kernel->taskWrite(*task, addr + page, &magic,
                                sizeof(magic)),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskRead(*child, addr + page, &seen,
                               sizeof(seen)),
              KernReturn::Success);
    EXPECT_EQ(seen, magic);  // child sees the parent's write

    kernel->taskTerminate(child);
}

TEST_P(VmFaultTest, ProtectionIsEnforcedByHardware)
{
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, page, true),
              KernReturn::Success);
    std::uint8_t b = 1;
    ASSERT_EQ(kernel->taskWrite(*task, addr, &b, 1),
              KernReturn::Success);

    ASSERT_EQ(vmProtect(*kernel->vm, task->map(), addr, page, false,
                        VmProt::Read),
              KernReturn::Success);
    // Reads still work, writes are refused.
    EXPECT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskTouch(*task, addr, 1, AccessType::Write),
              KernReturn::ProtectionFailure);

    // Restore and write again.
    ASSERT_EQ(vmProtect(*kernel->vm, task->map(), addr, page, false,
                        VmProt::Default),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskTouch(*task, addr, 1, AccessType::Write),
              KernReturn::Success);
}

TEST_P(VmFaultTest, DeallocateInvalidatesHardwareMappings)
{
    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, page, true),
              KernReturn::Success);
    std::uint8_t b = 1;
    ASSERT_EQ(kernel->taskWrite(*task, addr, &b, 1),
              KernReturn::Success);
    ASSERT_EQ(vmDeallocate(*kernel->vm, task->map(), addr, page),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::InvalidAddress);
}

TEST_P(VmFaultTest, VmCopyIsVirtual)
{
    VmOffset src = 0;
    ASSERT_EQ(task->map().allocate(&src, 2 * page, true),
              KernReturn::Success);
    auto data = test::pattern(2 * page, 5);
    ASSERT_EQ(kernel->taskWrite(*task, src, data.data(), data.size()),
              KernReturn::Success);

    VmOffset dst = src + 16 * page;
    ASSERT_EQ(task->map().allocate(&dst, 2 * page, false),
              KernReturn::Success);
    SimTime before = kernel->now();
    ASSERT_EQ(vmCopy(*kernel->vm, task->map(), src, 2 * page, dst),
              KernReturn::Success);
    SimTime copy_time = kernel->now() - before;
    // Far cheaper than physically copying two pages.
    EXPECT_LT(copy_time,
              spec.costs.copyCost(2 * page));

    std::vector<std::uint8_t> out(2 * page);
    ASSERT_EQ(kernel->taskRead(*task, dst, out.data(), out.size()),
              KernReturn::Success);
    EXPECT_EQ(out, data);

    // Writing the copy leaves the source intact.
    std::uint8_t nine = 9;
    ASSERT_EQ(kernel->taskWrite(*task, dst, &nine, 1),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskRead(*task, src, out.data(), 1),
              KernReturn::Success);
    EXPECT_EQ(out[0], data[0]);
}

TEST_P(VmFaultTest, VmReadVmWrite)
{
    VmOffset addr = 0;
    ASSERT_EQ(vmAllocate(*kernel->vm, task->map(), &addr, 2 * page,
                         true),
              KernReturn::Success);
    auto data = test::pattern(2 * page, 9);
    ASSERT_EQ(vmWrite(*kernel->vm, task->map(), addr, data.data(),
                      data.size()),
              KernReturn::Success);
    std::vector<std::uint8_t> out;
    ASSERT_EQ(vmRead(*kernel->vm, task->map(), addr, 2 * page, &out),
              KernReturn::Success);
    EXPECT_EQ(out, data);
}

TEST_P(VmFaultTest, StatisticsReflectActivity)
{
    VmStatistics st0;
    ASSERT_EQ(vmStatistics(*kernel->vm, &st0), KernReturn::Success);

    VmOffset addr = 0;
    ASSERT_EQ(task->map().allocate(&addr, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*task, addr, 4 * page,
                                AccessType::Write),
              KernReturn::Success);

    VmStatistics st;
    ASSERT_EQ(vmStatistics(*kernel->vm, &st), KernReturn::Success);
    EXPECT_EQ(st.pagesize, page);
    EXPECT_GE(st.faults, st0.faults + 4);
    EXPECT_GE(st.zeroFillCount, st0.zeroFillCount + 4);
    EXPECT_GE(st.lookups, st0.lookups);
    EXPECT_EQ(st.freeCount + st.activeCount + st.inactiveCount +
                  st.wireCount,
              kernel->vm->resident.totalPages());
}

TEST_P(VmFaultTest, TaskTerminationReleasesEverything)
{
    std::size_t free0 = kernel->vm->resident.freeCount();
    std::uint64_t live0 = kernel->vm->liveObjects;

    Task *t = kernel->taskCreate();
    VmOffset addr = 0;
    ASSERT_EQ(t->map().allocate(&addr, 8 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*t, addr, 8 * page, AccessType::Write),
              KernReturn::Success);
    EXPECT_LT(kernel->vm->resident.freeCount(), free0);

    kernel->taskTerminate(t);
    EXPECT_EQ(kernel->vm->resident.freeCount(), free0);
    EXPECT_EQ(kernel->vm->liveObjects, live0);
}

TEST_P(VmFaultTest, SparseAddressSpace)
{
    // Allocate three widely separated regions in a large space and
    // touch them all — sparse spaces must not cost anything extra.
    VmOffset lo = 0, mid = 0, hi = 0;
    VmOffset top = spec.userVaLimit;
    lo = page;
    mid = truncTo(top / 2, page);
    hi = truncTo(top - 4 * page, page);
    ASSERT_EQ(task->map().allocate(&lo, page, false),
              KernReturn::Success);
    ASSERT_EQ(task->map().allocate(&mid, page, false),
              KernReturn::Success);
    ASSERT_EQ(task->map().allocate(&hi, page, false),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskTouch(*task, lo, 1, AccessType::Write),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskTouch(*task, mid, 1, AccessType::Write),
              KernReturn::Success);
    EXPECT_EQ(kernel->taskTouch(*task, hi, 1, AccessType::Write),
              KernReturn::Success);
    EXPECT_LE(task->map().entryCount(), 3u);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, VmFaultTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
