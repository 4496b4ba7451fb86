/**
 * @file
 * Fork-storm introspection: a burst of forked tasks hammering a
 * shared/COW region must leave the per-task accounting records
 * summing exactly to the global VmStatistics deltas, and each task's
 * resident-page count must be reproducible through the per-object
 * radix index.  This is the test-suite-sized cousin of bench_churn:
 * small enough for the sanitizer jobs, but it drives the same
 * fork/touch/terminate cycle the storm benchmark scales up.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

class ChurnStormTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        ASSERT_TRUE(kernel->vm->introspectionEnabled());
    }

    /**
     * Recount a map's resident pages through the radix index
     * (VmObject::pageAt), mirroring the entry walk vmTaskInfo does
     * over the intrusive page lists.  Agreement means the two
     * per-object structures describe the same resident set.
     */
    std::uint64_t
    recountResident(VmMap &map)
    {
        std::uint64_t n = 0;
        for (const VmMapEntry &e : map.entryList()) {
            if (e.submap) {
                n += recountResident(*e.submap);
                continue;
            }
            if (!e.object)
                continue;
            for (VmOffset off = e.offset; off < e.offset + e.size();
                 off += page) {
                if (e.object->pageAt(off))
                    ++n;
            }
        }
        return n;
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
};

/** Deterministic xorshift RNG. */
struct Rng
{
    std::uint32_t x;
    explicit Rng(std::uint32_t seed) : x(seed ? seed : 1) {}
    std::uint32_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        return x;
    }
    std::uint32_t next(std::uint32_t bound) { return next() % bound; }
};

TEST_F(ChurnStormTest, ForkStormSumsReproduceGlobalDeltas)
{
    constexpr unsigned kRegionPages = 16;
    constexpr unsigned kForks = 48;

    VmStatistics before = kernel->vm->stats;
    Rng rng(20260808);

    // Root task: a COW-inherited region plus a shared window whose
    // sharing map every descendant points into.
    Task *root = kernel->taskCreate();
    VmOffset addr = 0;
    VmSize size = kRegionPages * page;
    ASSERT_EQ(root->map().allocate(&addr, size, true),
              KernReturn::Success);
    ASSERT_EQ(root->map().inherit(addr, 4 * page, VmInherit::Share),
              KernReturn::Success);
    auto data = test::pattern(size);
    ASSERT_EQ(kernel->taskWrite(*root, addr, data.data(), size),
              KernReturn::Success);

    std::vector<Task *> live{root};
    for (unsigned i = 0; i < kForks; ++i) {
        Task *parent = live[rng.next(unsigned(live.size()))];
        Task *child = kernel->taskFork(*parent);
        live.push_back(child);
        // The child COWs a random slice; the parent re-touches its
        // own copy, so both sides of the shadow chain fault.
        unsigned first = rng.next(kRegionPages);
        unsigned npages = 1 + rng.next(kRegionPages - first);
        ASSERT_EQ(kernel->taskWrite(*child, addr + first * page,
                                    data.data(), npages * page),
                  KernReturn::Success);
        if (rng.next(2)) {
            ASSERT_EQ(kernel->taskTouch(*parent, addr, 2 * page,
                                        AccessType::Write),
                      KernReturn::Success);
        }
    }

    // Every live task's resident count is reproducible through the
    // radix index — list walk (vmInfo) and indexed probe agree.
    VmAccounting sum;
    for (Task *t : live) {
        TaskVmInfo info = t->vmInfo();
        EXPECT_EQ(info.residentPages, recountResident(t->map()));
        sum.merge(info.acct);
    }

    // Accounting is attributed exactly once per fault, so the sums
    // over the storm's tasks reproduce the global counter deltas.
    VmStatistics after = kernel->vm->stats;
    EXPECT_EQ(sum.faults(), after.faults - before.faults);
    EXPECT_EQ(sum.zeroFills(),
              after.zeroFillCount - before.zeroFillCount);
    EXPECT_EQ(sum.cowFaults(), after.cowFaults - before.cowFaults);
    EXPECT_EQ(sum.pageins(), after.pageins - before.pageins);
    EXPECT_GT(sum.zeroFills(), 0u);
    EXPECT_GT(sum.cowFaults(), 0u);

    // Tear the storm down leaf-first; all zone slots must recycle.
    std::uint64_t entry_in_use = kernel->vm->mapEntryZone.inUse;
    EXPECT_GT(entry_in_use, 0u);
    while (live.size() > 1) {
        Task *t = live.back();
        live.pop_back();
        kernel->taskTerminate(t);
    }
    EXPECT_LT(kernel->vm->mapEntryZone.inUse, entry_in_use);
    EXPECT_EQ(kernel->vm->mapEntryZone.allocs -
                  kernel->vm->mapEntryZone.frees,
              kernel->vm->mapEntryZone.inUse);
}

TEST_F(ChurnStormTest, TerminationChurnRecyclesZoneSlots)
{
    // Repeated create/terminate cycles must plateau: after the first
    // generation, page frames, map entries and radix nodes all come
    // from the freelists, so the chunk counts stop moving.
    VmOffset addr = 0;
    VmSize size = 8 * page;
    auto data = test::pattern(size);

    for (int warm = 0; warm < 2; ++warm) {
        Task *t = kernel->taskCreate();
        ASSERT_EQ(t->map().allocate(&addr, size, true),
                  KernReturn::Success);
        ASSERT_EQ(kernel->taskWrite(*t, addr, data.data(), size),
                  KernReturn::Success);
        kernel->taskTerminate(t);
    }

    std::uint64_t entry_chunks = kernel->vm->mapEntryZone.chunks;
    std::uint64_t radix_chunks = kernel->vm->radixZone.chunks;
    std::uint64_t page_chunks = kernel->vm->resident.pageZone.chunks;
    for (int i = 0; i < 64; ++i) {
        Task *t = kernel->taskCreate();
        ASSERT_EQ(t->map().allocate(&addr, size, true),
                  KernReturn::Success);
        ASSERT_EQ(kernel->taskWrite(*t, addr, data.data(), size),
                  KernReturn::Success);
        kernel->taskTerminate(t);
    }
    EXPECT_EQ(kernel->vm->mapEntryZone.chunks, entry_chunks);
    EXPECT_EQ(kernel->vm->radixZone.chunks, radix_chunks);
    EXPECT_EQ(kernel->vm->resident.pageZone.chunks, page_chunks);
}

} // namespace
} // namespace mach
