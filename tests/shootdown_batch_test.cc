/**
 * @file
 * Batched pmap operations and coalesced TLB shootdowns.
 *
 * A PmapBatch accumulates the (pmap, va-range) set touched by
 * physical-page-indexed pmap operations and issues one flush round at
 * close — at most one IPI per target CPU — honoring the strictest
 * ShootdownMode seen (section 5.2: "the expense of invalidation can
 * often be amortized over many pages").  These tests prove the TLBs
 * end up consistent after batched COW/remove on a multi-CPU machine,
 * that the deferred and lazy strategies still behave per section 5.2
 * at batch granularity, and that a batch spanning two pmaps flushes
 * both.
 */

#include <gtest/gtest.h>

#include "kern/kernel.hh"
#include "test_util.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

constexpr unsigned kCpus = 4;
constexpr unsigned kPages = 8;

/**
 * Parameterized over the two multiprocessor architectures of the
 * paper's evaluation whose TLB tags are directly inspectable (the
 * SUN 3's context tags are covered behaviorally in shootdown_test).
 */
class BatchShootdownTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(GetParam(), 8, kCpus);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
        for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
            kernel->threadCreate(*task);
            kernel->switchTo(task, cpu);
        }
        addr = 0;
        ASSERT_EQ(task->map().allocate(&addr, kPages * page, true),
                  KernReturn::Success);
        touchEverywhere();
    }

    /** Cache the whole range writable in every CPU's TLB. */
    void
    touchEverywhere()
    {
        for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
            kernel->machine.setCurrentCpu(cpu);
            ASSERT_EQ(kernel->machine.touch(cpu, addr, kPages * page,
                                            AccessType::Write),
                      KernReturn::Success);
        }
        kernel->machine.setCurrentCpu(0);
    }

    /** Physical addresses backing [addr, addr + kPages * page). */
    std::vector<PhysAddr>
    physPages()
    {
        std::vector<PhysAddr> pas;
        for (unsigned i = 0; i < kPages; ++i) {
            VmMap::LookupResult lr;
            EXPECT_EQ(task->map().lookup(addr + i * page,
                                         FaultType::Read, lr),
                      KernReturn::Success);
            VmPage *p = kernel->vm->resident.lookup(
                lr.object, kernel->vm->pageTrunc(lr.offset));
            EXPECT_NE(p, nullptr);
            if (p)
                pas.push_back(p->physAddr);
        }
        return pas;
    }

    /**
     * True if any CPU's TLB still holds an entry under @p tag for
     * test pages [@p first, @p first + @p count) (optionally only
     * counting writable ones).
     */
    bool
    staleEntry(const void *tag, bool writable_only, unsigned first = 0,
               unsigned count = kPages)
    {
        unsigned shift = spec.hwPageShift;
        VmSize hw = spec.hwPageSize();
        VmOffset lo = addr + first * page;
        for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
            Tlb &tlb = kernel->machine.cpu(cpu).tlb;
            for (VmOffset va = lo; va < lo + count * page; va += hw) {
                TlbEntry *e = tlb.lookup(tag, va >> shift);
                if (e &&
                    (!writable_only ||
                     protIncludes(e->prot, VmProt::Write)))
                    return true;
            }
        }
        return false;
    }

    bool
    staleEntry(Pmap *pmap, bool writable_only)
    {
        return staleEntry(pmap->tlbTag(), writable_only);
    }

    /**
     * Fork a child sharing the test range, running on CPUs 2-3 while
     * the parent keeps CPUs 0-1; every CPU caches the range writable
     * under its own task's pmap tag.
     */
    Task *
    forkSharingChild()
    {
        EXPECT_EQ(vmInherit(*kernel->vm, task->map(), addr,
                            kPages * page, VmInherit::Share),
                  KernReturn::Success);
        Task *child = kernel->taskFork(*task);
        EXPECT_NE(child, nullptr);
        kernel->switchTo(child, 2);
        kernel->switchTo(child, 3);
        for (CpuId cpu = 0; cpu < kCpus; ++cpu) {
            kernel->machine.setCurrentCpu(cpu);
            EXPECT_EQ(kernel->machine.touch(cpu, addr, kPages * page,
                                            AccessType::Write),
                      KernReturn::Success);
        }
        kernel->machine.setCurrentCpu(0);
        return child;
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
    VmOffset addr = 0;
};

TEST_P(BatchShootdownTest, BatchedCowSendsOneRoundAndClearsWritable)
{
    auto pas = physPages();
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t coalesced0 = kernel->pmaps->shootdownsCoalesced;
    std::uint64_t merged0 = kernel->pmaps->batchRangesMerged;
    std::uint64_t flushes0 = kernel->pmaps->batchFlushes;

    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->copyOnWrite(pa, ShootdownMode::Immediate);
    }

    // Per-page flushes were absorbed, adjacent ranges merged, and
    // exactly one coalesced round went out: at most one IPI per
    // remote CPU for the whole batch.
    EXPECT_GT(kernel->pmaps->shootdownsCoalesced, coalesced0);
    EXPECT_GT(kernel->pmaps->batchRangesMerged, merged0);
    EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0 + 1);
    EXPECT_LE(kernel->machine.ipiCount() - ipis0, kCpus - 1);

    // Consistency: no CPU may retain a writable entry.
    EXPECT_FALSE(staleEntry(task->map().getPmap(), true));
}

TEST_P(BatchShootdownTest, ForkCowPathCoalesces)
{
    std::uint64_t coalesced0 = kernel->pmaps->shootdownsCoalesced;

    // fork drives VmMap::protectForCopy, the Table 7-1 hot path.
    Task *child = kernel->taskFork(*task);
    ASSERT_NE(child, nullptr);

    EXPECT_GT(kernel->pmaps->shootdownsCoalesced, coalesced0);
    // Every CPU lost its writable entries for the parent's range, so
    // the next write anywhere takes the COW fault.
    EXPECT_FALSE(staleEntry(task->map().getPmap(), true));
}

TEST_P(BatchShootdownTest, BatchedDeallocateFlushesInOneRound)
{
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t flushes0 = kernel->pmaps->batchFlushes;
    Pmap *pmap = task->map().getPmap();

    ASSERT_EQ(task->map().deallocate(addr, kPages * page),
              KernReturn::Success);

    // Entry removal plus object teardown coalesced into one round.
    EXPECT_GT(kernel->pmaps->batchFlushes, flushes0);
    EXPECT_LE(kernel->machine.ipiCount() - ipis0, kCpus - 1);

    // No CPU may retain any entry (writable or not) for the range.
    EXPECT_FALSE(staleEntry(pmap, false));

    // And the memory really is gone.
    kernel->machine.setCurrentCpu(1);
    EXPECT_NE(kernel->machine.touch(1, addr, 1, AccessType::Read),
              KernReturn::Success);
}

TEST_P(BatchShootdownTest, DeferredBatchWaitsForTick)
{
    auto pas = physPages();
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t deferred0 = kernel->pmaps->deferredFlushes;

    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->copyOnWrite(pa, ShootdownMode::Deferred);
    }

    // Section 5.2 case 2 at batch granularity: no IPIs, one queued
    // flush for the whole batch.
    EXPECT_EQ(kernel->machine.ipiCount(), ipis0);
    EXPECT_EQ(kernel->pmaps->deferredFlushes, deferred0 + 1);
    EXPECT_GT(kernel->machine.deferredCount(), 0u);

    // Until the tick the stale writable entries survive (the
    // documented temporary inconsistency) ...
    EXPECT_TRUE(staleEntry(task->map().getPmap(), true));

    // ... and the tick makes the restriction visible everywhere.
    kernel->machine.timerTick();
    EXPECT_FALSE(staleEntry(task->map().getPmap(), true));
}

TEST_P(BatchShootdownTest, LazyBatchTakesNoRemoteAction)
{
    auto pas = physPages();
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t deferredWork0 = kernel->machine.deferredCount();
    std::uint64_t lazy0 = kernel->pmaps->lazySkips;

    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->copyOnWrite(pa, ShootdownMode::Lazy);
    }

    // Section 5.2 case 3: no IPIs, nothing queued, the whole batch
    // recorded as skipped; stale entries linger by design.
    EXPECT_EQ(kernel->machine.ipiCount(), ipis0);
    EXPECT_EQ(kernel->machine.deferredCount(), deferredWork0);
    EXPECT_GT(kernel->pmaps->lazySkips, lazy0);
    EXPECT_TRUE(staleEntry(task->map().getPmap(), true));
}

TEST_P(BatchShootdownTest, BatchSpanningTwoPmapsFlushesBoth)
{
    Task *child = forkSharingChild();
    ASSERT_NE(child, nullptr);

    auto pas = physPages();
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t flushes0 = kernel->pmaps->batchFlushes;

    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->removeAll(pa, ShootdownMode::Immediate);
    }

    // One round covered both pmaps: their targets were unioned, so
    // still at most one IPI per remote CPU.
    EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0 + 1);
    EXPECT_LE(kernel->machine.ipiCount() - ipis0, kCpus - 1);
    EXPECT_FALSE(staleEntry(task->map().getPmap(), false));
    EXPECT_FALSE(staleEntry(child->map().getPmap(), false));
}

TEST_P(BatchShootdownTest, AblationSwitchRestoresPerPageFlushes)
{
    auto pas = physPages();

    kernel->pmaps->coalesceShootdowns = false;
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t coalesced0 = kernel->pmaps->shootdownsCoalesced;
    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->copyOnWrite(pa, ShootdownMode::Immediate);
    }
    // Inert guard: nothing absorbed, one IPI round per page as the
    // unbatched system sent — and the TLBs are of course consistent.
    EXPECT_EQ(kernel->pmaps->shootdownsCoalesced, coalesced0);
    EXPECT_GE(kernel->machine.ipiCount() - ipis0,
              std::uint64_t(kPages) * (kCpus - 1));
    EXPECT_FALSE(staleEntry(task->map().getPmap(), true));
}

TEST_P(BatchShootdownTest, TwoDeferredBatchesFlushAtOneTick)
{
    auto pas = physPages();
    const void *tag = task->map().getPmap()->tlbTag();
    std::uint64_t deferred0 = kernel->pmaps->deferredFlushes;
    constexpr unsigned kHalf = kPages / 2;

    {
        PmapBatch batch(*kernel->pmaps);
        for (unsigned i = 0; i < kHalf; ++i)
            kernel->pmaps->copyOnWrite(pas[i], ShootdownMode::Deferred);
    }
    EXPECT_TRUE(staleEntry(tag, true, 0, kHalf));
    {
        PmapBatch batch(*kernel->pmaps);
        for (unsigned i = kHalf; i < kPages; ++i)
            kernel->pmaps->copyOnWrite(pas[i], ShootdownMode::Deferred);
    }

    // Two closes, two queued flushes, and neither ran early.
    EXPECT_EQ(kernel->pmaps->deferredFlushes, deferred0 + 2);
    EXPECT_TRUE(staleEntry(tag, true, 0, kHalf));
    EXPECT_TRUE(staleEntry(tag, true, kHalf, kPages - kHalf));

    // One tick runs both.
    kernel->machine.timerTick();
    EXPECT_FALSE(staleEntry(tag, true));
    EXPECT_EQ(kernel->machine.deferredCount(), 0u);
}

TEST_P(BatchShootdownTest, PmapDestroyedInsideBatchDrainsOnlyItsRanges)
{
    Task *child = forkSharingChild();
    ASSERT_NE(child, nullptr);
    // The child's pmap is freed below; keep its tag to probe TLBs.
    const void *parentTag = task->map().getPmap()->tlbTag();
    const void *childTag = child->map().getPmap()->tlbTag();
    auto pas = physPages();
    std::uint64_t flushes0 = kernel->pmaps->batchFlushes;

    {
        PmapBatch batch(*kernel->pmaps);
        for (PhysAddr pa : pas)
            kernel->pmaps->removeAll(pa, ShootdownMode::Immediate);
        // Both pmaps' ranges are pending; nothing flushed yet.
        EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0);
        EXPECT_TRUE(staleEntry(parentTag, false));
        EXPECT_TRUE(staleEntry(childTag, false));

        // Destroying the child's pmap flushes its ranges now, in a
        // round of their own; the parent's stay pending.
        kernel->taskTerminate(child);
        EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0 + 1);
        EXPECT_FALSE(staleEntry(childTag, false));
        EXPECT_TRUE(staleEntry(parentTag, false));
    }

    // The close flushes the survivor's ranges.
    EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0 + 2);
    EXPECT_FALSE(staleEntry(parentTag, false));
    EXPECT_FALSE(staleEntry(childTag, false));
}

TEST_P(BatchShootdownTest, OutOfOrderRequestsAcrossPmapsMergeExactly)
{
    Task *child = forkSharingChild();
    ASSERT_NE(child, nullptr);
    Pmap &p = *task->map().getPmap();
    Pmap &q = *child->map().getPmap();
    auto pg = [&](unsigned i) { return addr + i * page; };

    // Interleaved across the two pmaps and out of address order,
    // with touching neighbours arriving back to back.
    // Merged: p -> [0,1) [2,5) [7,8), q -> [0,2) [4,6): 5 ranges.
    struct Req
    {
        Pmap *pmap;
        unsigned first;
        unsigned last;
    };
    const Req reqs[] = {
        {&p, 4, 5}, {&q, 4, 5}, {&p, 2, 3}, {&q, 0, 1},
        {&p, 7, 8}, {&p, 3, 4}, {&p, 2, 3}, {&q, 5, 6},
        {&q, 4, 5}, {&p, 0, 1}, {&q, 1, 2}, {&p, 2, 4},
    };
    constexpr std::uint64_t kRangesOut = 5;
    const std::uint64_t requests = std::size(reqs);

    std::uint64_t coalesced0 = kernel->pmaps->shootdownsCoalesced;
    std::uint64_t merged0 = kernel->pmaps->batchRangesMerged;
    std::uint64_t flushes0 = kernel->pmaps->batchFlushes;
    std::uint64_t ipis0 = kernel->machine.ipiCount();
    {
        PmapBatch batch(*kernel->pmaps);
        for (const Req &r : reqs)
            kernel->pmaps->shootdownRange(*r.pmap, pg(r.first),
                                          pg(r.last),
                                          ShootdownMode::Immediate);
    }

    EXPECT_EQ(kernel->pmaps->shootdownsCoalesced, coalesced0 + requests);
    EXPECT_EQ(kernel->pmaps->batchRangesMerged,
              merged0 + requests - kRangesOut);
    EXPECT_EQ(kernel->pmaps->batchFlushes, flushes0 + 1);
    EXPECT_LE(kernel->machine.ipiCount() - ipis0, kCpus - 1);

    // Every requested page is gone from every TLB.
    for (const Req &r : reqs)
        EXPECT_FALSE(staleEntry(r.pmap->tlbTag(), false, r.first,
                                r.last - r.first));
}

TEST_P(BatchShootdownTest, WithinPmapFlushOrderFollowsStart)
{
    Task *child = forkSharingChild();
    ASSERT_NE(child, nullptr);
    Pmap &p = *task->map().getPmap();
    Pmap &q = *child->map().getPmap();
    const VmSize hw = spec.hwPageSize();
    auto hwPg = [&](unsigned i) { return addr + i * hw; };

    // p's large range (12 hardware pages, a whole-tag flush) arrives
    // first, then its small ranges below and above it, interleaved
    // with q's.  A close sweeping p by ascending start flushes [4,6)
    // page by page, then the whole tag, which makes [40,43) moot; q
    // flushes its 3 pages.  Arrival order would flush p's tag first
    // and skip both small ranges.
    struct Req
    {
        Pmap *pmap;
        unsigned first;
        unsigned last;
    };
    const Req reqs[] = {
        {&p, 16, 28}, {&q, 0, 2}, {&p, 4, 6}, {&q, 8, 9}, {&p, 40, 43},
    };
    constexpr std::uint64_t kPageFlushes = 2 + 3;
    constexpr std::uint64_t kTagFlushes = 1;

    SimClock &clock = kernel->machine.clock();
    std::vector<std::uint64_t> flushes0;
    for (CpuId cpu = 0; cpu < kCpus; ++cpu)
        flushes0.push_back(kernel->machine.cpu(cpu).tlb.flushes());
    SimTime flushNs0 = clock.kindTotal(CostKind::TlbFlush);
    {
        PmapBatch batch(*kernel->pmaps);
        for (const Req &r : reqs)
            kernel->pmaps->shootdownRange(*r.pmap, hwPg(r.first),
                                          hwPg(r.last),
                                          ShootdownMode::Immediate);
    }

    // The targets of p (CPUs 0-1) and q (CPUs 2-3) are unioned, so
    // every CPU runs the whole merged list.
    for (CpuId cpu = 0; cpu < kCpus; ++cpu)
        EXPECT_EQ(kernel->machine.cpu(cpu).tlb.flushes() - flushes0[cpu],
                  kPageFlushes + kTagFlushes)
            << "cpu " << cpu;
    EXPECT_EQ(clock.kindTotal(CostKind::TlbFlush) - flushNs0,
              kCpus * (kPageFlushes * spec.costs.tlbFlushEntry +
                       kTagFlushes * spec.costs.tlbFlushAll));
}

INSTANTIATE_TEST_SUITE_P(
    Multiprocessors, BatchShootdownTest,
    ::testing::Values(ArchType::Ns32082, ArchType::TlbOnly),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
