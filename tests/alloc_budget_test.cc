/**
 * @file
 * Steady-state heap-allocation budgets of the pmap hot paths.
 *
 * A counting replacement of the global operator new sees every heap
 * allocation the simulator makes.  After a warm-up pass has grown the
 * zones and buffers, these paths must allocate nothing:
 *
 *  - a pmap enter/remove pair on the linear-table machines (µVAX II,
 *    MultiMax), each pair building and freeing a table page;
 *  - a PmapBatch closing interleaved, out-of-order requests over
 *    several pmaps.
 *
 * The other backends' per-pair counts are reported, not asserted:
 * the RT PC and RP3 keep per-mapping hash nodes.  Sanitizer builds
 * supply their own allocator, so there the tests skip.
 */

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hw/machine.hh"
#include "pmap/pmap.hh"
#include "test_util.hh"

namespace
{

std::uint64_t allocCount = 0;

} // namespace

#ifndef MACHVM_SANITIZE_BUILD

void *
operator new(std::size_t n)
{
    ++allocCount;
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif

namespace mach
{
namespace
{

constexpr unsigned kWarmupPairs = 16;
constexpr unsigned kPairs = 1000;

/** A pmap module on its own machine, one user pmap active on CPU 0. */
struct Rig
{
    explicit Rig(ArchType arch, unsigned cpus = 1)
        : spec(test::tinySpec(arch, 4, cpus)), machine(spec),
          sys(PmapSystem::build(machine))
    {
        sys->init(spec.hwPageSize());
        pmap = sys->create();
        pmap->activate(0);
    }

    ~Rig()
    {
        pmap->deactivate(0);
        sys->destroy(pmap);
    }

    /**
     * Heap allocations per enter + remove pair.  The pairs cycle over
     * four addresses one VAX table page (128 PTEs) apart, so on the
     * linear-table machines each enter builds a table page and each
     * remove frees it.
     */
    double
    allocsPerPair()
    {
        const VmSize page = sys->machPageSize();
        const VmOffset stride = 128 * spec.hwPageSize();
        const PhysAddr pa = 8 * page;
        auto pair = [&](unsigned i) {
            VmOffset va = (1 + i % 4) * stride;
            pmap->enter(va, pa, VmProt::Default, false);
            pmap->remove(va, va + page);
        };
        for (unsigned i = 0; i < kWarmupPairs; ++i)
            pair(i);
        std::uint64_t before = allocCount;
        for (unsigned i = 0; i < kPairs; ++i)
            pair(i);
        return double(allocCount - before) / kPairs;
    }

    MachineSpec spec;
    Machine machine;
    std::unique_ptr<PmapSystem> sys;
    Pmap *pmap = nullptr;
};

#ifdef MACHVM_SANITIZE_BUILD
#define SKIP_UNDER_SANITIZER() \
    GTEST_SKIP() << "sanitizer builds replace operator new"
#else
#define SKIP_UNDER_SANITIZER() (void)0
#endif

TEST(AllocBudget, LinearTableEnterRemoveAllocatesNothing)
{
    SKIP_UNDER_SANITIZER();
    for (auto [arch, cpus] : {std::pair{ArchType::Vax, 1u},
                              std::pair{ArchType::Ns32082, 4u}}) {
        Rig rig(arch, cpus);
        std::uint64_t built0 = rig.sys->tablePagesBuilt;
        EXPECT_EQ(rig.allocsPerPair(), 0.0) << test::archLabel(arch);
        // Every pair really built (and freed) a table page.
        EXPECT_EQ(rig.sys->tablePagesBuilt - built0,
                  kWarmupPairs + kPairs)
            << test::archLabel(arch);
    }
}

TEST(AllocBudget, OtherBackendsEnterRemoveCounts)
{
    SKIP_UNDER_SANITIZER();
    for (ArchType arch :
         {ArchType::RtPc, ArchType::Sun3, ArchType::TlbOnly}) {
        Rig rig(arch);
        double per = rig.allocsPerPair();
        std::printf("alloc budget: %s %.2f allocations per enter/remove "
                    "pair\n",
                    test::archLabel(arch).c_str(), per);
        RecordProperty("allocs_per_pair_" + test::archLabel(arch),
                       std::to_string(per));
    }
}

TEST(AllocBudget, InterleavedBatchCloseAllocatesNothing)
{
    SKIP_UNDER_SANITIZER();
    constexpr unsigned kPmaps = 8;
    constexpr unsigned kRequests = 200;
    Rig rig(ArchType::Ns32082, 4);
    PmapSystem &sys = *rig.sys;
    std::vector<Pmap *> pmaps;
    for (unsigned i = 0; i < kPmaps; ++i) {
        pmaps.push_back(sys.create());
        pmaps.back()->activate(i % 4);
    }
    const VmSize hw = rig.spec.hwPageSize();
    // Pmaps interleaved, each pmap's pages arriving in descending
    // order, so the close must group and sort every pmap.
    auto batch = [&] {
        PmapBatch b(sys);
        for (unsigned i = 0; i < kRequests; ++i) {
            VmOffset va = (kRequests - i) * 2 * hw;
            sys.shootdownRange(*pmaps[(i * 5) % kPmaps], va, va + hw,
                               ShootdownMode::Immediate);
        }
    };
    batch();
    std::uint64_t flushes0 = sys.batchFlushes;
    std::uint64_t before = allocCount;
    batch();
    EXPECT_EQ(allocCount - before, 0u);
    EXPECT_EQ(sys.batchFlushes, flushes0 + 1);

    for (unsigned i = 0; i < kPmaps; ++i) {
        pmaps[i]->deactivate(i % 4);
        sys.destroy(pmaps[i]);
    }
}

} // namespace
} // namespace mach
