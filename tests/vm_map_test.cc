/**
 * @file
 * Unit tests for address maps: allocation, deallocation, clipping,
 * protection/inheritance attributes, the lookup hint, coalescing,
 * vm_copy, vm_regions, and space search.
 */

#include <gtest/gtest.h>

#include "hw/machine.hh"
#include "pmap/pmap.hh"
#include "test_util.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

class VmMapTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(ArchType::Vax, 4);
        machine = std::make_unique<Machine>(spec);
        pmaps = PmapSystem::build(*machine);
        pmaps->init(spec.hwPageSize());
        vm = std::make_unique<VmSys>(*machine, *pmaps,
                                     spec.hwPageSize());
        page = vm->pageSize();
        pmap = pmaps->create();
        map = new VmMap(*vm, pmap, page, 1ull << 30);
    }

    void
    TearDown() override
    {
        map->deallocate(map->minAddress(),
                        map->maxAddress() - map->minAddress());
        map->deallocateRef();
        pmaps->destroy(pmap);
    }

    MachineSpec spec;
    std::unique_ptr<Machine> machine;
    std::unique_ptr<PmapSystem> pmaps;
    std::unique_ptr<VmSys> vm;
    VmSize page = 0;
    Pmap *pmap = nullptr;
    VmMap *map = nullptr;
};

TEST_F(VmMapTest, AllocateAnywhere)
{
    VmOffset addr = 0;
    ASSERT_EQ(map->allocate(&addr, 10 * page, true),
              KernReturn::Success);
    EXPECT_GE(addr, map->minAddress());
    EXPECT_EQ(addr % page, 0u);
    EXPECT_EQ(map->entryCount(), 1u);
    EXPECT_EQ(map->virtualSize(), 10 * page);
}

TEST_F(VmMapTest, AllocateAtAddress)
{
    VmOffset addr = 16 * page;
    ASSERT_EQ(map->allocate(&addr, 2 * page, false),
              KernReturn::Success);
    EXPECT_EQ(addr, 16 * page);

    // Overlap is refused.
    VmOffset again = 17 * page;
    EXPECT_EQ(map->allocate(&again, page, false), KernReturn::NoSpace);

    // Unaligned start is refused (section 2.1).
    VmOffset unaligned = 16 * page + 1;
    EXPECT_EQ(map->allocate(&unaligned, page, false),
              KernReturn::InvalidArgument);

    // Zero size is refused.
    VmOffset z = 32 * page;
    EXPECT_EQ(map->allocate(&z, 0, false), KernReturn::InvalidArgument);
}

TEST_F(VmMapTest, AllocateRoundsSizeToPages)
{
    VmOffset addr = 0;
    ASSERT_EQ(map->allocate(&addr, page / 2, true),
              KernReturn::Success);
    EXPECT_EQ(map->virtualSize(), page);
}

TEST_F(VmMapTest, AnywhereSkipsAllocatedRanges)
{
    VmOffset a = 8 * page;
    ASSERT_EQ(map->allocate(&a, 4 * page, false), KernReturn::Success);
    VmOffset b = 0;
    ASSERT_EQ(map->allocate(&b, 20 * page, true), KernReturn::Success);
    // [b, b+20p) must not overlap [8p, 12p).
    EXPECT_TRUE(b + 20 * page <= 8 * page || b >= 12 * page);
}

TEST_F(VmMapTest, DeallocateWholeRegion)
{
    VmOffset addr = 0;
    ASSERT_EQ(map->allocate(&addr, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(map->deallocate(addr, 4 * page), KernReturn::Success);
    EXPECT_EQ(map->entryCount(), 0u);
    // The range can be reallocated.
    VmOffset again = addr;
    EXPECT_EQ(map->allocate(&again, 4 * page, false),
              KernReturn::Success);
}

TEST_F(VmMapTest, DeallocateMiddleClipsEntry)
{
    VmOffset addr = 8 * page;
    ASSERT_EQ(map->allocate(&addr, 6 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->deallocate(10 * page, 2 * page),
              KernReturn::Success);
    // Two entries remain: [8,10) and [12,14).
    EXPECT_EQ(map->entryCount(), 2u);
    EXPECT_EQ(map->virtualSize(), 4 * page);

    VmOffset probe = 8 * page;
    VmRegionInfo info;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.start, 8 * page);
    EXPECT_EQ(info.size, 2 * page);
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.start, 12 * page);
    EXPECT_EQ(info.size, 2 * page);
}

TEST_F(VmMapTest, ProtectValidatesRange)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, 2 * page, false),
              KernReturn::Success);
    // Protecting an unallocated range fails.
    EXPECT_EQ(map->protect(32 * page, page, false, VmProt::Read),
              KernReturn::InvalidAddress);
    // Protecting across a hole fails.
    EXPECT_EQ(map->protect(4 * page, 8 * page, false, VmProt::Read),
              KernReturn::InvalidAddress);
    // In-range succeeds.
    EXPECT_EQ(map->protect(addr, 2 * page, false, VmProt::Read),
              KernReturn::Success);
}

TEST_F(VmMapTest, ProtectClipsAndSetsAttributes)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, 4 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->protect(5 * page, page, false, VmProt::Read),
              KernReturn::Success);
    EXPECT_EQ(map->entryCount(), 3u);

    VmOffset probe = 5 * page;
    VmRegionInfo info;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.start, 5 * page);
    EXPECT_EQ(info.protection, VmProt::Read);
}

TEST_F(VmMapTest, MaxProtectionCanOnlyBeLowered)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);

    // Lower the maximum to read-only; current follows down.
    ASSERT_EQ(map->protect(addr, page, true, VmProt::Read),
              KernReturn::Success);
    VmOffset probe = addr;
    VmRegionInfo info;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.maxProtection, VmProt::Read);
    EXPECT_EQ(info.protection, VmProt::Read);

    // Raising current above max now fails.
    EXPECT_EQ(map->protect(addr, page, false, VmProt::Default),
              KernReturn::ProtectionFailure);

    // "Raising" the max is an intersection: stays read-only.
    ASSERT_EQ(map->protect(addr, page, true, VmProt::All),
              KernReturn::Success);
    probe = addr;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.maxProtection, VmProt::Read);
}

TEST_F(VmMapTest, InheritancePerPageBasis)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, 3 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->inherit(5 * page, page, VmInherit::None),
              KernReturn::Success);

    VmOffset probe = 4 * page;
    VmRegionInfo info;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.inheritance, VmInherit::Copy);
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.inheritance, VmInherit::None);
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_EQ(info.inheritance, VmInherit::Copy);
}

TEST_F(VmMapTest, SimplifyCoalescesCompatibleNeighbors)
{
    // Adjacent untouched (no-object) allocations with the same
    // attributes merge into one entry.
    VmOffset a = 4 * page;
    ASSERT_EQ(map->allocate(&a, page, false), KernReturn::Success);
    VmOffset b = 5 * page;
    ASSERT_EQ(map->allocate(&b, page, false), KernReturn::Success);
    EXPECT_EQ(map->entryCount(), 1u);
    EXPECT_EQ(map->virtualSize(), 2 * page);

    // Different protection prevents merging.
    VmOffset c = 6 * page;
    ASSERT_EQ(map->allocate(&c, page, false), KernReturn::Success);
    ASSERT_EQ(map->protect(c, page, false, VmProt::Read),
              KernReturn::Success);
    EXPECT_EQ(map->entryCount(), 2u);
}

TEST_F(VmMapTest, LookupCreatesLazyZeroObject)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, 2 * page, false),
              KernReturn::Success);

    VmMap::LookupResult lr;
    ASSERT_EQ(map->lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    ASSERT_NE(lr.object, nullptr);
    EXPECT_EQ(lr.offset, 0u);
    EXPECT_TRUE(lr.object->internal);

    // Second lookup returns the same object at the right offset.
    VmMap::LookupResult lr2;
    ASSERT_EQ(map->lookup(addr + page, FaultType::Read, lr2),
              KernReturn::Success);
    EXPECT_EQ(lr2.object, lr.object);
    EXPECT_EQ(lr2.offset, page);
}

TEST_F(VmMapTest, LookupHonorsProtection)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);
    ASSERT_EQ(map->protect(addr, page, false, VmProt::Read),
              KernReturn::Success);
    VmMap::LookupResult lr;
    EXPECT_EQ(map->lookup(addr, FaultType::Write, lr),
              KernReturn::ProtectionFailure);
    EXPECT_EQ(map->lookup(addr, FaultType::Read, lr),
              KernReturn::Success);
    EXPECT_EQ(map->lookup(64 * page, FaultType::Read, lr),
              KernReturn::InvalidAddress);
}

TEST_F(VmMapTest, HintAcceleratesSequentialLookups)
{
    // Build a map with many entries (alternating protections so
    // they can't merge).
    for (unsigned i = 0; i < 64; ++i) {
        VmOffset addr = (4 + i) * page;
        ASSERT_EQ(map->allocate(&addr, page, false),
                  KernReturn::Success);
        if (i % 2) {
            ASSERT_EQ(map->protect(addr, page, false, VmProt::Read),
                      KernReturn::Success);
        }
    }

    // Sequential lookups with the hint: most are hits.
    std::uint64_t lookups0 = vm->stats.lookups;
    std::uint64_t hits0 = vm->stats.hits;
    VmMap::LookupResult lr;
    for (unsigned i = 0; i < 64; ++i)
        map->lookup((4 + i) * page, FaultType::Read, lr);
    std::uint64_t hits = vm->stats.hits - hits0;
    std::uint64_t lookups = vm->stats.lookups - lookups0;
    EXPECT_EQ(lookups, 64u);
    EXPECT_GE(hits, 60u);

    // Without the hint there are no hits at all.
    map->useHint = false;
    hits0 = vm->stats.hits;
    for (unsigned i = 0; i < 64; ++i)
        map->lookup((4 + i) * page, FaultType::Read, lr);
    EXPECT_EQ(vm->stats.hits - hits0, 0u);
}

TEST_F(VmMapTest, VirtualCopySharesUntilWrite)
{
    VmOffset src = 4 * page;
    ASSERT_EQ(map->allocate(&src, 2 * page, false),
              KernReturn::Success);
    // Materialize the source object.
    VmMap::LookupResult lr;
    ASSERT_EQ(map->lookup(src, FaultType::Write, lr),
              KernReturn::Success);
    VmObject *src_obj = lr.object;

    VmOffset dst = 32 * page;
    ASSERT_EQ(map->virtualCopy(*map, src, 2 * page, dst),
              KernReturn::Success);

    // Destination references the same object copy-on-write.
    VmMap::LookupResult lrd;
    ASSERT_EQ(map->lookup(dst, FaultType::Read, lrd),
              KernReturn::Success);
    EXPECT_EQ(lrd.object, src_obj);
    EXPECT_TRUE(lrd.cowReadOnly);

    // A write fault on the destination interposes a shadow.
    ASSERT_EQ(map->lookup(dst, FaultType::Write, lrd),
              KernReturn::Success);
    EXPECT_NE(lrd.object, src_obj);
    EXPECT_EQ(lrd.object->shadowObject(), src_obj);
}

TEST_F(VmMapTest, VirtualCopyRequiresReadableSource)
{
    VmOffset src = 4 * page;
    ASSERT_EQ(map->allocate(&src, page, false), KernReturn::Success);
    ASSERT_EQ(map->protect(src, page, false, VmProt::None),
              KernReturn::Success);
    EXPECT_EQ(map->virtualCopy(*map, src, page, 32 * page),
              KernReturn::ProtectionFailure);
    EXPECT_EQ(map->virtualCopy(*map, 64 * page, page, 32 * page),
              KernReturn::InvalidAddress);
}

TEST_F(VmMapTest, VirtualCopyRejectsOverlap)
{
    VmOffset src = 4 * page;
    ASSERT_EQ(map->allocate(&src, 4 * page, false),
              KernReturn::Success);
    // Overlapping ranges within one map are refused outright.
    EXPECT_EQ(map->virtualCopy(*map, src, 4 * page, src + 2 * page),
              KernReturn::InvalidArgument);
    EXPECT_EQ(map->virtualCopy(*map, src + 2 * page, 4 * page, src),
              KernReturn::InvalidArgument);
    // Touching ranges (no overlap) are fine.
    EXPECT_EQ(map->virtualCopy(*map, src, 2 * page, src + 4 * page),
              KernReturn::Success);
}

TEST_F(VmMapTest, CopyInCopyOutTransfersRange)
{
    VmOffset src = 4 * page;
    ASSERT_EQ(map->allocate(&src, 3 * page, false),
              KernReturn::Success);
    VmMap::LookupResult lr;
    ASSERT_EQ(map->lookup(src, FaultType::Write, lr),
              KernReturn::Success);

    std::list<VmMapEntry> snapshot;
    ASSERT_EQ(map->copyIn(src, 3 * page, &snapshot),
              KernReturn::Success);
    ASSERT_FALSE(snapshot.empty());
    EXPECT_EQ(snapshot.front().start, 0u);

    VmOffset out = 0;
    ASSERT_EQ(map->copyOut(std::move(snapshot), 3 * page, &out),
              KernReturn::Success);
    EXPECT_NE(out, src);
    VmMap::LookupResult lro;
    ASSERT_EQ(map->lookup(out, FaultType::Read, lro),
              KernReturn::Success);
    EXPECT_EQ(lro.object, lr.object);
}

TEST_F(VmMapTest, ForkInheritanceNone)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);
    ASSERT_EQ(map->inherit(addr, page, VmInherit::None),
              KernReturn::Success);

    Pmap *child_pmap = pmaps->create();
    VmMap *child = map->fork(child_pmap);
    EXPECT_EQ(child->entryCount(), 0u);
    VmMap::LookupResult lr;
    EXPECT_EQ(child->lookup(addr, FaultType::Read, lr),
              KernReturn::InvalidAddress);
    child->deallocateRef();
    pmaps->destroy(child_pmap);
}

TEST_F(VmMapTest, ForkInheritanceShareCreatesSharingMap)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);
    ASSERT_EQ(map->inherit(addr, page, VmInherit::Share),
              KernReturn::Success);

    Pmap *child_pmap = pmaps->create();
    VmMap *child = map->fork(child_pmap);

    // Both parent and child resolve to the same object through the
    // sharing map; a write by one is seen by the other (no COW).
    VmMap::LookupResult lp, lc;
    ASSERT_EQ(map->lookup(addr, FaultType::Write, lp),
              KernReturn::Success);
    ASSERT_EQ(child->lookup(addr, FaultType::Write, lc),
              KernReturn::Success);
    EXPECT_EQ(lp.object, lc.object);
    EXPECT_FALSE(lp.cowReadOnly);
    EXPECT_FALSE(lc.cowReadOnly);

    VmOffset probe = addr;
    VmRegionInfo info;
    ASSERT_EQ(map->region(&probe, &info), KernReturn::Success);
    EXPECT_TRUE(info.shared);

    child->deallocate(child->minAddress(),
                      child->maxAddress() - child->minAddress());
    child->deallocateRef();
    pmaps->destroy(child_pmap);
}

TEST_F(VmMapTest, ForkInheritanceCopyIsCopyOnWrite)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);
    VmMap::LookupResult lr;
    ASSERT_EQ(map->lookup(addr, FaultType::Write, lr),
              KernReturn::Success);
    VmObject *orig = lr.object;

    Pmap *child_pmap = pmaps->create();
    VmMap *child = map->fork(child_pmap);

    // Both sides see the original object read-only (needs-copy).
    VmMap::LookupResult lc;
    ASSERT_EQ(child->lookup(addr, FaultType::Read, lc),
              KernReturn::Success);
    EXPECT_EQ(lc.object, orig);
    EXPECT_TRUE(lc.cowReadOnly);

    // The child's first write shadows; the parent keeps the
    // original (through its own shadow when it writes).
    ASSERT_EQ(child->lookup(addr, FaultType::Write, lc),
              KernReturn::Success);
    EXPECT_NE(lc.object, orig);
    EXPECT_EQ(lc.object->shadowObject(), orig);

    child->deallocate(child->minAddress(),
                      child->maxAddress() - child->minAddress());
    child->deallocateRef();
    pmaps->destroy(child_pmap);
}

TEST_F(VmMapTest, ShareMapOperationsApplyToAllSharers)
{
    VmOffset addr = 4 * page;
    ASSERT_EQ(map->allocate(&addr, page, false), KernReturn::Success);
    ASSERT_EQ(map->inherit(addr, page, VmInherit::Share),
              KernReturn::Success);
    Pmap *child_pmap = pmaps->create();
    VmMap *child = map->fork(child_pmap);

    // Protect through the parent: the child sees it too, because
    // the operation applies to the sharing map (section 3.4).
    ASSERT_EQ(map->protect(addr, page, false, VmProt::Read),
              KernReturn::Success);
    VmMap::LookupResult lc;
    EXPECT_EQ(child->lookup(addr, FaultType::Write, lc),
              KernReturn::ProtectionFailure);

    child->deallocate(child->minAddress(),
                      child->maxAddress() - child->minAddress());
    child->deallocateRef();
    pmaps->destroy(child_pmap);
}

TEST_F(VmMapTest, TypicalProcessHasFewEntries)
{
    // "A typical VAX UNIX process has five mapping entries upon
    // creation" (section 3.2): text, data, bss, stack, u-area.
    VmOffset text = 4 * page, data = 16 * page, bss = 24 * page;
    VmOffset stack = 1024 * page, uarea = 2048 * page;
    ASSERT_EQ(map->allocate(&text, 8 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->protect(text, 8 * page, false,
                           VmProt::Read | VmProt::Execute),
              KernReturn::Success);
    ASSERT_EQ(map->allocate(&data, 8 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->allocate(&bss, 8 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->allocate(&stack, 32 * page, false),
              KernReturn::Success);
    ASSERT_EQ(map->allocate(&uarea, 2 * page, false),
              KernReturn::Success);
    // data/bss merge (same attributes, adjacent): ≤ 5 entries, and
    // a sparse gigabyte-wide space costs nothing extra.
    EXPECT_LE(map->entryCount(), 5u);
}

/**
 * User-API range checks: a size whose page-rounded end wraps past
 * 2^64 is refused with KERN_INVALID_ARGUMENT and changes nothing.
 */
class VmMapRangeTest : public VmMapTest
{
  protected:
    void
    SetUp() override
    {
        VmMapTest::SetUp();
        addr = 8 * page;
        ASSERT_EQ(map->allocate(&addr, 4 * page, false),
                  KernReturn::Success);
        wrap = ~VmSize(0) - page + 1; // 2^64 - page
    }

    /** The region at addr, as vm_regions reports it. */
    VmRegionInfo
    regionAt(VmOffset va)
    {
        VmRegionInfo info;
        EXPECT_EQ(map->region(&va, &info), KernReturn::Success);
        return info;
    }

    VmOffset addr = 0;
    VmSize wrap = 0;
};

TEST_F(VmMapRangeTest, CopyWithWrappingSizeKeepsDestination)
{
    VmOffset dst = 64 * page;
    ASSERT_EQ(map->allocate(&dst, 4 * page, false), KernReturn::Success);
    EXPECT_EQ(vmCopy(*vm, *map, addr, wrap, dst),
              KernReturn::InvalidArgument);
    // The destination used to be deallocated before the (skipped)
    // coverage check; both regions must survive.
    EXPECT_EQ(map->entryCount(), 2u);
    EXPECT_EQ(map->virtualSize(), 8 * page);
    EXPECT_EQ(regionAt(dst).start, dst);
}

TEST_F(VmMapRangeTest, DeallocateWithWrappingSizeIsRefused)
{
    EXPECT_EQ(vmDeallocate(*vm, *map, addr, wrap),
              KernReturn::InvalidArgument);
    EXPECT_EQ(map->virtualSize(), 4 * page);
}

TEST_F(VmMapRangeTest, ProtectWithWrappingSizeIsRefused)
{
    EXPECT_EQ(vmProtect(*vm, *map, addr, wrap, false, VmProt::Read),
              KernReturn::InvalidArgument);
    EXPECT_EQ(regionAt(addr).protection, VmProt::Default);
}

TEST_F(VmMapRangeTest, InheritWithWrappingSizeIsRefused)
{
    EXPECT_EQ(vmInherit(*vm, *map, addr, wrap, VmInherit::Share),
              KernReturn::InvalidArgument);
    EXPECT_EQ(regionAt(addr).inheritance, VmInherit::Copy);
}

TEST_F(VmMapRangeTest, ReadWithWrappingSizeIsRefused)
{
    std::vector<std::uint8_t> data(3, 0xAA);
    // Used to throw std::length_error sizing the buffer.
    EXPECT_EQ(vmRead(*vm, *map, addr, wrap, &data),
              KernReturn::InvalidArgument);
    EXPECT_TRUE(data.empty());
}

TEST_F(VmMapRangeTest, FixedAllocateWithWrappingSizeIsRefused)
{
    // 2^64 - 11 used to round to 0 and insert an empty entry.
    VmOffset at = 64 * page;
    EXPECT_EQ(map->allocate(&at, ~VmSize(0) - 10, false),
              KernReturn::InvalidArgument);
    EXPECT_EQ(map->entryCount(), 1u);
    EXPECT_EQ(map->virtualSize(), 4 * page);
}

TEST_F(VmMapRangeTest, AnywhereAllocateWithWrappingSizeIsRefused)
{
    VmOffset at = 0;
    EXPECT_EQ(map->allocate(&at, ~VmSize(0) - 10, true),
              KernReturn::InvalidArgument);
    EXPECT_EQ(map->entryCount(), 1u);
    // The next allocation must not land on a phantom entry.
    VmOffset next = 0;
    ASSERT_EQ(map->allocate(&next, 4 * page, true), KernReturn::Success);
    EXPECT_EQ(map->entryCount(), 2u);
    EXPECT_EQ(map->virtualSize(), 8 * page);
}

TEST_F(VmMapRangeTest, WireWithWrappingSizeIsRefused)
{
    EXPECT_EQ(vmWire(*vm, *map, addr, wrap, true),
              KernReturn::InvalidArgument);
    VmMap::LookupResult lr;
    ASSERT_EQ(map->lookup(addr, FaultType::Read, lr), KernReturn::Success);
    EXPECT_FALSE(lr.wired);
}

} // namespace
} // namespace mach
