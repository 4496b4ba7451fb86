/**
 * @file
 * Tests for the simulated hardware: physical memory (including the
 * SUN 3 display-memory hole), TLBs, the fault-driven access loop,
 * IPIs and timer-deferred work, and the NS32082 RMW fault-reporting
 * bug.
 */

#include <gtest/gtest.h>

#include "hw/machine.hh"
#include "test_util.hh"

namespace mach
{
namespace
{

using test::tinySpec;

/** A trivial translation source backed by a flat identity map. */
class FlatSpace : public TranslationSource
{
  public:
    explicit FlatSpace(VmProt prot = VmProt::Default) : prot(prot) {}

    std::optional<HwTranslation>
    hwLookup(VmOffset va, AccessType) override
    {
        if (!present)
            return std::nullopt;
        return HwTranslation{truncTo(va, 512) + base, prot, false};
    }
    void hwMarkReferenced(PhysAddr) override { ++referenced; }
    void hwMarkModified(VmOffset) override { ++modified; }

    VmProt prot;
    PhysAddr base = 0;
    bool present = true;
    int referenced = 0;
    int modified = 0;
};

TEST(PhysMemory, ReadWriteRoundTrip)
{
    MachineSpec spec = tinySpec(ArchType::Vax);
    Machine m(spec);
    auto data = test::pattern(4096);
    m.memory().write(8192, data.data(), data.size());
    std::vector<std::uint8_t> out(4096);
    m.memory().read(8192, out.data(), out.size());
    EXPECT_EQ(data, out);
}

TEST(PhysMemory, ZeroAndCopy)
{
    Machine m(tinySpec(ArchType::Vax));
    auto data = test::pattern(512);
    m.memory().write(0, data.data(), data.size());
    m.memory().copy(0, 1024, 512);
    std::vector<std::uint8_t> out(512);
    m.memory().read(1024, out.data(), 512);
    EXPECT_EQ(data, out);
    m.memory().zero(1024, 512);
    m.memory().read(1024, out.data(), 512);
    for (auto b : out)
        EXPECT_EQ(b, 0);
}

TEST(PhysMemory, ChargesCosts)
{
    Machine m(tinySpec(ArchType::Vax));
    SimTime before = m.clock().now();
    std::vector<std::uint8_t> buf(1024);
    m.memory().write(0, buf.data(), buf.size());
    SimTime copy_time = m.clock().now() - before;
    EXPECT_GT(copy_time, 0u);
    EXPECT_EQ(m.clock().kindTotal(CostKind::MemCopy), copy_time);
}

TEST(PhysMemory, Sun3DisplayHole)
{
    MachineSpec spec = MachineSpec::sun3_160();
    spec.physMemBytes = 16ull << 20;
    Machine m(spec);
    // The hole at [12MB, 14MB) is not usable RAM.
    EXPECT_TRUE(m.memory().usable(0, 8192));
    EXPECT_FALSE(m.memory().usable(12ull << 20, 8192));
    EXPECT_FALSE(m.memory().usable((12ull << 20) - 4096, 8192));
    EXPECT_TRUE(m.memory().usable(14ull << 20, 8192));
}

TEST(Tlb, InsertLookupFlush)
{
    Machine m(tinySpec(ArchType::Vax));
    Tlb &tlb = m.cpu(0).tlb;
    int tag_a, tag_b;

    EXPECT_EQ(tlb.lookup(&tag_a, 5), nullptr);
    tlb.insert(&tag_a, 5, HwTranslation{512 * 5, VmProt::Read, false});
    TlbEntry *e = tlb.lookup(&tag_a, 5);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->pageBase, 512u * 5);

    // Tags isolate address spaces.
    EXPECT_EQ(tlb.lookup(&tag_b, 5), nullptr);

    tlb.flushPage(&tag_a, 5);
    EXPECT_EQ(tlb.lookup(&tag_a, 5), nullptr);

    tlb.insert(&tag_a, 1, {512, VmProt::Read, false});
    tlb.insert(&tag_b, 2, {1024, VmProt::Read, false});
    tlb.flushTag(&tag_a);
    EXPECT_EQ(tlb.lookup(&tag_a, 1), nullptr);
    EXPECT_NE(tlb.lookup(&tag_b, 2), nullptr);

    tlb.flushAll();
    EXPECT_EQ(tlb.lookup(&tag_b, 2), nullptr);
}

TEST(Tlb, ReplacementEvictsOldEntries)
{
    MachineSpec spec = tinySpec(ArchType::Vax);
    spec.tlbEntries = 4;
    Machine m(spec);
    Tlb &tlb = m.cpu(0).tlb;
    int tag;
    for (VmOffset vpn = 0; vpn < 8; ++vpn)
        tlb.insert(&tag, vpn, {vpn * 512, VmProt::Read, false});
    // Only the last 4 survive in a 4-entry TLB.
    int present = 0;
    for (VmOffset vpn = 0; vpn < 8; ++vpn) {
        if (tlb.lookup(&tag, vpn))
            ++present;
    }
    EXPECT_EQ(present, 4);
}

TEST(Machine, AccessFaultsWhenNoSpace)
{
    Machine m(tinySpec(ArchType::Vax));
    std::uint8_t b;
    EXPECT_EQ(m.read(0, 4096, &b, 1), KernReturn::InvalidAddress);
}

TEST(Machine, FaultHandlerRetriesAccess)
{
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space;
    space.present = false;
    m.bindSpace(0, &space);

    int fault_count = 0;
    m.setFaultHandler([&](CpuId, VmOffset, FaultType) {
        ++fault_count;
        space.present = true;  // "resolve" the fault
        return KernReturn::Success;
    });

    std::uint8_t b = 0;
    EXPECT_EQ(m.read(0, 4096, &b, 1), KernReturn::Success);
    EXPECT_EQ(fault_count, 1);
    EXPECT_EQ(m.faultCount(), 1u);
}

TEST(Machine, ProtectionFaultOnWrite)
{
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space(VmProt::Read);
    m.bindSpace(0, &space);

    FaultType seen = FaultType::Read;
    int faults = 0;
    m.setFaultHandler([&](CpuId, VmOffset, FaultType t) {
        seen = t;
        if (++faults > 1)
            return KernReturn::ProtectionFailure;
        space.prot = VmProt::Default;
        // Old TLB entry must be refreshed by the handler.
        m.cpu(0).tlb.flushAll();
        return KernReturn::Success;
    });

    std::uint8_t b = 7;
    EXPECT_EQ(m.write(0, 100, &b, 1), KernReturn::Success);
    EXPECT_EQ(seen, FaultType::Write);
}

TEST(Machine, RmwBugReportsReadFault)
{
    // NS32082: read-modify-write faults are reported as read faults
    // (paper section 5.1).
    Machine m(tinySpec(ArchType::Ns32082));
    FlatSpace space(VmProt::Read);
    m.bindSpace(0, &space);

    FaultType seen = FaultType::Execute;
    m.setFaultHandler([&](CpuId, VmOffset, FaultType t) {
        seen = t;
        return KernReturn::ProtectionFailure;
    });

    EXPECT_EQ(m.touch(0, 0, 1, AccessType::Rmw),
              KernReturn::ProtectionFailure);
    EXPECT_EQ(seen, FaultType::Read);  // the bug

    // A healthy architecture reports the same access as a write.
    Machine m2(tinySpec(ArchType::Vax));
    FlatSpace space2(VmProt::Read);
    m2.bindSpace(0, &space2);
    m2.setFaultHandler([&](CpuId, VmOffset, FaultType t) {
        seen = t;
        return KernReturn::ProtectionFailure;
    });
    EXPECT_EQ(m2.touch(0, 0, 1, AccessType::Rmw),
              KernReturn::ProtectionFailure);
    EXPECT_EQ(seen, FaultType::Write);
}

TEST(Machine, AccessRejectsWrappedRanges)
{
    // A range whose end wraps the top of the address space used to
    // make read/write restart at va 0 and touch() scan nothing;
    // all three must reject it up front instead.
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space;
    m.bindSpace(0, &space);

    const VmOffset top = ~VmOffset(0);
    std::uint8_t buf[4] = {};
    EXPECT_EQ(m.read(0, top - 1, buf, 4), KernReturn::InvalidAddress);
    EXPECT_EQ(m.write(0, top - 1, buf, 4), KernReturn::InvalidAddress);
    EXPECT_EQ(m.touch(0, top - 1, 4, AccessType::Read),
              KernReturn::InvalidAddress);
    // Nothing was referenced: the reject happens before any access.
    EXPECT_EQ(space.referenced, 0);
}

TEST(Machine, TouchReachesTopOfAddressSpace)
{
    // A range ending exactly at the last byte must touch its final
    // page (the old `p < va + len` loop bound overflowed to 0 and
    // skipped everything).  FlatSpace translates any va, and touch
    // moves no data, so the huge addresses are safe here.
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space;
    m.bindSpace(0, &space);

    const VmOffset top = ~VmOffset(0);
    EXPECT_EQ(m.touch(0, top - 511, 512, AccessType::Read),
              KernReturn::Success);
    EXPECT_GE(space.referenced, 1);

    // Zero-length accesses succeed without touching anything.
    int before = space.referenced;
    EXPECT_EQ(m.touch(0, 0, 0, AccessType::Read), KernReturn::Success);
    std::uint8_t b;
    EXPECT_EQ(m.read(0, 0, &b, 0), KernReturn::Success);
    EXPECT_EQ(m.write(0, 0, &b, 0), KernReturn::Success);
    EXPECT_EQ(space.referenced, before);
}

TEST(Machine, ProbeRetriesThroughFaultHandler)
{
    // probe() shares accessOne's fault-retry loop: a first miss runs
    // the handler, and the retried translation reports the physical
    // address without moving any data.
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space;
    space.present = false;
    m.bindSpace(0, &space);

    int fault_count = 0;
    m.setFaultHandler([&](CpuId, VmOffset, FaultType) {
        ++fault_count;
        space.present = true;
        return KernReturn::Success;
    });

    PhysAddr pa = ~PhysAddr(0);
    EXPECT_EQ(m.probe(0, 1024 + 17, AccessType::Read, &pa),
              KernReturn::Success);
    EXPECT_EQ(fault_count, 1);
    EXPECT_EQ(pa, 1024u + 17);

    // A handler failure propagates out of probe unchanged.
    space.present = false;
    m.cpu(0).tlb.flushAll();
    m.setFaultHandler([&](CpuId, VmOffset, FaultType) {
        return KernReturn::MemoryError;
    });
    EXPECT_EQ(m.probe(0, 2048, AccessType::Read, nullptr),
              KernReturn::MemoryError);
}

TEST(Machine, ProbeWithoutHandlerFails)
{
    Machine m(tinySpec(ArchType::Vax));
    EXPECT_EQ(m.probe(0, 4096, AccessType::Read, nullptr),
              KernReturn::InvalidAddress);
}

TEST(Machine, ModifyNotificationOnFirstWrite)
{
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace space;
    m.bindSpace(0, &space);
    m.setFaultHandler([&](CpuId, VmOffset, FaultType) {
        return KernReturn::ProtectionFailure;
    });

    std::uint8_t b = 1;
    ASSERT_EQ(m.write(0, 0, &b, 1), KernReturn::Success);
    EXPECT_EQ(space.modified, 1);
    // Further writes through the same TLB entry don't re-notify.
    ASSERT_EQ(m.write(0, 1, &b, 1), KernReturn::Success);
    EXPECT_EQ(space.modified, 1);
    // Reads never notify modification.
    ASSERT_EQ(m.read(0, 0, &b, 1), KernReturn::Success);
    EXPECT_EQ(space.modified, 1);
    EXPECT_GE(space.referenced, 1);
}

TEST(Machine, BindSpaceFlushesUntaggedTlb)
{
    Machine m(tinySpec(ArchType::Vax));
    FlatSpace a, b;
    m.bindSpace(0, &a);
    m.cpu(0).tlb.insert(a.tlbTag(), 0, {0, VmProt::Default, false});
    std::uint64_t flushes = m.cpu(0).tlb.flushes();
    m.bindSpace(0, &b);
    EXPECT_GT(m.cpu(0).tlb.flushes(), flushes);
}

TEST(Machine, ContextTaggedTlbSurvivesSwitch)
{
    MachineSpec spec = tinySpec(ArchType::Sun3);
    Machine m(spec);
    FlatSpace a, b;
    m.bindSpace(0, &a);
    m.cpu(0).tlb.insert(a.tlbTag(), 0, {0, VmProt::Default, false});
    m.bindSpace(0, &b);
    m.bindSpace(0, &a);
    EXPECT_NE(m.cpu(0).tlb.lookup(a.tlbTag(), 0), nullptr);
}

TEST(Machine, IpiChargesAndRuns)
{
    Machine m(tinySpec(ArchType::Ns32082, 2, 4));
    int ran_on = -1;
    SimTime before = m.clock().now();
    m.ipi(2, [&](Cpu &c) { ran_on = int(c.id); });
    EXPECT_EQ(ran_on, 2);
    EXPECT_EQ(m.ipiCount(), 1u);
    EXPECT_GT(m.clock().now(), before);
}

TEST(Machine, DeferredWorkRunsAtTick)
{
    Machine m(tinySpec(ArchType::Vax));
    int runs = 0;
    m.deferUntilTick([&] { ++runs; });
    m.deferUntilTick([&] { ++runs; });
    EXPECT_EQ(m.deferredCount(), 2u);
    EXPECT_EQ(runs, 0);
    m.timerTick();
    EXPECT_EQ(runs, 2);
    EXPECT_EQ(m.deferredCount(), 0u);
    m.timerTick();
    EXPECT_EQ(runs, 2);
}

TEST(Machine, DeferredWorkQueuedDuringTickRunsNextTick)
{
    Machine m(tinySpec(ArchType::Vax));
    int runs = 0;
    m.deferUntilTick([&] {
        ++runs;
        m.deferUntilTick([&] { ++runs; });
    });
    m.timerTick();
    EXPECT_EQ(runs, 1);
    EXPECT_EQ(m.deferredCount(), 1u);
    m.timerTick();
    EXPECT_EQ(runs, 2);
}

TEST(MachineSpec, Factories)
{
    EXPECT_EQ(MachineSpec::microVax2().hwPageSize(), 512u);
    EXPECT_EQ(MachineSpec::rtPc().hwPageSize(), 2048u);
    EXPECT_EQ(MachineSpec::sun3_160().hwPageSize(), 8192u);
    EXPECT_EQ(MachineSpec::sun3_160().numContexts, 8u);
    EXPECT_TRUE(MachineSpec::encoreMultimax().rmwFaultBug);
    EXPECT_EQ(MachineSpec::encoreMultimax().pmapVaLimit, 16ull << 20);
    EXPECT_EQ(MachineSpec::encoreMultimax().physAddrLimit,
              32ull << 20);
    EXPECT_EQ(MachineSpec::byName("rtpc").arch, ArchType::RtPc);
    EXPECT_EQ(MachineSpec::byName("rp3").arch, ArchType::TlbOnly);
}

TEST(SimClock, CategorizedCharges)
{
    SimClock clock;
    clock.charge(CostKind::Disk, 100);
    clock.charge(CostKind::MemCopy, 50);
    clock.charge(CostKind::Disk, 25);
    EXPECT_EQ(clock.now(), 175u);
    EXPECT_EQ(clock.kindTotal(CostKind::Disk), 125u);
    EXPECT_EQ(clock.kindTotal(CostKind::MemCopy), 50u);
    EXPECT_EQ(clock.kindTotal(CostKind::Ipi), 0u);
    clock.reset();
    EXPECT_EQ(clock.now(), 0u);
    EXPECT_EQ(clock.kindTotal(CostKind::Disk), 0u);
}

} // namespace
} // namespace mach
