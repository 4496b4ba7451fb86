#include "pmap/pmap.hh"

#include <algorithm>

#include "sim/metrics.hh"
#include "sim/trace.hh"

#include "pmap/ns32082_pmap.hh"
#include "pmap/rt_pmap.hh"
#include "pmap/sun3_pmap.hh"
#include "pmap/tlbsoft_pmap.hh"
#include "pmap/vax_pmap.hh"

namespace mach
{

namespace
{

/**
 * Run one machine-independent pmap request: untraced, just @p impl;
 * traced, emit its event first and record the simulated time @p impl
 * took in the pmap-op latency histogram.
 */
template <typename Impl>
inline void
tracedOp(SimClock &clock, TraceEventType type, std::uint8_t detail,
         std::uint64_t arg0, std::uint64_t arg1, Impl &&impl)
{
    if (!traceActive(clock)) {
        impl();
        return;
    }
    traceEmit(clock, type, detail, arg0, arg1);
    SimTime t0 = clock.now();
    impl();
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
}

} // namespace

Pmap::Pmap(PmapSystem &sys, bool kernel) : sys(sys), isKernel(kernel)
{
}

void
Pmap::activate(CpuId cpu)
{
    MACH_ASSERT(cpu < kMaxCpus);
    cpus.set(cpu);
    onActivate(cpu);
}

void
Pmap::deactivate(CpuId cpu)
{
    MACH_ASSERT(cpu < kMaxCpus);
    cpus.reset(cpu);
    onDeactivate(cpu);
}

void
Pmap::hwMarkReferenced(PhysAddr page_base)
{
    sys.setReferencedAttr(page_base);
}

void
Pmap::hwMarkModified(VmOffset va)
{
    if (auto pa = extract(va)) {
        sys.setModifiedAttr(*pa);
        sys.setReferencedAttr(*pa);
    }
}

void
Pmap::update()
{
    sys.getMachine().timerTick();
}

void
Pmap::enter(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    tracedOp(sys.getMachine().clock(), TraceEventType::PmapEnter,
             wired ? 1 : 0, va, pa,
             [&] { enterImpl(va, pa, prot, wired); });
}

void
Pmap::remove(VmOffset start, VmOffset end)
{
    tracedOp(sys.getMachine().clock(), TraceEventType::PmapRemove, 0,
             start, end, [&] { removeImpl(start, end); });
}

void
Pmap::protect(VmOffset start, VmOffset end, VmProt prot)
{
    tracedOp(sys.getMachine().clock(), TraceEventType::PmapProtect,
             static_cast<std::uint8_t>(prot), start, end, [&] {
                 if (protEmpty(prot))
                     removeImpl(start, end);
                 else
                     protectImpl(start, end, prot);
             });
}

void
Pmap::shootdown(VmOffset start, VmOffset end, ShootdownMode mode)
{
    sys.shootdownRange(*this, start, end, mode);
}

PmapSystem::PmapSystem(Machine &machine) : machine(machine)
{
}

std::unique_ptr<PmapSystem>
PmapSystem::build(Machine &machine)
{
    switch (machine.spec.arch) {
      case ArchType::Vax:
        return std::make_unique<VaxPmapSystem>(machine);
      case ArchType::RtPc:
        return std::make_unique<RtPmapSystem>(machine);
      case ArchType::Sun3:
        return std::make_unique<Sun3PmapSystem>(machine);
      case ArchType::Ns32082:
        return std::make_unique<Ns32082PmapSystem>(machine);
      case ArchType::TlbOnly:
        return std::make_unique<TlbSoftPmapSystem>(machine);
    }
    panic("unknown architecture");
}

void
PmapSystem::init(VmSize mach_page_size)
{
    VmSize hw = hwPageSize();
    if (mach_page_size < hw || !isPowerOf2(mach_page_size) ||
        mach_page_size % hw != 0) {
        fatal("Mach page size %llu is not a power-of-two multiple of "
              "the hardware page size %llu",
              (unsigned long long)mach_page_size, (unsigned long long)hw);
    }
    machPage = mach_page_size;
    framesPerPage = FrameNum(machPage >> machine.spec.hwPageShift);
    attrs.assign(machine.spec.physMemBytes / hw, PhysAttr{});

    auto kp = allocatePmap(true);
    kernel = kp.get();
    allPmaps.push_back(std::move(kp));
    // The kernel map is in use on every CPU at all times.
    for (unsigned i = 0; i < machine.numCpus(); ++i)
        kernel->activate(i);
}

Pmap *
PmapSystem::create()
{
    MACH_ASSERT(machPage != 0);
    machine.clock().charge(CostKind::PmapOp, machine.spec.costs.pmapCreate);
    auto p = allocatePmap(false);
    Pmap *raw = p.get();
    allPmaps.push_back(std::move(p));
    return raw;
}

void
PmapSystem::destroy(Pmap *pmap)
{
    MACH_ASSERT(pmap && !pmap->kernel());
    if (!pmap->release())
        return;
    MACH_ASSERT(pmap->cpusUsing().none());
    // Remove every mapping so shared structures (inverted tables,
    // PMEG pools) are released.
    {
        PmapBatch batch(*this);
        pmap->remove(0, machine.spec.effectiveVaLimit());
    }
    // If an enclosing batch is still open its pending ranges may
    // reference the dying pmap; flush those before it goes away.
    drainBatched(*pmap);
    onPmapDestroy(pmap);
    auto it = std::find_if(allPmaps.begin(), allPmaps.end(),
                           [&](const auto &p) { return p.get() == pmap; });
    MACH_ASSERT(it != allPmaps.end());
    allPmaps.erase(it);
}

bool
PmapSystem::isModified(PhysAddr pa)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f) {
        if (attrs[f].modified)
            return true;
    }
    return false;
}

bool
PmapSystem::isReferenced(PhysAddr pa)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f) {
        if (attrs[f].referenced)
            return true;
    }
    return false;
}

void
PmapSystem::removeAll(PhysAddr pa, ShootdownMode mode)
{
    tracedOp(machine.clock(), TraceEventType::PmapRemoveAll,
             static_cast<std::uint8_t>(mode), pa, 0,
             [&] { removeAllImpl(pa, mode); });
}

void
PmapSystem::copyOnWrite(PhysAddr pa, ShootdownMode mode)
{
    tracedOp(machine.clock(), TraceEventType::PmapCow,
             static_cast<std::uint8_t>(mode), pa, 0,
             [&] { copyOnWriteImpl(pa, mode); });
}

void
PmapSystem::clearModify(PhysAddr pa, ShootdownMode mode)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f)
        attrs[f].modified = false;
    // Resynchronize: drop the page's mappings so the next write
    // faults (or misses the TLB) and is observed again.
    removeAll(pa, mode);
}

void
PmapSystem::clearReference(PhysAddr pa, ShootdownMode mode)
{
    FrameNum first = frameOf(pa);
    FrameNum count = framesPerPage;
    for (FrameNum f = first; f < first + count; ++f)
        attrs[f].referenced = false;
    removeAll(pa, mode);
}

void
PmapSystem::setModifiedAttr(PhysAddr pa)
{
    FrameNum f = frameOf(pa);
    if (f < attrs.size())
        attrs[f].modified = true;
}

void
PmapSystem::setReferencedAttr(PhysAddr pa)
{
    FrameNum f = frameOf(pa);
    if (f < attrs.size())
        attrs[f].referenced = true;
}

namespace
{

/** Ranges at most this many hardware pages flush entry-by-entry. */
constexpr VmSize kByPageFlushPages = 8;

} // namespace

/**
 * A view over a (tag, start, end) list grouped by tag.  Small ranges
 * flush entry-by-entry; a large range flushes the whole tag, after
 * which that tag's remaining ranges are moot.  Each tag belongs to
 * one pmap, so a tag group is a pmap group.
 */
struct PmapSystem::FlushCmd
{
    std::span<const TagRange> ranges;
    VmSize hw;
    unsigned shift;

    void
    operator()(Cpu &c) const
    {
        const void *flushedTag = nullptr;
        for (const TagRange &r : ranges) {
            if (r.tag == flushedTag)
                continue;
            if ((r.end - r.start) >> shift <= kByPageFlushPages) {
                for (VmOffset va = truncTo(r.start, hw); va < r.end;
                     va += hw)
                    c.tlb.flushPage(r.tag, va >> shift);
            } else {
                c.tlb.flushTag(r.tag);
                flushedTag = r.tag;
            }
        }
    }
};

void
PmapSystem::shootdownRange(Pmap &pmap, VmOffset start, VmOffset end,
                           ShootdownMode mode)
{
    // Every consistency request is traced here, whether it is
    // dispatched now, absorbed into a batch, deferred or skipped.
    traceEmit(machine.clock(), TraceEventType::Shootdown,
              static_cast<std::uint8_t>(mode), start, end);
    if (!batching() || !coalesceShootdowns) {
        shootdownNow(pmap, start, end, mode);
        return;
    }
    // Record the range; the batch close issues one merged round
    // honoring the strictest mode seen.
    ++shootdownsCoalesced;
    batchMode = stricterMode(mode, batchMode);
    if (pmap.batchSlot == Pmap::kNoBatchSlot) {
        pmap.batchSlot = std::uint32_t(batchSlots.size());
        batchSlots.push_back({&pmap, 0, 0});
    }
    const std::uint32_t slot = pmap.batchSlot;
    if (!batchPending.empty()) {
        PendingRange &last = batchPending.back();
        if (last.slot == slot && start <= last.end && last.start <= end) {
            // Touching or overlapping the previous request of the
            // same pmap: fold it in (the close would merge them).
            ++last.requests;
            last.start = std::min(last.start, start);
            last.end = std::max(last.end, end);
            return;
        }
    }
    batchPending.push_back({start, end, slot, 1});
    ++batchSlots[slot].records;
}

void
PmapSystem::shootdownNow(Pmap &pmap, VmOffset start, VmOffset end,
                         ShootdownMode mode)
{
    if (mode == ShootdownMode::Lazy) {
        // Section 5.2 case 3: the semantics of the operation permit
        // temporary inconsistency; remote TLBs converge later.
        ++lazySkips;
        return;
    }
    TagRange range{pmap.tlbTag(), start, end};
    dispatchFlush(flushTargets(pmap), {&range, 1}, mode, false);
}

std::bitset<kMaxCpus>
PmapSystem::flushTargets(const Pmap &pmap) const
{
    std::bitset<kMaxCpus> targets = pmap.cpusUsing();
    if (pmap.kernel() || machine.spec.tlbTaggedByContext) {
        // Kernel mappings are live on every CPU; and on hardware
        // whose translation cache is tagged by context (SUN 3), a
        // deactivated map's entries survive context switches, so
        // every CPU may hold them.
        for (unsigned i = 0; i < machine.numCpus(); ++i)
            targets.set(i);
    }
    return targets;
}

void
PmapSystem::dispatchFlush(const std::bitset<kMaxCpus> &targets,
                          std::span<const TagRange> ranges,
                          ShootdownMode mode, bool batched)
{
    MACH_ASSERT(mode != ShootdownMode::Lazy);

    if (mode == ShootdownMode::Deferred) {
        // Section 5.2 case 2: queue the flush; the caller must not
        // reuse the page until the next timer tick has been taken.
        ++deferredFlushes;
        if (tickFlushes.empty())
            machine.deferUntilTick([this] { runTickFlushes(); });
        tickFlushes.push_back({targets, tickRanges.size(), ranges.size()});
        tickRanges.insert(tickRanges.end(), ranges.begin(), ranges.end());
        return;
    }

    // Immediate (case 1): local flush plus an IPI per remote CPU.
    // Every IPI of the round carries the same round id so the trace
    // analyzer can recover the fan-out of each dispatch.
    FlushCmd flushCpu{ranges, hwPageSize(), machine.spec.hwPageShift};
    SimClock &clock = machine.clock();
    SimTime t0 = clock.now();
    const std::uint64_t round = ++shootdownRoundSeq;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        if (!targets.test(i))
            continue;
        if (i == machine.currentCpu()) {
            flushCpu(machine.cpu(i));
        } else {
            ++shootdownIpis;
            if (batched)
                ++batchedIpis;
            traceEmit(clock, TraceEventType::Ipi, 0, i, round);
            machine.ipi(i, flushCpu);
        }
    }
    metricRecord(clock, metric::shootdownWaitNs, clock.now() - t0);
}

void
PmapSystem::runTickFlushes()
{
    // Flushes only touch TLBs, so none can queue another while these
    // run; the buffers are cleared (capacity kept) for the next tick.
    for (const TickFlush &t : tickFlushes) {
        FlushCmd flushCpu{{tickRanges.data() + t.first, t.count},
                          hwPageSize(), machine.spec.hwPageShift};
        for (unsigned i = 0; i < machine.numCpus(); ++i) {
            if (t.targets.test(i))
                flushCpu(machine.cpu(i));
        }
    }
    tickFlushes.clear();
    tickRanges.clear();
}

void
PmapSystem::openBatch()
{
    if (batchDepth++ == 0) {
        batchMode = ShootdownMode::Lazy;
        batchPending.clear();
    }
}

void
PmapSystem::closeBatch()
{
    MACH_ASSERT(batchDepth > 0);
    if (--batchDepth == 0)
        flushBatch();
}

void
PmapSystem::groupPending()
{
    // Counting pass: a prefix sum over the slots' record counts
    // places each group, then one sweep files every record's index
    // under its slot, keeping arrival order within the group.
    std::uint32_t base = 0;
    for (BatchSlot &s : batchSlots) {
        s.first = base;
        base += s.records;
    }
    batchOrder.resize(batchPending.size());
    for (std::uint32_t i = 0; i < batchPending.size(); ++i)
        batchOrder[batchSlots[batchPending[i].slot].first++] = i;
    // Within a pmap the close sweeps ascending starts; that order
    // decides page-by-page versus whole-tag flushes.
    auto byStart = [this](std::uint32_t a, std::uint32_t b) {
        return batchPending[a].start < batchPending[b].start;
    };
    for (BatchSlot &s : batchSlots) {
        s.first -= s.records;
        auto lo = batchOrder.begin() + s.first;
        auto hi = lo + s.records;
        if (!std::is_sorted(lo, hi, byStart))
            std::sort(lo, hi, byStart);
    }
}

void
PmapSystem::flushBatch()
{
    ShootdownMode mode = batchMode;
    batchMode = ShootdownMode::Lazy;
    if (!batchPending.empty()) {
        groupPending();
        closeRanges(batchOrder, mode);
        batchPending.clear();
    }
    for (const BatchSlot &s : batchSlots) {
        if (s.pmap)
            s.pmap->batchSlot = Pmap::kNoBatchSlot;
    }
    batchSlots.clear();
}

void
PmapSystem::drainBatched(Pmap &pmap)
{
    if (pmap.batchSlot == Pmap::kNoBatchSlot)
        return;
    const std::uint32_t slot = pmap.batchSlot;
    BatchSlot &s = batchSlots[slot];
    groupPending();
    closeRanges({batchOrder.data() + s.first, s.records}, batchMode);
    std::erase_if(batchPending,
                  [slot](const PendingRange &r) { return r.slot == slot; });
    s.records = 0;
    s.pmap = nullptr;
    pmap.batchSlot = Pmap::kNoBatchSlot;
}

void
PmapSystem::closeRanges(std::span<const std::uint32_t> order,
                        ShootdownMode mode)
{
    if (mode == ShootdownMode::Lazy) {
        // Every shootdown in the batch permitted inconsistency.
        ++lazySkips;
        return;
    }

    // Records are grouped by pmap and sorted by start within a group:
    // one sweep merges each pmap's adjacent and overlapping ranges
    // and unions the targets.  Flushes under different tags commute,
    // so the order of the groups is free.
    flushList.clear();
    std::bitset<kMaxCpus> targets;
    std::uint64_t requests = 0;
    std::uint32_t prev = Pmap::kNoBatchSlot;
    const void *tag = nullptr;
    for (std::uint32_t i : order) {
        const PendingRange &r = batchPending[i];
        requests += r.requests;
        if (r.slot == prev && r.start <= flushList.back().end) {
            flushList.back().end = std::max(flushList.back().end, r.end);
            continue;
        }
        if (r.slot != prev) {
            const Pmap &pmap = *batchSlots[r.slot].pmap;
            targets |= flushTargets(pmap);
            tag = pmap.tlbTag();
            prev = r.slot;
        }
        flushList.push_back({tag, r.start, r.end});
    }

    batchRangesMerged += requests - flushList.size();
    ++batchFlushes;
    chargePmap(SimTime(flushList.size()) *
               machine.spec.costs.shootdownPerRange);
    dispatchFlush(targets, flushList, mode, true);
}

} // namespace mach
