#include "pmap/pmap.hh"

#include <algorithm>
#include <functional>

#include "sim/metrics.hh"
#include "sim/trace.hh"

#include "pmap/pv_table.hh"

#include "pmap/ns32082_pmap.hh"
#include "pmap/rt_pmap.hh"
#include "pmap/sun3_pmap.hh"
#include "pmap/tlbsoft_pmap.hh"
#include "pmap/vax_pmap.hh"

namespace mach
{

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
Pmap::hwMarkReferenced(VmOffset va)
{
    if (auto pa = extract(va))
        sys.setReferencedAttr(*pa);
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
    SimClock &clock = sys.getMachine().clock();
    if (!traceActive(clock)) {
        enterImpl(va, pa, prot, wired);
        return;
    }
    traceEmit(clock, TraceEventType::PmapEnter, wired ? 1 : 0, va, pa);
    SimTime t0 = clock.now();
    enterImpl(va, pa, prot, wired);
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
}

void
Pmap::remove(VmOffset start, VmOffset end)
{
    SimClock &clock = sys.getMachine().clock();
    if (!traceActive(clock)) {
        removeImpl(start, end);
        return;
    }
    traceEmit(clock, TraceEventType::PmapRemove, 0, start, end);
    SimTime t0 = clock.now();
    removeImpl(start, end);
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
}

void
Pmap::protect(VmOffset start, VmOffset end, VmProt prot)
{
    SimClock &clock = sys.getMachine().clock();
    if (!traceActive(clock)) {
        protectImpl(start, end, prot);
        return;
    }
    traceEmit(clock, TraceEventType::PmapProtect,
              static_cast<std::uint8_t>(prot), start, end);
    SimTime t0 = clock.now();
    protectImpl(start, end, prot);
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
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

bool
PmapSystem::pvQuiet(PhysAddr pa) const
{
    FrameNum first = pa >> machine.spec.hwPageShift;
    for (FrameNum f = first; f < first + framesPerPage; ++f) {
        if (!pvView->empty(f))
            return false;
    }
    return true;
}

void
PmapSystem::removeAll(PhysAddr pa, ShootdownMode mode)
{
    SimClock &clock = machine.clock();
    if (!traceActive(clock)) {
        // An empty PV chain means the Impl would be a pure no-op (no
        // charges, no flushes); skip the dispatch.  Tracing callers
        // still dispatch so the event stream is unchanged.
        if (pvView && pvQuiet(pa))
            return;
        removeAllImpl(pa, mode);
        return;
    }
    traceEmit(clock, TraceEventType::PmapRemoveAll,
              static_cast<std::uint8_t>(mode), pa, 0);
    SimTime t0 = clock.now();
    removeAllImpl(pa, mode);
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
}

void
PmapSystem::copyOnWrite(PhysAddr pa, ShootdownMode mode)
{
    SimClock &clock = machine.clock();
    if (!traceActive(clock)) {
        if (pvView && pvQuiet(pa))
            return;
        copyOnWriteImpl(pa, mode);
        return;
    }
    traceEmit(clock, TraceEventType::PmapCow,
              static_cast<std::uint8_t>(mode), pa, 0);
    SimTime t0 = clock.now();
    copyOnWriteImpl(pa, mode);
    metricRecord(clock, metric::pmapOpNs, clock.now() - t0);
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

bool
PmapSystem::pendingBefore(const PendingRange &a, const PendingRange &b)
{
    if (a.pmap != b.pmap)
        return std::less<const Pmap *>()(a.pmap, b.pmap);
    return a.start < b.start;
}

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
    if (!batchPending.empty()) {
        PendingRange &last = batchPending.back();
        if (last.pmap == &pmap && start <= last.end && last.start <= end) {
            // Touching or overlapping the previous request of the
            // same pmap: fold it in (the close would merge them).
            ++last.requests;
            last.end = std::max(last.end, end);
            if (start < last.start) {
                last.start = start;
                if (batchPending.size() > 1 &&
                    pendingBefore(last, batchPending.end()[-2]))
                    pendingSorted = false;
            }
            return;
        }
        if (pendingBefore(PendingRange{&pmap, start, end, 1}, last))
            pendingSorted = false;
    }
    batchPending.push_back({&pmap, start, end, 1});
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
    unsigned remote = 0;
    for (unsigned i = 0; i < machine.numCpus(); ++i) {
        if (!targets.test(i))
            continue;
        if (i == machine.currentCpu()) {
            flushCpu(machine.cpu(i));
        } else {
            ++shootdownIpis;
            if (batched)
                ++batchedIpis;
            ++remote;
            traceEmit(clock, TraceEventType::Ipi, 0, i, round);
            machine.ipi(i, flushCpu);
        }
    }
    if (MetricsRegistry *reg = clock.metricsRegistry()) {
        CpuId cpu = clock.traceCpu();
        reg->add(metric::shootdownRounds, 1, cpu);
        reg->add(metric::shootdownRemoteTargets, remote, cpu);
        reg->record(metric::shootdownWaitNs, clock.now() - t0, cpu);
    }
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
        pendingSorted = true;
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
PmapSystem::sortPending()
{
    if (pendingSorted)
        return;
    std::sort(batchPending.begin(), batchPending.end(), pendingBefore);
    pendingSorted = true;
}

void
PmapSystem::flushBatch()
{
    ShootdownMode mode = batchMode;
    batchMode = ShootdownMode::Lazy;
    if (batchPending.empty())
        return;
    sortPending();
    closeRanges(batchPending, mode);
    batchPending.clear();
}

void
PmapSystem::drainBatched(Pmap &pmap)
{
    if (batchPending.empty())
        return;
    sortPending();
    auto [lo, hi] = std::equal_range(
        batchPending.begin(), batchPending.end(),
        PendingRange{&pmap, 0, 0, 0},
        [](const PendingRange &a, const PendingRange &b) {
            return std::less<const Pmap *>()(a.pmap, b.pmap);
        });
    if (lo == hi)
        return;
    closeRanges({lo, hi}, batchMode);
    batchPending.erase(lo, hi);
}

void
PmapSystem::closeRanges(std::span<const PendingRange> records,
                        ShootdownMode mode)
{
    if (mode == ShootdownMode::Lazy) {
        // Every shootdown in the batch permitted inconsistency.
        ++lazySkips;
        return;
    }

    // Records are sorted by (pmap, start): one sweep merges each
    // pmap's adjacent and overlapping ranges and unions the targets.
    flushList.clear();
    std::bitset<kMaxCpus> targets;
    std::uint64_t requests = 0;
    const Pmap *prev = nullptr;
    for (const PendingRange &r : records) {
        requests += r.requests;
        if (r.pmap == prev && r.start <= flushList.back().end) {
            flushList.back().end = std::max(flushList.back().end, r.end);
            continue;
        }
        if (r.pmap != prev) {
            targets |= flushTargets(*r.pmap);
            prev = r.pmap;
        }
        flushList.push_back({r.pmap->tlbTag(), r.start, r.end});
    }

    batchRangesMerged += requests - flushList.size();
    ++batchFlushes;
    chargePmap(SimTime(flushList.size()) *
               machine.spec.costs.shootdownPerRange);
    dispatchFlush(targets, flushList, mode, true);
}

} // namespace mach
