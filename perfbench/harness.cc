#include "harness.hh"

#include <algorithm>
#include <cstdio>

#include "stats.hh"
#include "vm/vm_object.hh"

namespace perfbench
{

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Op: return "op";
      case Layer::KernFork: return "kern.fork";
      case Layer::KernTerminate: return "kern.terminate";
      case Layer::KernMapFile: return "kern.map_file";
      case Layer::VmMapAllocate: return "vm_map.allocate";
      case Layer::VmMapDeallocate: return "vm_map.deallocate";
      case Layer::VmMapProtect: return "vm_map.protect";
      case Layer::HwAccess: return "hw.access";
      case Layer::FaultZeroFill: return "vm_fault.zero_fill";
      case Layer::FaultCow: return "vm_fault.cow";
      case Layer::FaultPagein: return "vm_fault.pagein";
      case Layer::FaultOther: return "vm_fault.other";
      case Layer::Count: break;
    }
    return "?";
}

std::int64_t
LayerTotals::selfSum(Layer l) const
{
    std::int64_t sum = 0;
    for (std::int64_t ns : selfNs[std::size_t(l)])
        sum += ns;
    return sum;
}

std::uint64_t
LayerTotals::callSum(Layer l) const
{
    std::uint64_t sum = 0;
    for (std::uint64_t n : calls[std::size_t(l)])
        sum += n;
    return sum;
}

int
Ledger::open(Layer layer, std::uint8_t arch)
{
    int index = int(spans.size());
    spans.push_back(
        {curOp, stack.empty() ? -1 : stack.back(), layer, arch, 0, 0});
    stack.push_back(index);
    spans.back().start = hostNs();
    return index;
}

void
Ledger::close(int index)
{
    spans[index].end = hostNs();
    stack.pop_back();
}

void
Ledger::beginOp(std::uint32_t id)
{
    if (recording) {
        curOp = id;
        open(Layer::Op, 0);
    }
}

void
Ledger::endOp()
{
    if (recording)
        close(stack.back());
}

void
Ledger::instrument(Kernel &kernel, std::uint8_t arch)
{
    kernel.machine.setFaultHandler(
        [this, &kernel, arch](mach::CpuId cpu, VmOffset va,
                              mach::FaultType type) {
            Task *task = kernel.currentTask(cpu);
            if (!task)
                return KernReturn::InvalidAddress;
            kernel.machine.setCurrentCpu(cpu);
            if (!recording)
                return kernel.vm->fault(task->map(), va, type);
            const mach::VmStatistics &st = kernel.vm->stats;
            std::uint64_t zero = st.zeroFillCount, cow = st.cowFaults,
                          pagein = st.pageins;
            int index = open(Layer::FaultOther, arch);
            KernReturn kr = kernel.vm->fault(task->map(), va, type);
            close(index);
            spans[index].layer = st.pageins != pagein ? Layer::FaultPagein
                                 : st.cowFaults != cow ? Layer::FaultCow
                                 : st.zeroFillCount != zero
                                     ? Layer::FaultZeroFill
                                     : Layer::FaultOther;
            return kr;
        });
}

std::vector<std::int64_t>
Ledger::selfNs() const
{
    std::vector<SpanTimes> times;
    times.reserve(spans.size());
    for (const Span &s : spans)
        times.push_back({s.parent, s.start, s.end});
    return selfTimes(times);
}

LayerTotals
Ledger::totals() const
{
    std::vector<std::int64_t> self = selfNs();
    LayerTotals t;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t l = std::size_t(spans[i].layer);
        t.selfNs[l][spans[i].arch] += self[i];
        t.calls[l][spans[i].arch] += 1;
    }
    return t;
}

bool
Ledger::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<std::int64_t> self = selfNs();
    std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    std::fprintf(f, "op,span,parent,layer,arch,start_ns,end_ns,self_ns\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f, "%u,%zu,%d,%s,%s,%lld,%lld,%lld\n", s.op, i,
                     s.parent, layerName(s.layer), kArchNames[s.arch],
                     (long long)(s.start - t0), (long long)(s.end - t0),
                     (long long)self[i]);
    }
    return std::fclose(f) == 0;
}

void
Ledger::clear()
{
    spans.clear();
    stack.clear();
}

SimCounters
SimCounters::capture(Kernel &k)
{
    SimCounters c;
    auto &v = c.v;
    const mach::VmStatistics &st = k.vm->stats;
    const mach::PmapSystem &pm = *k.pmaps;
    auto snap = k.vm->metricsSnapshot();
    v[SimNs] = k.now();
    v[Faults] = st.faults;
    v[ZeroFills] = st.zeroFillCount;
    v[CowFaults] = st.cowFaults;
    v[Pageins] = st.pageins;
    v[Pageouts] = st.pageouts;
    v[Reactivations] = st.reactivations;
    v[Collapses] = st.objectCollapses;
    v[Bypasses] = st.objectBypasses;
    v[Lookups] = st.lookups;
    v[LookupHits] = st.hits;
    v[IoErrors] = st.ioErrors;
    v[Ipis] = k.machine.ipiCount();
    v[ShootdownIpis] = pm.shootdownIpis;
    v[ShootdownRounds] = snap.counterValue("tlb.shootdown_rounds");
    v[Coalesced] = pm.shootdownsCoalesced;
    v[LazySkips] = pm.lazySkips;
    v[DeferredFlushes] = pm.deferredFlushes;
    v[PageoutPasses] = snap.counterValue("pageout.passes");
    v[PageoutScanned] = snap.counterValue("pageout.pages_scanned");
    v[PageoutReclaimed] = snap.counterValue("pageout.pages_reclaimed");
    v[PageoutLaundered] = snap.counterValue("pageout.pages_laundered");
    v[FsReadOps] = k.disk.readOps();
    v[FsWriteOps] = k.disk.writeOps();
    v[FsBytes] = k.disk.bytesTransferred();
    v[SwapReadOps] = k.swapDisk.readOps();
    v[SwapWriteOps] = k.swapDisk.writeOps();
    v[SwapBytes] = k.swapDisk.bytesTransferred();
    v[TlbHits] = k.machine.tlbHits();
    v[TlbMisses] = k.machine.tlbMisses();
    for (std::size_t i = 0; i < mach::SimClock::numKinds; ++i)
        v[KindNs + i] = k.machine.clock().kindTotal(mach::CostKind(i));
    v[ZonePageHw] = snap.counterValue("zone.vm_page.high_water");
    v[ZoneEntryHw] = snap.counterValue("zone.map_entry.high_water");
    v[ZoneRadixHw] = snap.counterValue("zone.radix_node.high_water");
    return c;
}

SimCounters
SimCounters::since(const SimCounters &before) const
{
    SimCounters d = *this;
    for (unsigned i = 0; i < KindNs + mach::SimClock::numKinds; ++i)
        d.v[i] -= before.v[i];
    return d;
}

SimCounters &
SimCounters::operator+=(const SimCounters &o)
{
    for (unsigned i = 0; i < Count; ++i)
        v[i] += o.v[i];
    return *this;
}

std::string
SimCounters::name(unsigned i)
{
    static const char *const names[KindNs] = {
        "sim_ns", "vm.faults", "vm.zero_fills", "vm.cow_faults",
        "vm.pageins", "vm.pageouts", "vm.reactivations",
        "vm.object_collapses", "vm.object_bypasses", "vm.lookups",
        "vm.lookup_hits", "io.errors", "machine.ipis",
        "tlb.shootdown_ipis", "tlb.shootdown_rounds",
        "tlb.shootdowns_coalesced", "tlb.lazy_skips",
        "tlb.deferred_flushes", "pageout.passes", "pageout.scanned",
        "pageout.reclaimed", "pageout.laundered", "disk.fs.read_ops",
        "disk.fs.write_ops", "disk.fs.bytes", "disk.swap.read_ops",
        "disk.swap.write_ops", "disk.swap.bytes", "hw.tlb_hits",
        "hw.tlb_misses"};
    if (i < KindNs)
        return names[i];
    if (i < ZonePageHw) {
        std::string kind = mach::costKindName(mach::CostKind(i - KindNs));
        std::replace(kind.begin(), kind.end(), '-', '_');
        return "sim." + kind + "_ns";
    }
    switch (i) {
      case ZonePageHw: return "zone.vm_page.high_water";
      case ZoneEntryHw: return "zone.map_entry.high_water";
      case ZoneRadixHw: return "zone.radix_node.high_water";
    }
    return "?";
}

Kernel &
Workload::boot(const mach::MachineSpec &spec, const mach::KernelConfig &cfg,
               std::uint8_t arch)
{
    kernels.push_back({std::make_unique<Kernel>(spec, cfg), arch});
    Kernel &k = *kernels.back().kernel;
    if (ledger.traced)
        ledger.instrument(k, arch);
    return k;
}

void
Workload::issue(Kernel &kernel, std::uint8_t arch, Task &task,
                std::vector<Access> &batch)
{
    ledger.timed(
        Layer::HwAccess,
        [&] {
            for (Access &a : batch) {
                a.kr = a.write
                           ? kernel.taskWrite(task, a.va, &a.value, 8)
                           : kernel.taskRead(task, a.va, &a.value, 8);
            }
        },
        arch);
    accesses[arch] += batch.size();
}

/** Every object reachable from @p tasks' maps, through sharing maps
 *  and down shadow chains, deduplicated. */
static std::vector<mach::VmObject *>
reachableObjects(const std::vector<Task *> &tasks)
{
    std::vector<mach::VmObject *> objs;
    std::vector<const mach::VmMap *> maps;
    for (Task *t : tasks)
        maps.push_back(&t->map());
    for (std::size_t i = 0; i < maps.size(); ++i) {
        for (const mach::VmMapEntry &e : maps[i]->entryList()) {
            if (e.submap) {
                if (std::find(maps.begin(), maps.end(), e.submap) ==
                    maps.end())
                    maps.push_back(e.submap);
                continue;
            }
            for (mach::VmObject *o = e.object; o; o = o->shadowObject()) {
                if (std::find(objs.begin(), objs.end(), o) != objs.end())
                    break;
                objs.push_back(o);
            }
        }
    }
    return objs;
}

std::uint64_t
residentRecountDiff(Kernel &kernel, const std::vector<Task *> &tasks)
{
    // Walk each object's page list, look every page up again through
    // the indexed path, and check the object's residentCount against
    // the list it summarizes.
    std::uint64_t diff = 0;
    for (mach::VmObject *obj : reachableObjects(tasks)) {
        std::uint64_t listed = 0;
        for (const mach::VmPage *p : obj->pages) {
            ++listed;
            if (kernel.vm->resident.lookup(obj, p->offset) != p)
                ++diff;
        }
        if (listed != obj->residentCount)
            ++diff;
    }
    return diff;
}

unsigned
maxChain(const std::vector<Task *> &tasks)
{
    unsigned longest = 0;
    for (Task *t : tasks) {
        for (const mach::VmMapEntry &e : t->map().entryList()) {
            if (e.object)
                longest = std::max(longest, e.object->chainLength());
        }
    }
    return longest;
}

} // namespace perfbench
