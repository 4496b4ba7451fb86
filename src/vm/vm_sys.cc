#include "vm/vm_sys.hh"

#include <algorithm>

#include "base/logging.hh"
#include "vm/vm_object.hh"

namespace mach
{

VmSys::VmSys(Machine &machine, PmapSystem &pmaps, VmSize mach_page_size)
    : machine(machine), pmaps(pmaps),
      resident(machine, mach_page_size)
{
    MACH_ASSERT(pmaps.machPageSize() == mach_page_size);
    // Keep ~2% of memory free, start reclaiming at 1%.
    freeMin = std::max<std::size_t>(4, resident.totalPages() / 100);
    freeTarget = std::max<std::size_t>(8, resident.totalPages() / 50);

    // Name every counter field: this list is the one list of names.
    metrics.bind("vm.faults", &stats.faults);
    metrics.bind("vm.zero_fills", &stats.zeroFillCount);
    metrics.bind("vm.cow_faults", &stats.cowFaults);
    metrics.bind("vm.pageins", &stats.pageins);
    metrics.bind("vm.pageouts", &stats.pageouts);
    metrics.bind("vm.reactivations", &stats.reactivations);
    metrics.bind("vm.lookups", &stats.lookups);
    metrics.bind("vm.lookup_hits", &stats.hits);
    metrics.bind("vm.objects_created", &stats.objectsCreated);
    metrics.bind("vm.objects_cached", &stats.objectsCached);
    metrics.bind("vm.object_collapses", &stats.objectCollapses);
    metrics.bind("vm.object_bypasses", &stats.objectBypasses);
    metrics.bind("vm.busy_page_waits", &stats.busyPageWaits);
    metrics.bind("io.errors", &stats.ioErrors);
    metrics.bind("io.pagein_failures", &stats.pageinFailures);
    metrics.bind("io.pagein_retries", &stats.pageinRetries);
    metrics.bind("io.pageout_retries", &stats.pageoutRetries);
    metrics.bind("io.transient_recoveries", &stats.transientRecoveries);
    metrics.bind("tlb.shootdown_rounds", &pmaps.shootdownRoundSeq);
    metrics.bind("tlb.shootdown_ipis", &pmaps.shootdownIpis);
    metrics.bind("tlb.deferred_flushes", &pmaps.deferredFlushes);
    metrics.bind("tlb.lazy_skips", &pmaps.lazySkips);
    metrics.bind("tlb.shootdowns_coalesced",
                 &pmaps.shootdownsCoalesced);
    metrics.bind("tlb.batched_ipis", &pmaps.batchedIpis);
    metrics.bind("tlb.batch_ranges_merged", &pmaps.batchRangesMerged);
    metrics.bind("tlb.batch_flushes", &pmaps.batchFlushes);

    metrics.bind("zone.vm_page.chunks", &resident.pageZone.chunks);
    metrics.bind("zone.vm_page.high_water",
                 &resident.pageZone.highWater);
    metrics.bind("zone.map_entry.chunks", &mapEntryZone.chunks);
    metrics.bind("zone.map_entry.high_water", &mapEntryZone.highWater);
    metrics.bind("zone.radix_node.chunks", &radixZone.chunks);
    metrics.bind("zone.radix_node.high_water", &radixZone.highWater);

    metrics.bind("pageout.wakeups", &pageoutStats.wakeups);
    metrics.bind("pageout.passes", &pageoutStats.passes);
    metrics.bind("pageout.pages_scanned", &pageoutStats.scanned);
    metrics.bind("pageout.pages_reclaimed", &pageoutStats.reclaimed);
    metrics.bind("pageout.pages_laundered", &pageoutStats.laundered);

    machine.clock().setMetricsRegistry(&metrics);
}

VmSys::~VmSys()
{
    machine.clock().setMetricsRegistry(nullptr);
    // Reclaim objects still sitting in the cache.  Their pagers may
    // already be gone (the kernel writes dirty data back with
    // flushCache() in its own destructor, while pagers and disks
    // are alive), so drop the data without calling back into them.
    while (!cacheList.empty()) {
        VmObject *victim = cacheList.front();
        cacheList.pop_front();
        victim->cached = false;
        if (victim->pager) {
            pagerIndex.erase(victim->pager);
            victim->pager = nullptr;
        }
        victim->terminate();
    }
}

VmPage *
VmSys::allocPage(VmObject *object, VmOffset offset)
{
    if (resident.freeCount() <= freeMin)
        pageoutScan();
    VmPage *page = resident.alloc(object, offset);
    if (!page) {
        pageoutScan();
        page = resident.alloc(object, offset);
    }
    if (!page)
        panic("out of physical memory: nothing left to reclaim");
    return page;
}

void
VmSys::cacheObject(VmObject *object)
{
    MACH_ASSERT(object->refCount == 0 && !object->cached);
    object->cached = true;
    cacheList.push_back(object);
}

VmObject *
VmSys::objectForPager(Pager *pager)
{
    auto it = pagerIndex.find(pager);
    return it == pagerIndex.end() ? nullptr : it->second;
}

void
VmSys::uncacheObject(VmObject *object)
{
    MACH_ASSERT(object->cached);
    auto it = std::find(cacheList.begin(), cacheList.end(), object);
    MACH_ASSERT(it != cacheList.end());
    cacheList.erase(it);
    object->cached = false;
}

std::size_t
VmSys::cachedPageCount() const
{
    std::size_t n = 0;
    for (const VmObject *o : cacheList)
        n += o->residentCount;
    return n;
}

void
VmSys::trimCache()
{
    auto overLimit = [this]() {
        if (objectCacheLimit && cacheList.size() > objectCacheLimit)
            return true;
        if (cachedPageLimit && cachedPageCount() > cachedPageLimit)
            return true;
        return false;
    };
    while (!cacheList.empty() && overLimit()) {
        VmObject *victim = cacheList.front();
        cacheList.pop_front();
        victim->cached = false;
        victim->terminate();
    }
}

void
VmSys::flushCache()
{
    while (!cacheList.empty()) {
        VmObject *victim = cacheList.front();
        cacheList.pop_front();
        victim->cached = false;
        victim->terminate();
    }
}

VmStatistics
VmSys::statistics() const
{
    VmStatistics st = stats;
    resident.fillStatistics(st);
    return st;
}

void
VmSys::chargeSoftware(SimTime ns)
{
    machine.clock().charge(CostKind::Software, ns);
}

} // namespace mach
