/**
 * @file
 * The pageout daemon (paper sections 3.1 and 5.2).
 *
 * Maintains the free/active/inactive allocation queues and pushes
 * dirty pages to their pagers when the free list runs low.  The
 * TLB-consistency sequence follows the paper's case 2 exactly: the
 * mapping is first removed from the primary memory mapping
 * structures, and pageout is initiated "only after all referencing
 * TLBs have been flushed" — modeled by queueing deferred flushes and
 * taking a timer tick before the page is written or reused.
 */

#include <algorithm>

#include "base/logging.hh"
#include "pager/pager.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"

namespace mach
{

void
VmSys::pageoutScan()
{
    // Hard bound on work per scan so a system with nothing
    // reclaimable (everything wired or unclean with no pager)
    // terminates.
    std::size_t budget = resident.totalPages() * 4 + 64;

    ++pageoutStats.passes;
    if (resident.freeCount() < freeTarget)
        ++pageoutStats.wakeups;
    traceEmit(machine.clock(), TraceEventType::PageoutBegin, 0,
              resident.freeCount(), freeTarget);
    std::uint64_t scanned = 0, reclaimed = 0, laundered = 0;

    while (resident.freeCount() < freeTarget && budget-- > 0) {
        // Keep the inactive queue stocked: move pages from the front
        // of the active queue, dropping their mappings so a
        // subsequent touch is observed as a fault (reference-bit
        // simulation, as on ref-bit-less hardware like the VAX).
        // The unmapping follows the pageout shootdown policy; with
        // the Deferred strategy the flush lands at the next tick,
        // which always precedes the page's reuse below.
        std::size_t pool =
            resident.activeCount() + resident.inactiveCount();
        std::size_t inactive_target =
            std::max<std::size_t>(freeTarget, pool / 3);
        {
            // One coalesced flush round covers the whole stocking
            // sweep; the batch closes (queueing the deferred flush)
            // before the tick-waiting below, so the flush still lands
            // at the first tick after deactivation.
            PmapBatch batch(pmaps);
            while (resident.inactiveCount() < inactive_target) {
                VmPage *p = resident.firstActive();
                if (!p)
                    break;
                pmaps.clearReference(p->physAddr, pmaps.policy.pageout);
                p->deactTick = machine.tickCount();
                resident.deactivate(p);
            }
        }

        VmPage *p = resident.firstInactive();
        if (!p)
            break;  // nothing left to reclaim
        ++scanned;

        // Paper case 2: a page's frame may not be reused until timer
        // interrupts have been taken since its mappings were removed.
        // The first tick runs the deferred TLB flush (before it,
        // stale entries make touches invisible); a second gives
        // users an observable window in which a re-touch faults and
        // reactivates the page.  If memory is critically short,
        // force the ticks now.
        while (machine.tickCount() <= p->deactTick + 1 &&
               resident.freeCount() == 0) {
            machine.timerTick();
        }
        if (machine.tickCount() <= p->deactTick + 1)
            break;  // wait for the clock; older pages are gone

        if (p->busy) {
            resident.activate(p);
            continue;
        }

        if (pmaps.isReferenced(p->physAddr)) {
            // Second chance, part 2: touched since deactivation.
            ++stats.reactivations;
            resident.activate(p);
            continue;
        }

        VmObject *object = p->object;
        bool dirty = p->dirty || pmaps.isModified(p->physAddr);

        if (dirty && !object) {
            resident.activate(p);
            continue;
        }
        if (dirty && !object->pager && !defaultPager) {
            // No way to clean it; keep it.
            resident.activate(p);
            continue;
        }

        // Safety: any mapping that reappeared is removed for good
        // (with the flush already behind us this is normally a
        // no-op).
        pmaps.removeAll(p->physAddr, ShootdownMode::Immediate);

        if (dirty) {
            std::uint64_t done = stats.pageouts;
            pageOut(p);
            if (stats.pageouts != done) {
                ++laundered;
                ++reclaimed;
            }
        } else {
            freePage(p);
            ++reclaimed;
        }
    }

    traceEmit(machine.clock(), TraceEventType::PageoutEnd, 0, scanned,
              reclaimed, laundered);
    pageoutStats.scanned += scanned;
    pageoutStats.reclaimed += reclaimed;
    pageoutStats.laundered += laundered;
}

void
VmSys::pageOut(VmPage *page)
{
    VmObject *object = page->object;
    MACH_ASSERT(object != nullptr);

    SimStopwatch watch(machine.clock());
    const PhysAddr pa = page->physAddr;

    if (!object->pager) {
        // Memory with no pager is sent to the default pager (the
        // inode pager in the paper; a swap pager here).
        MACH_ASSERT(defaultPager != nullptr);
        object->pager = defaultPager;
        object->pagerOffset = 0;
    }

    ++object->pagingInProgress;
    PagerResult pr = pagerWrite(object, page, true);
    --object->pagingInProgress;

    if (pr != PagerResult::Ok) {
        // The data never reached backing store; the only good copy
        // is the one in memory.  Keep the page dirty and put it back
        // on the active queue — a later scan (or object teardown)
        // will try again.
        page->dirty = true;
        resident.activate(page);
        metricLatency(machine.clock(), metric::pageoutNs,
                      watch.elapsed());
        return;
    }

    ++stats.pageouts;
    ++object->acct.pageouts;
    page->dirty = false;
    freePage(page);

    metricLatency(machine.clock(), metric::pageoutNs, watch.elapsed());
    traceEmit(machine.clock(), TraceEventType::Pageout, 0, pa,
              watch.elapsed(), object->id);
}

} // namespace mach
