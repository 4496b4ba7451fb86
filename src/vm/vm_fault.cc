/**
 * @file
 * The machine-independent page fault handler.
 *
 * Everything the paper's design depends on converges here: the
 * address map lookup (with needs-copy shadow creation), the shadow
 * chain walk, pagein through the memory object's pager, zero fill,
 * copy-on-write page copies, and finally pmap_enter to install the
 * hardware mapping.  The pmap layer may have discarded any mapping at
 * any time; this path can always rebuild it from machine-independent
 * state alone.
 */

#include <algorithm>

#include "base/logging.hh"
#include "pager/pager.hh"
#include "sim/fault_inject.hh"
#include "sim/metrics.hh"
#include "sim/trace.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"

namespace mach
{

KernReturn
VmSys::fault(VmMap &map, VmOffset va, FaultType type, VmPage **out_page)
{
    const CostModel &costs = machine.spec.costs;
    machine.clock().charge(CostKind::FaultTrap, costs.faultTrap);
    machine.clock().charge(CostKind::Software, costs.faultSoftware);
    ++stats.faults;

    VmOffset page_va = pageTrunc(va);

    // One hoisted test covers every emission below.  VmSys attaches
    // its registry at construction, so this is true unless the
    // registry was detached (setIntrospectionEnabled(false)) and no
    // sink is attached; then the whole block is one branch.
    const bool introspecting =
        machine.clock().traceSink() != nullptr ||
        machine.clock().metricsRegistry() != nullptr;

    if (introspecting) {
        traceEmit(machine.clock(), TraceEventType::FaultBegin,
                  static_cast<std::uint8_t>(type), page_va, 0);
    }
    SimStopwatch faultWatch(machine.clock());
    TraceFaultKind resolution = TraceFaultKind::Resident;
    VmObject *res_object = nullptr;  //!< object that satisfied it
    auto faultDone = [&]() {
        if (!introspecting)
            return;
        metricLatency(machine.clock(), metric::faultNs,
                      faultWatch.elapsed());
        traceEmit(machine.clock(), TraceEventType::FaultEnd,
                  static_cast<std::uint8_t>(resolution), page_va,
                  faultWatch.elapsed(),
                  res_object ? res_object->id : 0);
        // Attribute the fault to the faulting task (its map) and to
        // the object it was resolved in.
        acctFault(machine.clock(), &map.acct, resolution);
        if (res_object)
            acctFault(machine.clock(), &res_object->acct, resolution);
    };

    // NS32082 chip-bug workaround (paper section 5.1): the hardware
    // reports read-modify-write faults as read faults.  If a "read"
    // fault arrives for an address the pmap already maps (so a real
    // read could not have faulted), it must have been a blocked
    // write.
    if (type == FaultType::Read && machine.spec.rmwFaultBug &&
        map.getPmap() && map.getPmap()->access(va)) {
        type = FaultType::Write;
    }

    VmMap::LookupResult lr;
    KernReturn kr = map.lookup(page_va, type, lr);
    if (kr != KernReturn::Success) {
        resolution = TraceFaultKind::Failed;
        faultDone();
        return kr;
    }

    VmObject *first_object = lr.object;
    VmOffset first_offset = pageTrunc(lr.offset);

    // Walk the shadow chain looking for the page (section 3.4):
    // "when the system tries to find a page in a shadow object, and
    // fails to find it, it proceeds to follow this list of objects."
    VmObject *object = first_object;
    VmOffset offset = first_offset;
    VmPage *page = nullptr;

    while (true) {
        // pager_data_lock (Table 3-2): access to locked data must
        // wait; ask the pager to unlock (pager_data_unlock) and
        // re-check.  The pager may take several exchanges.
        if (object->pager) {
            unsigned spins = 0;
            while (protIncludes(object->lockOf(offset),
                                faultProt(type))) {
                if (++spins > 100) {
                    panic("pager never unlocked object data at "
                          "offset %#llx", (unsigned long long)offset);
                }
                machine.clock().charge(CostKind::Ipc, costs.msgOp);
                object->pager->dataUnlock(object, offset,
                                          faultProt(type));
            }
        }

        page = resident.lookup(object, offset);
        if (page) {
            // The page may be busy (being filled by another fault or
            // written by the pageout daemon) or absent (allocated,
            // data not yet arrived).  Wait for the holder to finish —
            // each wait charges a timer tick — and re-check; the page
            // can be freed while we sleep, restarting the walk.
            unsigned waits = 0;
            while (page && (page->busy || page->absent)) {
                if (waits++ >= busyWaitLimit) {
                    // The holder never finished (a wedged pager); do
                    // not crash the kernel on its behalf.
                    resolution = TraceFaultKind::Error;
                    res_object = object;
                    faultDone();
                    return KernReturn::MemoryError;
                }
                ++stats.busyPageWaits;
                machine.timerTick();
                page = resident.lookup(object, offset);
            }
            if (page)
                break;
            continue;  // page vanished: retry this object
        }

        if (object->pager &&
            object->pager->hasData(object, offset)) {
            // Pagein: ask the managing task (pager) for the data.
            page = allocPage(object, offset);
            page->busy = true;
            ++object->pagingInProgress;
            PagerResult pr =
                pagerRequest(object, offset, page, faultProt(type));
            --object->pagingInProgress;
            page->busy = false;
            if (pr == PagerResult::Ok) {
                ++stats.pageins;
                resolution = TraceFaultKind::Pagein;
            } else if (pr == PagerResult::Unavailable) {
                // pager_data_unavailable: zero fill.
                pmaps.zeroPage(page->physAddr);
                ++stats.zeroFillCount;
                resolution = TraceFaultKind::ZeroFill;
            } else {
                // Backing store failed hard (PermanentError, or a
                // retryable error that outlived the retry budget).
                // Free the never-filled page and report the fault to
                // the thread instead of crashing the kernel.
                freePage(page);
                ++stats.pageinFailures;
                resolution = TraceFaultKind::Error;
                res_object = object;
                faultDone();
                return KernReturn::MemoryError;
            }
            break;
        }

        if (object->shadow) {
            // Each link costs a lock + hash probe; this is the cost
            // the collapse machinery of section 3.5 exists to bound.
            machine.clock().charge(CostKind::Software,
                                   costs.pageQueueOp);
            offset += object->shadowOffset;
            object = object->shadow;
            continue;
        }

        // End of the chain with no data anywhere: zero fill,
        // directly in the object the fault started in.
        page = allocPage(first_object, first_offset);
        pmaps.zeroPage(page->physAddr);
        ++stats.zeroFillCount;
        resolution = TraceFaultKind::ZeroFill;
        object = first_object;
        offset = first_offset;
        break;
    }

    VmProt enter_prot = lr.prot;

    if (object != first_object) {
        // The page was found down the chain.
        if (type == FaultType::Write) {
            // Copy-on-write: allocate a page in the first object and
            // copy the data; the shadow "collects and remembers"
            // the modified page (section 3.4).  The source page is
            // marked busy so the allocation's potential pageout scan
            // cannot evict it out from under the copy.
            page->busy = true;
            VmPage *copy = allocPage(first_object, first_offset);
            page->busy = false;
            pmaps.copyPage(page->physAddr, copy->physAddr);
            // The source may still be mapped read-only elsewhere.
            resident.activate(page);
            page = copy;
            page->dirty = true;
            ++stats.cowFaults;
            resolution = TraceFaultKind::Cow;
            object = first_object;
            // The write may have made an intermediate shadow
            // garbage; try to collapse the chain (section 3.5).
            if (collapseEnabled)
                first_object->collapse();
        } else {
            // Enter backing data read-only so the first write
            // faults and gets copied.
            enter_prot = enter_prot & ~VmProt::Write;
        }
    }

    if (lr.cowReadOnly && type != FaultType::Write)
        enter_prot = enter_prot & ~VmProt::Write;

    // pager_data_lock: accesses still locked (we only waited for the
    // faulting access) must not be granted by the new mapping.
    enter_prot = enter_prot & ~object->lockOf(offset);

    if (type == FaultType::Write)
        page->dirty = true;

    if (page->queue == PageQueue::Inactive)
        ++stats.reactivations;

    Pmap *pm = map.getPmap();
    MACH_ASSERT(pm != nullptr);
    pm->enter(page_va, page->physAddr, enter_prot, lr.wired);

    if (lr.wired) {
        if (page->wireCount == 0)
            resident.wire(page);
    } else {
        resident.activate(page);
    }

    if (out_page)
        *out_page = page;
    res_object = object;
    faultDone();
    return KernReturn::Success;
}

KernReturn
VmSys::wireRange(VmMap &map, VmOffset start, VmOffset end)
{
    start = pageTrunc(start);
    end = pageRound(end);
    KernReturn kr = map.setPageable(start, end - start, false);
    if (kr != KernReturn::Success)
        return kr;
    for (VmOffset va = start; va < end; va += pageSize()) {
        // Fault with the strongest access the entry allows so the
        // wired mapping never needs to change.
        VmMap::LookupResult lr;
        kr = map.lookup(va, FaultType::Read, lr);
        if (kr == KernReturn::Success) {
            FaultType ft = protIncludes(lr.prot, VmProt::Write)
                ? FaultType::Write : FaultType::Read;
            kr = fault(map, va, ft);
        }
        if (kr != KernReturn::Success) {
            // A mid-range failure must not leave the front of the
            // range wired: undo the wiredCount bump on every entry
            // and unwire the pages already faulted in.
            map.setPageable(start, end - start, true);
            return kr;
        }
    }
    return KernReturn::Success;
}

SimTime
VmSys::retryBackoff(unsigned attempt) const
{
    SimTime backoff = retryBackoffBase;
    for (unsigned i = 1; i < attempt; ++i) {
        if (backoff >= retryBackoffCap / 2)
            return retryBackoffCap;
        backoff <<= 1;
    }
    return std::min(backoff, retryBackoffCap);
}

PagerResult
VmSys::pagerRequest(VmObject *object, VmOffset offset, VmPage *page,
                    VmProt prot)
{
    const CostModel &costs = machine.spec.costs;
    for (unsigned attempt = 1; ; ++attempt) {
        traceEmit(machine.clock(), TraceEventType::PagerIn,
                  static_cast<std::uint8_t>(object->pager->kind()),
                  offset, object->id);
        machine.clock().charge(CostKind::Ipc, costs.msgOp);
        PagerResult pr =
            object->pager->dataRequest(object, offset, page, prot);
        machine.clock().charge(CostKind::Ipc, costs.msgOp);
        if (pr == PagerResult::Ok || pr == PagerResult::Unavailable) {
            if (attempt > 1) {
                ++stats.transientRecoveries;
                traceEmit(machine.clock(),
                          TraceEventType::IoRecovered,
                          static_cast<std::uint8_t>(FaultOp::PagerIn),
                          offset, attempt);
            }
            return pr;
        }
        ++stats.ioErrors;
        if (!pagerResultIsRetryable(pr) || attempt >= pageinRetryLimit)
            return pr;
        // Back off in simulated time before asking again.
        SimTime backoff = retryBackoff(attempt);
        machine.clock().charge(CostKind::Software, backoff);
        ++stats.pageinRetries;
        traceEmit(machine.clock(), TraceEventType::IoRetry,
                  static_cast<std::uint8_t>(FaultOp::PagerIn), offset,
                  backoff);
    }
}

PagerResult
VmSys::pagerWrite(VmObject *object, VmPage *page, bool charge_msg)
{
    const CostModel &costs = machine.spec.costs;
    for (unsigned attempt = 1; ; ++attempt) {
        traceEmit(machine.clock(), TraceEventType::PagerOut,
                  static_cast<std::uint8_t>(object->pager->kind()),
                  page->offset, object->id);
        if (charge_msg)
            machine.clock().charge(CostKind::Ipc, costs.msgOp);
        PagerResult pr =
            object->pager->dataWrite(object, page->offset, page);
        if (charge_msg)
            machine.clock().charge(CostKind::Ipc, costs.msgOp);
        if (pr == PagerResult::Ok) {
            if (attempt > 1) {
                ++stats.transientRecoveries;
                traceEmit(machine.clock(),
                          TraceEventType::IoRecovered,
                          static_cast<std::uint8_t>(FaultOp::PagerOut),
                          page->offset, attempt);
            }
            return pr;
        }
        ++stats.ioErrors;
        if (!pagerResultIsRetryable(pr) || attempt >= pageoutRetryLimit)
            return pr;
        SimTime backoff = retryBackoff(attempt);
        machine.clock().charge(CostKind::Software, backoff);
        ++stats.pageoutRetries;
        traceEmit(machine.clock(), TraceEventType::IoRetry,
                  static_cast<std::uint8_t>(FaultOp::PagerOut),
                  page->offset, backoff);
    }
}

VmPage *
VmSys::objectPage(VmObject *object, VmOffset offset, bool for_write,
                  bool overwrite, KernReturn *kr_out)
{
    const CostModel &costs = machine.spec.costs;
    if (kr_out)
        *kr_out = KernReturn::Success;
    offset = pageTrunc(offset);
    VmPage *page = resident.lookup(object, offset);
    if (!page) {
        machine.clock().charge(CostKind::FaultTrap, costs.faultTrap);
        machine.clock().charge(CostKind::Software, costs.faultSoftware);
        ++stats.faults;
        traceEmit(machine.clock(), TraceEventType::FaultBegin,
                  static_cast<std::uint8_t>(for_write
                                                ? FaultType::Write
                                                : FaultType::Read),
                  offset, 0);
        SimStopwatch watch(machine.clock());
        page = allocPage(object, offset);
        bool provided = false;
        // A whole-page overwrite never needs the old contents.
        if (!overwrite && object->pager &&
            object->pager->hasData(object, offset)) {
            ++object->pagingInProgress;
            PagerResult pr = pagerRequest(
                object, offset, page,
                for_write ? VmProt::Default : VmProt::Read);
            --object->pagingInProgress;
            if (pr == PagerResult::Ok) {
                provided = true;
                ++stats.pageins;
            } else if (pr != PagerResult::Unavailable) {
                // Hard pagein failure: release the never-filled page
                // and report the error to the caller.
                freePage(page);
                ++stats.pageinFailures;
                metricLatency(machine.clock(), metric::faultNs,
                              watch.elapsed());
                traceEmit(machine.clock(), TraceEventType::FaultEnd,
                          static_cast<std::uint8_t>(
                              TraceFaultKind::Error),
                          offset, watch.elapsed(), object->id);
                acctFault(machine.clock(), &object->acct,
                          TraceFaultKind::Error);
                if (kr_out)
                    *kr_out = KernReturn::MemoryError;
                return nullptr;
            }
        }
        if (!provided) {
            pmaps.zeroPage(page->physAddr);
            ++stats.zeroFillCount;
        }
        metricLatency(machine.clock(), metric::faultNs,
                      watch.elapsed());
        traceEmit(machine.clock(), TraceEventType::FaultEnd,
                  static_cast<std::uint8_t>(
                      provided ? TraceFaultKind::Pagein
                               : TraceFaultKind::ZeroFill),
                  offset, watch.elapsed(), object->id);
        acctFault(machine.clock(), &object->acct,
                  provided ? TraceFaultKind::Pagein
                           : TraceFaultKind::ZeroFill);
    }
    if (for_write)
        page->dirty = true;
    resident.activate(page);
    return page;
}

void
VmSys::freePage(VmPage *page)
{
    pmaps.resetAttrs(page->physAddr);
    resident.free(page);
}

} // namespace mach
