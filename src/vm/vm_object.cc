#include "vm/vm_object.hh"

#include "base/logging.hh"
#include "pager/pager.hh"

namespace mach
{

VmObject::VmObject(VmSys &sys, VmSize size)
    : sys(sys), size(size), id(sys.nextObjectId++),
      pageIndex(sys.radixZone)
{
    ++sys.liveObjects;
    ++sys.stats.objectsCreated;
}

VmObject::~VmObject()
{
#ifdef MACHVM_SANITIZE_BUILD
    // Every destruction path (terminate, collapse merge) must have
    // reconciled the page locks; a leftover entry means a stale
    // offset survived its data.
    MACH_ASSERT(pageLocks.empty());
#endif
    MACH_ASSERT(pageIndex.empty());
    --sys.liveObjects;
}

VmObject *
VmObject::allocate(VmSys &sys, VmSize size)
{
    sys.chargeSoftware(sys.machine.spec.costs.pageQueueOp);
    return new VmObject(sys, sys.pageRound(size));
}

VmObject *
VmObject::allocateWithPager(VmSys &sys, VmSize size, Pager *pager,
                            VmOffset pager_offset, bool can_persist)
{
    if (VmObject *existing = sys.objectForPager(pager)) {
        ++sys.stats.objectsCached;
        existing->reference();
        return existing;
    }
    VmObject *obj = allocate(sys, size);
    obj->pager = pager;
    obj->pagerOffset = pager_offset;
    obj->internal = false;
    obj->temporary = false;
    obj->canPersist = can_persist;
    if (pager) {
        sys.pagerIndex[pager] = obj;
        pager->init(obj);
        obj->pagerInitialized = true;
    }
    return obj;
}

void
VmObject::reference()
{
    MACH_ASSERT(alive);
    if (cached)
        sys.uncacheObject(this);
    ++refCount;
}

void
VmObject::deallocate()
{
    MACH_ASSERT(alive && refCount > 0);
    if (--refCount > 0)
        return;

    // Retain frequently used objects (paper section 3.3): if the
    // pager asked for persistence, keep pages and mappings cached so
    // reuse is inexpensive.
    if (canPersist && pager) {
        sys.cacheObject(this);
        sys.trimCache();
        return;
    }
    terminate();
}

void
VmObject::terminate()
{
    MACH_ASSERT(alive);
    alive = false;
    destroyPages();
    // The locks die with the data they guarded.
    pageLocks.clear();
    if (pager) {
        sys.pagerIndex.erase(pager);
        pager->terminate(this);
        pager = nullptr;
    }
    VmObject *backing = shadow;
    shadow = nullptr;
    delete this;
    // Dropping our backing reference may cascade.
    if (backing)
        backing->deallocate();
}

void
VmObject::destroyPages()
{
    // Drop all hardware mappings first, in one coalesced shootdown
    // round.  The batch closes — the flush lands — before any frame
    // below is freed, preserving the flush-before-reuse invariant.
    {
        PmapBatch batch(sys.pmaps);
        for (VmPage *page : pages)
            sys.pmaps.removeAll(page->physAddr, ShootdownMode::Immediate);
    }
    while (VmPage *page = pages.front()) {
        // Page entries come off a list that cycles the whole machine;
        // overlap the next entry's cache miss with this one's work.
        __builtin_prefetch(pages.next(page));
        // Permanent (file-backed) data must reach its pager before
        // the frame goes away.
        if (pager && !temporary &&
            (page->dirty || sys.pmaps.isModified(page->physAddr))) {
            if (sys.pagerWrite(this, page, false) == PagerResult::Ok)
                ++sys.stats.pageouts;
            // On failure the data is lost with the object — nothing
            // left to retry against — but the loss is counted
            // (ioErrors) and traced by pagerWrite.
        }
        // Object death unwires; go through the resident table so the
        // wired-page count stays consistent with the queues.
        while (page->wireCount > 0)
            sys.resident.unwire(page);
        sys.freePage(page);
    }
}

VmPage *
VmObject::pageAt(VmOffset offset)
{
    return sys.resident.lookup(this, sys.pageTrunc(offset));
}

void
VmObject::makeShadow(VmObject *&object, VmOffset &offset, VmSize length)
{
    MACH_ASSERT(object != nullptr);
    VmSys &sys = object->sys;
    VmObject *result = allocate(sys, length);
    result->shadow = object;  // consumes the caller's reference
    result->shadowOffset = offset;
    object = result;
    offset = 0;
}

unsigned
VmObject::chainLength() const
{
    unsigned n = 0;
    for (const VmObject *o = shadow; o; o = o->shadow)
        ++n;
    return n;
}

bool
VmObject::canCollapseBacking(const VmObject &backing) const
{
    // The backing object can be merged into us only if we hold the
    // sole reference, it is kernel-internal, it has no pager (its
    // only data is resident), and no paging operation is in flight.
    // Under heavy paging a shadow acquires a default pager and the
    // chain "cannot always be detected on the basis of in memory
    // data structures alone" (section 3.5) — we skip it then.
    return backing.refCount == 1 && backing.internal &&
        backing.pager == nullptr && backing.pagingInProgress == 0;
}

void
VmObject::collapse()
{
    // Walk down the chain: at each level, try to merge or bypass
    // that object's backing object.  Merging a sole-referenced
    // backing into its shadower preserves every referencer's view
    // (the combined contents are unchanged), so it is safe at any
    // depth — which is what keeps the fork-lineage chains of
    // section 3.5 bounded even when the collapse opportunity only
    // appears after an intermediate task has exited.
    VmObject *object = this;
    while (object && object->shadow) {
        VmObject *backing = object->shadow;
        if (object->pagingInProgress > 0)
            return;

        if (object->canCollapseBacking(*backing)) {
            // Merge: move the useful pages of the backing object up
            // into this object, then splice it out of the chain.
            {
                // Coalesce the invisible pages' shootdowns; closed
                // before the splice so flushes precede frame reuse.
                // Drain head-first: rename and freePage each unlink
                // the head, so pages leave in list order.
                PmapBatch batch(sys.pmaps);
                while (VmPage *p = backing->pages.front()) {
                    bool useful = p->offset >= object->shadowOffset &&
                        p->offset - object->shadowOffset < object->size;
                    VmOffset new_off = p->offset - object->shadowOffset;
                    if (useful && !object->pageAt(new_off)) {
                        sys.resident.rename(p, object, new_off);
                    } else {
                        sys.pmaps.removeAll(p->physAddr,
                                            ShootdownMode::Immediate);
                        sys.freePage(p);
                    }
                }
            }
            // Reconcile page locks: a lock on the backing object now
            // guards data served by this object, so adopt it through
            // the shadow window (existing locks here take priority);
            // locks outside the window die with the backing object.
            for (const auto &[off, prot] : backing->pageLocks) {
                if (off < object->shadowOffset ||
                    off - object->shadowOffset >= object->size)
                    continue;
                VmOffset new_off = off - object->shadowOffset;
                if (object->lockOf(new_off) == VmProt::None)
                    object->setLock(new_off, prot);
            }
            backing->pageLocks.clear();
            object->shadow = backing->shadow;  // adopt its reference
            object->shadowOffset += backing->shadowOffset;
            backing->shadow = nullptr;
            MACH_ASSERT(backing->residentCount == 0);
            backing->alive = false;
            ++sys.stats.objectCollapses;
            delete backing;
            continue;  // retry at the same level
        }

        // Bypass: if nothing in the backing object is visible
        // through this object's window, link past it.
        if (backing->pager == nullptr &&
            backing->pagingInProgress == 0) {
            bool contributes = false;
            for (VmPage *p : backing->pages) {
                if (p->offset < object->shadowOffset ||
                    p->offset - object->shadowOffset >= object->size)
                    continue;
                if (!object->pageAt(p->offset - object->shadowOffset)) {
                    contributes = true;
                    break;
                }
            }
            // A non-contributing backing object can be linked past:
            // whatever lies below it stays visible at the same
            // offsets because the shadow offsets compose.
            if (!contributes) {
                object->shadow = backing->shadow;
                if (backing->shadow)
                    backing->shadow->reference();
                object->shadowOffset += backing->shadowOffset;
                ++sys.stats.objectBypasses;
                backing->deallocate();  // drop our reference
                continue;
            }
        }

        // This level is stuck (shared, paged, or contributing
        // backing); the next level down may still be collapsible.
        object = object->shadow;
    }
}

} // namespace mach
