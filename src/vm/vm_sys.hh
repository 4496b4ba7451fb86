/**
 * @file
 * VmSys: the machine-independent VM subsystem.
 *
 * Aggregates the resident page table, the memory object cache, the
 * pageout daemon state and the fault handler entry point.  Every
 * machine-independent structure (VmObject, VmMap) holds a reference
 * to its VmSys; the only machine-dependent state it touches is
 * reached through the PmapSystem interface.
 *
 * VmSys also owns the metrics registry.  Every VM and pmap counter
 * is a plain field (stats, pageoutStats, the PmapSystem statistics,
 * the zones) that the constructor binds once by name; the registry
 * itself owns only the latency histograms.
 */

#ifndef MACH_VM_VM_SYS_HH
#define MACH_VM_VM_SYS_HH

#include <cstdint>
#include <list>
#include <unordered_map>

#include "base/status.hh"
#include "base/types.hh"
#include "base/zone.hh"
#include "hw/machine.hh"
#include "pmap/pmap.hh"
#include "sim/metrics.hh"
#include "vm/vm_page.hh"

namespace mach
{

class VmObject;
class VmMap;
class Pager;

/** The machine-independent virtual memory system. */
class VmSys
{
  public:
    /**
     * @param machine the simulated hardware
     * @param pmaps the machine-dependent module (already init()ed
     *        with the same Mach page size)
     * @param mach_page_size boot-time page size (power-of-two
     *        multiple of the hardware page size)
     */
    VmSys(Machine &machine, PmapSystem &pmaps, VmSize mach_page_size);
    ~VmSys();

    VmSys(const VmSys &) = delete;
    VmSys &operator=(const VmSys &) = delete;

    Machine &machine;
    PmapSystem &pmaps;
    ResidentPageTable resident;

    /**
     * @name Structure zones (base/zone.hh)
     *
     * Slab zones shared by every map and object of this VM system:
     * address-map entry list nodes and per-object radix-tree nodes.
     * (VmPage entries live in the resident table's own zone.)  Slot
     * sizes are fixed lazily on first allocation; stats are bound
     * into the metrics registry as zone.<name>.{chunks,high_water}.
     * @{
     */
    Zone mapEntryZone;
    Zone radixZone{0, 64};
    /** @} */

    /**
     * The ad-hoc counters of vm_statistics (Table 2-1).  Every field
     * is bound by name into the metrics registry below, so the hot
     * `++stats.x` form costs nothing extra.
     */
    VmStatistics stats;

    /** Pageout-daemon internals, bound as pageout.* (vm_pageout.cc). */
    struct PageoutStats
    {
        std::uint64_t wakeups = 0;   //!< passes entered with free < target
        std::uint64_t passes = 0;    //!< pageoutScan() invocations
        std::uint64_t scanned = 0;   //!< inactive pages examined
        std::uint64_t reclaimed = 0; //!< pages freed (clean or laundered)
        std::uint64_t laundered = 0; //!< dirty pages pushed to a pager
    };
    PageoutStats pageoutStats;

    /**
     * @name Introspection (src/sim/metrics.hh)
     *
     * The registry names every counter field above, the pmap layer's
     * shootdown counters and the zones, and owns the latency
     * histograms.  It is attached to the machine's clock for this
     * VmSys's lifetime.
     * @{
     */
    MetricsRegistry metrics;

    /** Name -> value view of every registered metric. */
    MetricsRegistry::Snapshot metricsSnapshot() const
    {
        return metrics.snapshot();
    }
    /** @} */

    /** Pager used for internal objects that must be paged out. */
    Pager *defaultPager = nullptr;

    /**
     * Shadow-chain garbage collection switch (ablation knob; the
     * paper's section 3.5 describes why leaving chains uncollapsed
     * is untenable).
     */
    bool collapseEnabled = true;

    VmSize pageSize() const { return resident.pageSize(); }

    /** Round @p x up/down to the Mach page size. */
    VmOffset pageTrunc(VmOffset x) const
    {
        return truncTo(x, pageSize());
    }
    VmOffset pageRound(VmOffset x) const
    {
        return roundTo(x, pageSize());
    }

    /** @name Page supply @{ */
    /**
     * Allocate a resident page for (@p object, @p offset), running
     * the pageout daemon synchronously if the free list is low.
     * Panics only if memory cannot be reclaimed at all.
     */
    VmPage *allocPage(VmObject *object, VmOffset offset);
    /** @} */

    /** @name Fault handling (vm_fault.cc) @{ */
    /**
     * The machine-independent page fault handler (paper section 3).
     * Resolves @p va in @p map, walking shadow chains, performing
     * copy-on-write, zero-fill and pagein as needed, and enters the
     * final mapping into the map's pmap.
     */
    KernReturn fault(VmMap &map, VmOffset va, FaultType type,
                     VmPage **out_page = nullptr);

    /**
     * Wire down [start, end) of @p map: fault every page in and
     * mark it unpageable (used for kernel memory).
     */
    KernReturn wireRange(VmMap &map, VmOffset start, VmOffset end);

    /**
     * Find or pagein one page of @p object (no map involved; used by
     * the kernel's file I/O paths).  Charges fault costs on a miss.
     *
     * @return the page, or nullptr if the pagein failed hard (the
     *         failure reason is stored through @p kr_out when given).
     */
    VmPage *objectPage(VmObject *object, VmOffset offset,
                       bool for_write, bool overwrite = false,
                       KernReturn *kr_out = nullptr);
    /** @} */

    /** @name I/O error handling @{ */
    /**
     * Pagein/pageout attempts made before a retryable pager error
     * (TransientError, Timeout) is treated as permanent.
     */
    unsigned pageinRetryLimit = 4;
    unsigned pageoutRetryLimit = 4;

    /** First retry backoff in simulated ns; doubles per attempt. */
    SimTime retryBackoffBase = 100000;   // 100us
    /** Ceiling on the exponential backoff (simulated ns). */
    SimTime retryBackoffCap = 10000000;  // 10ms

    /** Timer ticks a fault waits on a busy page before giving up. */
    unsigned busyWaitLimit = 16;

    /** Backoff charged before retry number @p attempt (1-based). */
    SimTime retryBackoff(unsigned attempt) const;

    /**
     * pager_data_request with bounded retry and exponential backoff.
     * Charges the message costs of each exchange and maintains the
     * error statistics and trace events.  @p page must be busy; its
     * busy/pagingInProgress state is the caller's to manage.
     */
    PagerResult pagerRequest(VmObject *object, VmOffset offset,
                             VmPage *page, VmProt prot);

    /**
     * pager_data_write with bounded retry and exponential backoff.
     * @p charge_msg adds the IPC message cost per attempt (the
     * pageout daemon's accounting; object teardown writes are
     * charged by their own path).
     */
    PagerResult pagerWrite(VmObject *object, VmPage *page,
                           bool charge_msg);
    /** @} */

    /** @name Pageout daemon (vm_pageout.cc) @{ */
    /**
     * Run the paging daemon until the free list reaches its target
     * (or nothing more can be reclaimed).  Invoked from allocPage
     * and usable directly by tests.
     */
    void pageoutScan();

    /** Move one page to backing store / the free list. */
    void pageOut(VmPage *page);

    /** Free a page, resetting its physical attributes. */
    void freePage(VmPage *page);

    /** Free-list low/high water marks (pages). */
    std::size_t freeMin = 0;
    std::size_t freeTarget = 0;
    /** @} */

    /** @name Memory object cache (paper section 3.3) @{ */
    /**
     * Insert an unreferenced persistable object into the cache of
     * frequently used memory objects.
     */
    void cacheObject(VmObject *object);

    /** Look up a cached (or live) object by pager identity. */
    VmObject *objectForPager(Pager *pager);

    /** Remove @p object from the cache (it got referenced again). */
    void uncacheObject(VmObject *object);

    /** Evict least-recently-cached objects beyond the limits. */
    void trimCache();

    /** Terminate every cached object (writing dirty pages back). */
    void flushCache();

    std::size_t cachedObjectCount() const { return cacheList.size(); }
    std::size_t cachedPageCount() const;

    /** Max cached objects (0 = unlimited). */
    std::size_t objectCacheLimit = 256;
    /** Max resident pages held by cached objects (0 = unlimited). */
    std::size_t cachedPageLimit = 0;
    /** @} */

    /** Registry: every live object for leak checks. */
    std::uint64_t liveObjects = 0;

    /** Next VmObject::id (stable identity for trace attribution). */
    std::uint64_t nextObjectId = 1;

    /** Fill a vm_statistics snapshot (Table 2-1): stats plus queues. */
    VmStatistics statistics() const;

    /** Charge machine-independent software time. */
    void chargeSoftware(SimTime ns);

  private:
    friend class VmObject;

    /** LRU list of cached objects (front = oldest). */
    std::list<VmObject *> cacheList;
    std::unordered_map<Pager *, VmObject *> pagerIndex;
};

} // namespace mach

#endif // MACH_VM_VM_SYS_HH
