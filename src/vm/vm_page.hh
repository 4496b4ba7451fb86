/**
 * @file
 * The resident page table (paper section 3.1).
 *
 * Physical memory is treated primarily as a cache for the contents of
 * virtual memory objects.  Information about physical pages is kept
 * in page entries; each entry may simultaneously be linked into:
 *
 *  - a memory object list (to speed object deallocation and virtual
 *    copies), and
 *  - a memory allocation queue (free / active / inactive, used by the
 *    paging daemon).
 *
 * Fault-time lookup goes through the owning object's radix tree
 * (page_tree.hh) rather than the paper's global object/offset hash,
 * so lookup cost no longer depends on machine-wide residency.  Page
 * entries themselves are materialized lazily from a slab zone
 * (base/zone.hh) the first time each frame is allocated, preserving
 * the boot-time free list's ascending-address hand-out order.
 *
 * Byte offsets are used throughout; the Mach page size is a boot-time
 * power-of-two multiple of the hardware page size.
 */

#ifndef MACH_VM_VM_PAGE_HH
#define MACH_VM_VM_PAGE_HH

#include <cstdint>

#include "base/intrusive_list.hh"
#include "base/types.hh"
#include "base/zone.hh"
#include "hw/machine.hh"

namespace mach
{

class VmObject;

/** Which allocation queue a page is on. */
enum class PageQueue : unsigned
{
    None = 0,
    Free,
    Active,
    Inactive,
};

/** One machine-independent physical page. */
struct VmPage
{
    /** @name Identity: which object/offset this page caches @{ */
    VmObject *object = nullptr;
    VmOffset offset = 0;      //!< byte offset within the object
    PhysAddr physAddr = 0;    //!< Mach-page-aligned physical address
    /** @} */

    /** @name State @{ */
    bool busy = false;     //!< page is being filled / written
    bool absent = false;   //!< allocated but data not yet arrived
    bool dirty = false;    //!< modified since last pageout (software)
    bool precious = false; //!< pager wants the data back even if clean
    unsigned wireCount = 0;
    PageQueue queue = PageQueue::None;
    /** Machine tick count when the page was deactivated. */
    std::uint64_t deactTick = 0;
    /** @} */

    /** @name Links @{ */
    ListHook objHook;   //!< object's page list
    ListHook queueHook; //!< allocation queue
    /** @} */

    bool onQueue() const { return queue != PageQueue::None; }
};

/** VM subsystem statistics (vm_statistics, Table 2-1). */
struct VmStatistics
{
    VmSize pagesize = 0;
    std::uint64_t freeCount = 0;
    std::uint64_t activeCount = 0;
    std::uint64_t inactiveCount = 0;
    std::uint64_t wireCount = 0;
    std::uint64_t faults = 0;        //!< vm_fault invocations
    std::uint64_t zeroFillCount = 0;
    std::uint64_t cowFaults = 0;
    std::uint64_t pageins = 0;
    std::uint64_t pageouts = 0;
    std::uint64_t reactivations = 0;
    std::uint64_t lookups = 0;       //!< map entry lookups
    std::uint64_t hits = 0;          //!< map lookup hint hits
    std::uint64_t objectsCreated = 0;
    std::uint64_t objectsCached = 0; //!< cache hits on named objects
    std::uint64_t objectCollapses = 0;
    std::uint64_t objectBypasses = 0;

    /** @name Fault-injection / I/O error counters @{ */
    std::uint64_t ioErrors = 0;        //!< pager/disk ops that failed
    std::uint64_t pageinFailures = 0;  //!< pageins abandoned (hard)
    std::uint64_t pageinRetries = 0;   //!< pagein attempts repeated
    std::uint64_t pageoutRetries = 0;  //!< pageout attempts repeated
    std::uint64_t transientRecoveries = 0; //!< retries that succeeded
    std::uint64_t busyPageWaits = 0;   //!< faults that waited on busy
    /** @} */
};

/**
 * The resident page table: owns every VmPage and the global
 * allocation queues.  Lookup is delegated to the owning object's
 * radix tree; entry storage comes from a slab zone so frames are
 * materialized only as they are first used.
 */
class ResidentPageTable
{
  public:
    /**
     * @param machine supplies physical memory geometry and the clock
     * @param mach_page_size boot-time machine-independent page size
     */
    ResidentPageTable(Machine &machine, VmSize mach_page_size);

    VmSize pageSize() const { return machPage; }

    /** @name Allocation @{ */
    /**
     * Take a page off the free list and enter it into @p object at
     * @p offset.  Returns nullptr when no free page is available
     * (the caller must push the pageout daemon and retry).
     * @p object may be nullptr for a fictitious/private page.
     */
    VmPage *alloc(VmObject *object, VmOffset offset);

    /** Release a page back to the free list (removes from object). */
    void free(VmPage *page);
    /** @} */

    /** @name Object/offset lookup (per-object radix tree) @{ */
    /** Find the page caching (@p object, @p offset), or nullptr. */
    VmPage *lookup(VmObject *object, VmOffset offset);

    /** Move a page to a new object/offset (virtual copy support). */
    void rename(VmPage *page, VmObject *new_object, VmOffset new_offset);
    /** @} */

    /** @name Allocation queues @{ */
    void activate(VmPage *page);
    void deactivate(VmPage *page);
    void wire(VmPage *page);
    void unwire(VmPage *page);

    VmPage *firstInactive() { return inactiveQ.front(); }
    VmPage *firstActive() { return activeQ.front(); }
    VmPage *nextInactive(VmPage *p) { return inactiveQ.next(p); }
    /** @} */

    /** @name Counters @{ */
    std::size_t totalPages() const { return usableTotal; }
    std::size_t freeCount() const
    {
        return freeQ.size() + freshRemaining;
    }
    std::size_t activeCount() const { return activeQ.size(); }
    std::size_t inactiveCount() const { return inactiveQ.size(); }
    std::size_t wiredCount() const { return nWired; }
    /** @} */

    /** Fill the page-level fields of @p st. */
    void fillStatistics(VmStatistics &st) const;

    /** Slab zone backing the VmPage entries (stats bindable). */
    Zone pageZone;

  private:
    void removeFromQueue(VmPage *page);
    void indexInsert(VmPage *page);
    void indexRemove(VmPage *page);

    /** Materialize the next never-used frame's page entry. */
    VmPage *takeFresh();

    Machine &machine;
    VmSize machPage;
    unsigned machShift = 0;  //!< log2(machPage): index math by shift
    PhysAddr physLimit = 0;

    using PageQueueList = IntrusiveList<VmPage, &VmPage::queueHook>;

    /**
     * Recycled frames, FIFO.  Fresh frames are handed out first (in
     * ascending address order, via the bump cursor below), exactly
     * matching the order of the old boot-time free list that held
     * every frame up front.
     */
    PageQueueList freeQ;
    PageQueueList activeQ;
    PageQueueList inactiveQ;

    std::size_t usableTotal = 0;    //!< usable frames in the machine
    std::size_t freshRemaining = 0; //!< frames never yet allocated
    PhysAddr freshCursor = 0;       //!< next fresh frame candidate

    std::size_t nWired = 0;
};

} // namespace mach

#endif // MACH_VM_VM_PAGE_HH
