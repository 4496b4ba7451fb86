/**
 * @file
 * Memory objects and shadow objects (paper sections 3.3-3.5).
 *
 * A memory object is a repository for data, indexed by byte, which
 * can be mapped into task address spaces.  Each object is managed by
 * a pager; objects created by the kernel to hold pages modified
 * through copy-on-write are "shadow objects", which point to the
 * object they shadow and rely on it for all unmodified data.
 *
 * Most of the complexity of Mach memory management arises from
 * preventing long shadow chains (section 3.5): collapse() garbage
 * collects intermediate shadows either by merging a sole-referenced
 * backing object into its shadow or by bypassing a backing object
 * that contributes no visible data.
 */

#ifndef MACH_VM_VM_OBJECT_HH
#define MACH_VM_VM_OBJECT_HH

#include <unordered_map>

#include "base/types.hh"
#include "vm/page_tree.hh"
#include "vm/vm_page.hh"
#include "vm/vm_sys.hh"

namespace mach
{

class Pager;

/** A unit of backing storage mappable into address spaces. */
class VmObject
{
  public:
    /**
     * Create an internal, temporary (anonymous zero-fill) object of
     * @p size bytes with one reference.
     */
    static VmObject *allocate(VmSys &sys, VmSize size);

    /**
     * Create (or find cached/live) the object managed by @p pager.
     * @param can_persist the pager requested pager_cache(): retain
     *        the object after the last reference disappears.
     */
    static VmObject *allocateWithPager(VmSys &sys, VmSize size,
                                       Pager *pager,
                                       VmOffset pager_offset,
                                       bool can_persist);

    /** @name Reference management @{ */
    void reference();

    /**
     * Drop one reference.  At zero the object is either entered into
     * the object cache (if its pager asked for persistence) or
     * terminated: pages freed, backing released, shadow dereferenced.
     */
    void deallocate();

    int references() const { return refCount; }
    /** @} */

    /** @name Shadowing @{ */
    /**
     * Replace *@p object / *@p offset with a new shadow covering
     * @p length bytes.  The new object takes over the caller's
     * reference to the original.
     */
    static void makeShadow(VmObject *&object, VmOffset &offset,
                           VmSize length);

    /**
     * Attempt to garbage collect this object's shadow chain
     * (section 3.5): merge a sole-referenced, pagerless backing
     * object, or bypass one that contributes no visible data.
     */
    void collapse();

    /** Length of the shadow chain below this object. */
    unsigned chainLength() const;

    VmObject *shadowObject() const { return shadow; }
    VmOffset shadowOffsetOf() const { return shadowOffset; }
    /** @} */

    /** @name Pages @{ */
    /** The resident page at byte @p offset, or nullptr. */
    VmPage *pageAt(VmOffset offset);

    /** Free every resident page (with pmap removal). */
    void destroyPages();
    /** @} */

    VmSys &sys;
    VmSize size = 0;
    int refCount = 1;

    /** Stable identity for trace / accounting attribution. */
    const std::uint64_t id;

    /** Per-object attribution (faults resolved here, pages
     *  laundered). */
    VmAccounting acct;

    /** Resident pages of this object currently wired. */
    unsigned wiredPages = 0;

    /** @name Shadow link @{ */
    VmObject *shadow = nullptr;    //!< object this one shadows
    VmOffset shadowOffset = 0;     //!< our offset 0 within the shadow
    /** @} */

    /** @name Pager binding @{ */
    Pager *pager = nullptr;
    VmOffset pagerOffset = 0;
    bool pagerInitialized = false;
    /** @} */

    /** @name Attributes @{ */
    bool internal = true;    //!< created by the kernel (no name)
    bool temporary = true;   //!< contents may be discarded at death
    bool canPersist = false; //!< pager_cache() requested caching
    bool alive = true;
    bool cached = false;     //!< currently in the object cache
    /** @} */

    /**
     * pager_readonly was requested (Table 3-2): any write attempt
     * must go to a new (shadow) object rather than modify this one.
     */
    bool copyOnWriteOnly = false;

    /** @name pager_data_lock support (Table 3-2) @{ */
    /** Accesses currently prevented for the page at @p offset. */
    VmProt
    lockOf(VmOffset offset) const
    {
        auto it = pageLocks.find(offset);
        return it == pageLocks.end() ? VmProt::None : it->second;
    }

    /** Set the lock value (VmProt::None unlocks). */
    void
    setLock(VmOffset offset, VmProt lock_value)
    {
        if (lock_value == VmProt::None)
            pageLocks.erase(offset);
        else
            pageLocks[offset] = lock_value;
    }
    /** @} */

    /** Pagein/pageout operations in flight (collapse guard). */
    unsigned pagingInProgress = 0;

    /**
     * Locked page ranges: offset -> prevented accesses.  Entries are
     * reconciled when the object collapses (a merged backing object's
     * locks are adopted through the shadow window) and purged at
     * termination, so no stale offsets outlive the object's data.
     */
    std::unordered_map<VmOffset, VmProt> pageLocks;

    /** Resident pages, linked through VmPage::objHook (iteration
     *  in allocation order; deallocation/copy paths). */
    IntrusiveList<VmPage, &VmPage::objHook> pages;

    /** Fault-time lookup index over the same pages, keyed by page
     *  index (page_tree.hh); nodes from sys.radixZone. */
    PageTree pageIndex;

    unsigned residentCount = 0;

  private:
    VmObject(VmSys &sys, VmSize size);
    ~VmObject();

    /** Final destruction: free pages, release pager and shadow. */
    void terminate();

    /** True if @p backing can be merged into this object. */
    bool canCollapseBacking(const VmObject &backing) const;

    friend class VmSys;
};

/**
 * Defined here (not vm_page.cc) so the fault path's hot lookup
 * inlines into its callers: the body needs VmObject complete.
 */
inline VmPage *
ResidentPageTable::lookup(VmObject *object, VmOffset offset)
{
    MACH_ASSERT((offset & (machPage - 1)) == 0);
    return object->pageIndex.find(offset >> machShift);
}

} // namespace mach

#endif // MACH_VM_VM_OBJECT_HH
