/**
 * @file
 * Address maps and sharing maps (paper sections 3.2 and 3.4).
 *
 * An address map is a doubly linked list of address map entries, each
 * of which maps a contiguous range of virtual addresses onto a
 * contiguous area of a memory object.  The list is sorted in order of
 * ascending virtual address; entries carry protection and inheritance
 * attributes for their whole range, so attribute changes may force
 * entry clipping.  This structure was chosen because it is the
 * simplest that efficiently supports the frequent operations: page
 * fault lookups (helped by a last-fault hint), copy/protection
 * operations on ranges, and allocation/deallocation of ranges —
 * without penalizing large, sparse address spaces.
 *
 * Read/write sharing needs a map-like structure that other maps can
 * reference: a sharing map, which is an address map (pmap == nullptr)
 * pointed to by entries of task maps.  Operations that should apply
 * to all sharers are simply applied to the sharing map.
 */

#ifndef MACH_VM_VM_MAP_HH
#define MACH_VM_VM_MAP_HH

#include <list>

#include "base/status.hh"
#include "base/types.hh"
#include "base/zone.hh"
#include "vm/vm_sys.hh"

namespace mach
{

class VmObject;
class VmMap;
class Pmap;

/** One mapping: a va range onto a memory object or sharing map. */
struct VmMapEntry
{
    VmOffset start = 0;
    VmOffset end = 0;

    /** Backing: exactly one of object/submap (or neither if the
     *  range has never been touched — lazily created zero fill). */
    VmObject *object = nullptr;
    VmMap *submap = nullptr;
    VmOffset offset = 0;  //!< offset of start within object/submap

    VmProt protection = VmProt::Default;
    VmProt maxProtection = VmProt::All;
    VmInherit inheritance = VmInherit::Copy;

    /**
     * The entry's object is shared copy-on-write with another map;
     * a shadow object must be created before the first write.
     */
    bool needsCopy = false;

    unsigned wiredCount = 0;

    bool isSubMap() const { return submap != nullptr; }
    VmSize size() const { return end - start; }
};

/** Summary of one region, for vm_regions (Table 2-1). */
struct VmRegionInfo
{
    VmOffset start = 0;
    VmSize size = 0;
    VmProt protection = VmProt::None;
    VmProt maxProtection = VmProt::None;
    VmInherit inheritance = VmInherit::Copy;
    bool shared = false;     //!< backed by a sharing map
    bool needsCopy = false;
};

/** A task address map, or a sharing map when pmap is nullptr. */
class VmMap
{
  public:
    /** Entry nodes come from the VmSys map-entry slab zone, so the
     *  per-fork entry churn is freelist recycling, not heap calls. */
    using EntryList = std::list<VmMapEntry, ZoneAllocator<VmMapEntry>>;
    using Iter = EntryList::iterator;

    /**
     * @param sys the VM system
     * @param pmap hardware map to keep loaded (nullptr for sharing
     *        maps, which have no hardware presence of their own)
     * @param min_addr lowest mappable address
     * @param max_addr one past the highest mappable address
     */
    VmMap(VmSys &sys, Pmap *pmap, VmOffset min_addr, VmOffset max_addr);
    ~VmMap();

    VmMap(const VmMap &) = delete;
    VmMap &operator=(const VmMap &) = delete;

    /** @name Reference counting (sharing maps, task sharing) @{ */
    void reference() { ++refCount; }
    /** Drop a reference; deletes the map at zero. */
    void deallocateRef();
    /** @} */

    /** @name Table 2-1 operations @{ */
    /**
     * vm_allocate: allocate zero-filled memory, anywhere or at
     * *@p addr.  The region is lazily backed — no object is created
     * until the first fault.
     */
    KernReturn allocate(VmOffset *addr, VmSize size, bool anywhere);

    /**
     * vm_allocate_with_pager / internal mapping primitive: map
     * @p object (consumes one reference on success) at *@p addr.
     */
    KernReturn allocateObject(VmOffset *addr, VmSize size, bool anywhere,
                              VmObject *object, VmOffset offset,
                              bool needs_copy, VmProt prot,
                              VmProt max_prot, VmInherit inherit);

    /**
     * The range check of every call that takes a range: the
     * [pageTrunc(start), start + pageRound(size)) those calls work
     * on must not wrap (KernReturn::InvalidArgument) and must lie
     * inside the map (KernReturn::InvalidAddress).
     */
    KernReturn checkRange(VmOffset start, VmSize size) const;

    /** vm_deallocate. */
    KernReturn deallocate(VmOffset start, VmSize size);

    /** vm_protect: set current (or, with @p set_max, maximum). */
    KernReturn protect(VmOffset start, VmSize size, bool set_max,
                       VmProt new_prot);

    /** vm_inherit. */
    KernReturn inherit(VmOffset start, VmSize size, VmInherit inh);

    /**
     * vm_copy: virtually copy [src, src+size) onto [dst, dst+size)
     * of @p dst_map using copy-on-write; no data is moved.
     */
    KernReturn virtualCopy(VmMap &dst_map, VmOffset src, VmSize size,
                           VmOffset dst);

    /**
     * vm_regions: describe the region containing or following
     * *@p addr; advances *@p addr past it.
     */
    KernReturn region(VmOffset *addr, VmRegionInfo *info);
    /** @} */

    /**
     * Create the child map for a fork: entries are inherited per
     * their inheritance attribute (share / copy / none, paper
     * section 2.1), with copy implemented copy-on-write.
     */
    VmMap *fork(Pmap *child_pmap);

    /** @name Fault-time lookup @{ */
    struct LookupResult
    {
        VmObject *object = nullptr;
        VmOffset offset = 0;
        VmProt prot = VmProt::None;
        bool wired = false;
        /** Enter read-only even if prot allows write (COW pending). */
        bool cowReadOnly = false;
    };

    /**
     * Resolve @p va for a fault of type @p type: validates
     * protection, performs the needs-copy shadow creation for write
     * faults, creates the lazy zero-fill object, and recurses
     * through sharing maps.
     */
    KernReturn lookup(VmOffset va, FaultType type, LookupResult &out);
    /** @} */

    /** @name Message transfer (section 2: "an entire address space
     *  may be sent in a single message with no actual data copy
     *  operations performed") @{ */
    /**
     * Snapshot [src, src+size) as a list of copy-on-write entries
     * (vm_map_copyin).  Entry start/end are rebased to 0.
     */
    KernReturn copyIn(VmOffset src, VmSize size,
                      std::list<VmMapEntry> *out);

    /**
     * Insert a copyIn snapshot into this map at a fresh address
     * (vm_map_copyout).  Consumes the snapshot's references.
     */
    KernReturn copyOut(std::list<VmMapEntry> &&snapshot, VmSize size,
                       VmOffset *addr);

    /** Release a snapshot that will not be copied out. */
    static void discardCopy(std::list<VmMapEntry> &&snapshot);
    /** @} */

    /** Coalesce adjacent compatible entries. */
    void simplify();

    /** Wire or unwire a range (pageability). */
    KernReturn setPageable(VmOffset start, VmSize size, bool pageable);

    /** @name Introspection @{ */
    std::size_t entryCount() const { return entries.size(); }
    VmSize virtualSize() const;
    VmOffset minAddress() const { return minAddr; }
    VmOffset maxAddress() const { return maxAddr; }
    Pmap *getPmap() { return pmap; }
    bool isShareMap() const { return pmap == nullptr; }
    const EntryList &entryList() const { return entries; }
    EntryList &entryList() { return entries; }
    /** @} */

    /** Use the last-fault hint in lookups (ablation knob). */
    bool useHint = true;

    /** @name Introspection (src/sim/metrics.hh) @{ */
    /** Per-task attribution: faults resolved for this map, by kind. */
    VmAccounting acct;

    /** Owning task id (0 = kernel / sharing map); stamped by
     *  Kernel::taskCreate for trace and accounting attribution. */
    std::uint32_t ownerTask = 0;
    /** @} */

    VmSys &sys;

  private:
    friend class VmSysTestPeer;

    /** Find the entry containing @p addr (hint-assisted). */
    bool lookupEntry(VmOffset addr, Iter &out);

    /**
     * The source check of a virtual copy (vm_copy, out-of-line
     * copyIn): [start, end) must be fully allocated
     * (KernReturn::InvalidAddress) and readable
     * (KernReturn::ProtectionFailure).
     */
    KernReturn checkReadable(VmOffset start, VmOffset end);

    /**
     * Erase @p it, keeping the lookup hint safe.  Every erase of a
     * live entry must go through here: entry nodes are zone-recycled,
     * so a stale hint would not fault — it would silently read a
     * reused node.
     */
    Iter eraseEntry(Iter it);

    /** Split @p it so that it starts exactly at @p addr. */
    void clipStart(Iter it, VmOffset addr);

    /** Split @p it so that it ends exactly at @p addr. */
    void clipEnd(Iter it, VmOffset addr);

    /** First-fit search for @p size bytes of free space. */
    KernReturn findSpace(VmSize size, VmOffset *addr);

    /** True if [start, start+size) is entirely unallocated. */
    bool rangeFree(VmOffset start, VmSize size);

    /** Drop an entry's backing reference (object or submap). */
    void releaseBacking(VmMapEntry &entry);

    /** Charge one map-entry manipulation. */
    void chargeEntryOp();

    /** Ensure the parent entry @p it is backed by a sharing map. */
    void makeShareMap(Iter it);

    /** Write-protect the resident pages the entry can reach (COW). */
    void protectForCopy(VmMapEntry &entry);

    Pmap *pmap;
    VmOffset minAddr;
    VmOffset maxAddr;
    EntryList entries;
    Iter hint;
    int refCount = 1;
};

} // namespace mach

#endif // MACH_VM_VM_MAP_HH
