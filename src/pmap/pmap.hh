/**
 * @file
 * The machine-independent/machine-dependent interface (paper section
 * 3.6, Tables 3-3 and 3-4).
 *
 * A Pmap is a physical address map: the only machine-dependent data
 * structure in the system.  The contract, taken directly from the
 * paper, is:
 *
 *  - the pmap need not keep track of all currently valid mappings;
 *    virtual-to-physical mappings may be thrown away at almost any
 *    time (except wired and kernel mappings), because all VM
 *    information can be reconstructed at fault time from the
 *    machine-independent structures;
 *  - operations that invalidate or reduce protection may be delayed
 *    on hardware where invalidations are expensive (pmap_update
 *    forces them);
 *  - machine-independent code tells the pmap which processors are
 *    using which maps (activate/deactivate), and the pmap is
 *    responsible for TLB consistency using the strategies of section
 *    5.2 (interrupt now, defer to timer tick, or allow temporary
 *    inconsistency).
 */

#ifndef MACH_PMAP_PMAP_HH
#define MACH_PMAP_PMAP_HH

#include <bitset>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "hw/machine.hh"
#include "hw/translation.hh"

namespace mach
{

class PmapSystem;
class PvTable;

/** Maximum CPUs a pmap tracks. */
constexpr unsigned kMaxCpus = 32;

/** How a mapping change is propagated to remote TLBs (section 5.2). */
enum class ShootdownMode : unsigned
{
    /** Case 1: forcibly interrupt every CPU using the map now. */
    Immediate = 0,
    /** Case 2: postpone until all CPUs have taken a timer tick. */
    Deferred,
    /** Case 3: allow temporary inconsistency (no remote action). */
    Lazy,
};

/** Per-operation-class shootdown strategy selection. */
struct ShootdownPolicy
{
    ShootdownMode remove = ShootdownMode::Immediate;
    ShootdownMode protect = ShootdownMode::Immediate;
    /** Used by pmap_remove_all on the pageout path. */
    ShootdownMode pageout = ShootdownMode::Deferred;
};

/** The stricter (lower-numbered) of two shootdown modes. */
constexpr ShootdownMode
stricterMode(ShootdownMode a, ShootdownMode b)
{
    return static_cast<unsigned>(a) < static_cast<unsigned>(b) ? a : b;
}

/**
 * A machine-dependent physical address map.
 *
 * Exported/required routines of Table 3-3 appear as methods here or
 * (for the physical-page-indexed ones) on PmapSystem; the optional
 * routines of Table 3-4 (pmap_copy, pmap_pageable) have default
 * empty implementations, as the paper permits.
 */
class Pmap : public TranslationSource
{
  public:
    Pmap(PmapSystem &sys, bool kernel);
    ~Pmap() override = default;

    /**
     * @name Table 3-3: required operations
     *
     * enter/remove/protect are non-virtual shells: they emit trace
     * events and record per-operation latency (src/sim/trace.hh),
     * then forward to the architecture's *Impl.  Subclasses calling
     * their own implementation internally (e.g. protect degrading to
     * remove) call the Impl directly so each machine-independent
     * request is traced exactly once.
     * @{
     */
    /**
     * Enter a mapping for one machine-independent page [page fault].
     * @param va Mach-page-aligned virtual address
     * @param pa Mach-page-aligned physical address
     * @param prot hardware permissions to grant
     * @param wired if true the mapping may never be dropped
     */
    void enter(VmOffset va, PhysAddr pa, VmProt prot, bool wired);

    /** Remove all mappings in [start, end) [memory deallocation]. */
    void remove(VmOffset start, VmOffset end);

    /**
     * Restrict the protection on [start, end).  Like the real
     * pmap_protect, this only ever *removes* permissions from
     * existing mappings; granting a wider permission happens lazily
     * through the fault path, which knows about copy-on-write
     * (a pmap upgrade here could expose a COW-shared page to
     * writes).
     */
    void protect(VmOffset start, VmOffset end, VmProt prot);

    /** Convert virtual to physical (pmap_extract). */
    virtual std::optional<PhysAddr> extract(VmOffset va) = 0;

    /** Report if the virtual address is mapped (pmap_access). */
    bool access(VmOffset va) { return extract(va).has_value(); }

    /**
     * Make all delayed invalidations visible (pmap_update).  The
     * default forces any flushes deferred to the next timer tick.
     */
    virtual void update();
    /** @} */

    /** @name Table 3-4: optional operations @{ */
    /** Copy mappings from another map (pmap_copy); hint only. */
    virtual void
    copyFrom(Pmap &src, VmOffset dst_addr, VmSize len, VmOffset src_addr)
    {
        (void)src;
        (void)dst_addr;
        (void)len;
        (void)src_addr;
    }

    /** Advise pageability of a region (pmap_pageable); hint only. */
    virtual void
    pageable(VmOffset start, VmOffset end, bool can_page)
    {
        (void)start;
        (void)end;
        (void)can_page;
    }
    /** @} */

    /**
     * Give back whatever space the module can reclaim (the paper:
     * VAX page tables "may be created and destroyed as necessary to
     * conserve space or improve runtime").  Non-wired, non-kernel
     * mappings may be dropped; faults rebuild them.
     */
    virtual void garbageCollect() {}

    /** @name Activation (pmap_activate / pmap_deactivate) @{ */
    /** This pmap is now running on @p cpu. */
    void activate(CpuId cpu);
    /** This pmap is done on @p cpu. */
    void deactivate(CpuId cpu);
    /** Which CPUs currently use this map. */
    const std::bitset<kMaxCpus> &cpusUsing() const { return cpus; }
    /** @} */

    /** @name Reference counting (pmap_reference / pmap_destroy) @{ */
    void reference() { ++refCount; }
    /** Drop a reference; true when the map should be destroyed. */
    bool
    release()
    {
        MACH_ASSERT(refCount > 0);
        return --refCount == 0;
    }
    int references() const { return refCount; }
    /** @} */

    bool kernel() const { return isKernel; }
    PmapSystem &system() { return sys; }

    /** Count of hardware mappings currently installed (statistics). */
    std::uint64_t residentMappings() const { return nMappings; }

    /** TranslationSource: default attribute recording via extract. */
    void hwMarkReferenced(VmOffset va) override;
    void hwMarkModified(VmOffset va) override;

  protected:
    /** @name Architecture implementations of Table 3-3 @{ */
    virtual void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                           bool wired) = 0;
    virtual void removeImpl(VmOffset start, VmOffset end) = 0;
    virtual void protectImpl(VmOffset start, VmOffset end,
                             VmProt prot) = 0;
    /** @} */

    /** Flush [start, end) from TLBs per the given policy mode. */
    void shootdown(VmOffset start, VmOffset end, ShootdownMode mode);

    PmapSystem &sys;
    const bool isKernel;
    int refCount = 1;
    std::bitset<kMaxCpus> cpus;
    std::uint64_t nMappings = 0;

    /** Hook run by activate() for arches with contexts (SUN 3). */
    virtual void onActivate(CpuId cpu) { (void)cpu; }
    virtual void onDeactivate(CpuId cpu) { (void)cpu; }
};

/**
 * The pmap module as a whole — the analogue of pmap.c plus its
 * header.  Owns the kernel pmap, the physical attribute (modify /
 * reference) table, and the physical-page-indexed operations of
 * Table 3-3.  One subclass per supported architecture.
 */
class PmapSystem
{
  public:
    explicit PmapSystem(Machine &machine);
    virtual ~PmapSystem() = default;

    PmapSystem(const PmapSystem &) = delete;
    PmapSystem &operator=(const PmapSystem &) = delete;

    /**
     * Build the pmap module for @p machine's architecture.  This is
     * the only place the rest of the system mentions machine types.
     */
    static std::unique_ptr<PmapSystem> build(Machine &machine);

    /**
     * pmap_init: tell the module the machine-independent page size
     * (a power-of-two multiple of the hardware page size) and the
     * range of managed physical addresses.
     */
    virtual void init(VmSize mach_page_size);

    /** pmap_create: make a new (user) physical map. */
    Pmap *create();

    /** pmap_destroy: drop a reference, reclaiming at zero. */
    void destroy(Pmap *pmap);

    /** The kernel's own map: always complete and accurate. */
    Pmap *kernelPmap() { return kernel; }

    /**
     * @name Physical-page-indexed operations
     *
     * Like Pmap::enter and friends these are tracing shells: the
     * machine-dependent work lives in removeAllImpl / copyOnWriteImpl
     * so each request is traced exactly once.
     * @{
     */
    /** Remove a physical page from all maps [pageout]. */
    void removeAll(PhysAddr pa, ShootdownMode mode);
    void removeAll(PhysAddr pa) { removeAll(pa, policy.pageout); }

    /** Revoke write access from all maps [virtual copy]. */
    void copyOnWrite(PhysAddr pa, ShootdownMode mode);
    void copyOnWrite(PhysAddr pa) { copyOnWrite(pa, policy.protect); }

    /** pmap_zero_page. */
    void zeroPage(PhysAddr pa) { machine.memory().zero(pa, machPage); }

    /** pmap_copy_page. */
    void copyPage(PhysAddr src, PhysAddr dst)
    {
        machine.memory().copy(src, dst, machPage);
    }
    /** @} */

    /** @name Modify/reference bit maintenance @{ */
    bool isModified(PhysAddr pa);
    bool isReferenced(PhysAddr pa);
    /**
     * Clear the modify attribute.  Also removes the page's hardware
     * mappings so the next write is observed (the simulated TLB
     * would otherwise swallow it), exactly as ref-bit-less hardware
     * like the VAX forces Mach to simulate attributes by
     * invalidation.
     */
    void clearModify(PhysAddr pa,
                     ShootdownMode mode = ShootdownMode::Immediate);
    /** Clear the reference attribute (same invalidation caveat). */
    void clearReference(PhysAddr pa,
                        ShootdownMode mode = ShootdownMode::Immediate);

    /**
     * Reset both attributes without touching mappings.  Only valid
     * when the page has no mappings left (frame being freed).
     */
    void
    resetAttrs(PhysAddr pa)
    {
        FrameNum first = frameOf(pa);
        for (FrameNum f = first; f < first + framesPerPage; ++f)
            attrs[f] = PhysAttr{};
    }
    /** @} */

    Machine &getMachine() { return machine; }
    VmSize machPageSize() const { return machPage; }
    VmSize hwPageSize() const { return machine.spec.hwPageSize(); }

    /** Shootdown strategy table (ablation hook). */
    ShootdownPolicy policy;

    /**
     * @name Shootdown batching (section 5.2, "the expense of
     * invalidation can often be amortized over many pages")
     *
     * While a batch is open (see PmapBatch), removeAll / copyOnWrite
     * / remove and friends update page tables and PV state
     * immediately but accumulate the affected (pmap, va-range) set
     * instead of flushing per page.  Batch close merges adjacent and
     * overlapping ranges per pmap, unions the target-CPU sets, and
     * issues one flush round — at most one IPI per target CPU —
     * honoring the strictest ShootdownMode seen inside the batch.
     * @{
     */
    /** Open a (nestable) coalescing scope; prefer PmapBatch. */
    void openBatch();
    /** Close the scope; the outermost close issues the flush. */
    void closeBatch();
    /** True while any batch scope is open. */
    bool batching() const { return batchDepth > 0; }
    /**
     * Ablation switch: when false, batch guards are inert and every
     * shootdown goes out per call, as the unbatched system did.
     */
    bool coalesceShootdowns = true;
    /** @} */

    /**
     * Use the optional pmap_copy (Table 3-4) at fork: pre-seed the
     * child's map with read-only copies of the parent's mappings,
     * trading pmap work now for avoided read faults later.  Off by
     * default, as on most 1987 ports ("these routines need not
     * perform any hardware function").
     */
    bool usePmapCopy = false;

    /** @name Statistics @{ */
    std::uint64_t shootdownIpis = 0;   //!< IPIs sent for consistency
    std::uint64_t deferredFlushes = 0; //!< flushes queued to tick
    std::uint64_t lazySkips = 0;       //!< flushes skipped (case 3)
    std::uint64_t shootdownsCoalesced = 0; //!< flushes absorbed by a batch
    std::uint64_t batchedIpis = 0;     //!< IPIs sent by batch closes
    std::uint64_t batchRangesMerged = 0; //!< ranges merged away at close
    std::uint64_t batchFlushes = 0;    //!< coalesced flush rounds issued
    std::uint64_t aliasEvictions = 0;  //!< RT PC one-mapping conflicts
    std::uint64_t contextSteals = 0;   //!< SUN 3 context replacement
    std::uint64_t shootdownRoundSeq = 0; //!< immediate rounds (trace id)
    std::uint64_t pmegSteals = 0;      //!< SUN 3 page-map-group steals
    std::uint64_t tablePagesBuilt = 0; //!< lazily constructed tables
    std::uint64_t tablePagesFreed = 0;
    /** @} */

    /**
     * Flush [start, end) of @p pmap from every TLB that may hold it,
     * honoring @p mode.  Used by Pmap subclasses and by the
     * attribute-clearing paths.
     */
    void shootdownRange(Pmap &pmap, VmOffset start, VmOffset end,
                        ShootdownMode mode);

    /** Charge a machine-dependent operation cost. */
    void chargePmap(SimTime ns)
    {
        machine.clock().charge(CostKind::PmapOp, ns);
    }

  protected:
    /** Subclasses allocate their concrete pmap type. */
    virtual std::unique_ptr<Pmap> allocatePmap(bool kernel) = 0;

    /** @name Machine-dependent bodies of the traced physical ops @{ */
    virtual void removeAllImpl(PhysAddr pa, ShootdownMode mode) = 0;
    virtual void copyOnWriteImpl(PhysAddr pa, ShootdownMode mode) = 0;
    /** @} */

    /**
     * Called by destroy() after the dying pmap's mappings are gone
     * but before it is freed: modules that keep pointers to pmaps in
     * shared hardware-resource tables (e.g. the SUN 3 context slots)
     * must drop them here.
     */
    virtual void onPmapDestroy(Pmap *pmap) { (void)pmap; }

    /** Set a physical attribute bit (called via Pmap defaults). */
    friend class Pmap;
    void setModifiedAttr(PhysAddr pa);
    void setReferencedAttr(PhysAddr pa);

    Machine &machine;
    Pmap *kernel = nullptr;
    VmSize machPage = 0;
    /** machPage / hwPageSize, cached so hot paths avoid the divide. */
    FrameNum framesPerPage = 0;

    /**
     * The module's physical-to-virtual table, when it keeps one.
     * Lets the machine-independent shells skip the virtual dispatch
     * into removeAllImpl / copyOnWriteImpl when a page provably has
     * no mappings (common on the object-teardown path, where the map
     * deallocation already emptied every chain).  Modules without a
     * PV table (RT PC's inverted table) leave it null and always
     * dispatch.
     */
    const PvTable *pvView = nullptr;

    /** Per-hardware-frame modify/reference attributes. */
    struct PhysAttr
    {
        bool modified = false;
        bool referenced = false;
    };
    std::vector<PhysAttr> attrs;

    std::vector<std::unique_ptr<Pmap>> allPmaps;

    FrameNum frameOf(PhysAddr pa) const
    {
        return pa >> machine.spec.hwPageShift;
    }

  private:
    /** The unbatched flush path (the pre-coalescing behavior). */
    void shootdownNow(Pmap &pmap, VmOffset start, VmOffset end,
                      ShootdownMode mode);

    /** True when pvView shows no mappings for the page at @p pa. */
    bool pvQuiet(PhysAddr pa) const;

    /**
     * One pending shootdown request of an open batch, or several
     * touching requests of the same pmap folded into one record.
     */
    struct PendingRange
    {
        Pmap *pmap;
        VmOffset start;
        VmOffset end;
        std::uint32_t requests; //!< shootdownRange calls folded in
    };

    /** One merged range to flush under a TLB tag. */
    struct TagRange
    {
        const void *tag;
        VmOffset start;
        VmOffset end;
    };

    /** Order records by (pmap, start), the order a close sweeps. */
    static bool pendingBefore(const PendingRange &a,
                              const PendingRange &b);

    /** Per-CPU flush command over a slice of TagRanges. */
    struct FlushCmd;

    /** A closed Deferred flush awaiting the next timer tick. */
    struct TickFlush
    {
        std::bitset<kMaxCpus> targets;
        std::size_t first; //!< index into tickRanges
        std::size_t count;
    };

    /** Issue everything the open batch accumulated in one round. */
    void flushBatch();

    /**
     * Flush (immediately) and forget @p pmap's pending batched
     * ranges; must run before a pmap dies inside an open batch.
     */
    void drainBatched(Pmap &pmap);

    /**
     * The one batch close routine: merge the (pmap, start)-sorted
     * @p records per pmap into flushList, charge and count them, and
     * dispatch one round per @p mode.
     */
    void closeRanges(std::span<const PendingRange> records,
                     ShootdownMode mode);

    /** Sort batchPending by (pmap, start) unless already in order. */
    void sortPending();

    /** CPUs whose TLBs may hold entries of @p pmap. */
    std::bitset<kMaxCpus> flushTargets(const Pmap &pmap) const;

    /**
     * Flush @p ranges (grouped by tag) on every CPU in @p targets per
     * @p mode: immediately (local call or one IPI per remote CPU) or
     * copied to tickRanges for the next timer tick.  @p mode must not
     * be Lazy.
     */
    void dispatchFlush(const std::bitset<kMaxCpus> &targets,
                       std::span<const TagRange> ranges,
                       ShootdownMode mode, bool batched);

    /** The tick closure: run every TickFlush in the order queued. */
    void runTickFlushes();

    unsigned batchDepth = 0;
    /** Strictest mode seen inside the open batch. */
    ShootdownMode batchMode = ShootdownMode::Lazy;
    /**
     * Requests of the open batch, in arrival order until a close or
     * drain sorts them.  All of these buffers keep their capacity
     * across batches, so a close allocates nothing once warm.
     */
    std::vector<PendingRange> batchPending;
    /** False once a record arrived out of (pmap, start) order. */
    bool pendingSorted = true;
    /** The merged (tag, start, end) list of the close in progress. */
    std::vector<TagRange> flushList;
    /**
     * Deferred flushes closed since the last tick, and their ranges.
     * At most one non-owning closure is queued per tick to run them,
     * so this module must outlive any later tick of its machine.
     */
    std::vector<TickFlush> tickFlushes;
    std::vector<TagRange> tickRanges;
};

/**
 * RAII guard opening a shootdown-coalescing scope (nestable).
 * Machine-independent callers wrap loops of physical-page-indexed
 * pmap operations in one of these; the destructor of the outermost
 * guard issues the single merged flush round.
 */
class PmapBatch
{
  public:
    explicit PmapBatch(PmapSystem &sys) : sys(sys) { sys.openBatch(); }
    ~PmapBatch() { sys.closeBatch(); }

    PmapBatch(const PmapBatch &) = delete;
    PmapBatch &operator=(const PmapBatch &) = delete;

  private:
    PmapSystem &sys;
};

} // namespace mach

#endif // MACH_PMAP_PMAP_HH
