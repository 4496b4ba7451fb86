/**
 * @file
 * VAX-style pmap: lazily constructed linear page tables.
 *
 * The paper (section 5.1): a full 2GB VAX address space would need
 * 8MB of linear page table, so Mach keeps page tables in physical
 * memory but "only constructs those parts of the table which were
 * needed to actually map virtual to real addresses for pages
 * currently in use", creating and destroying VAX page tables as
 * necessary to conserve space or improve runtime.
 *
 * The mechanism is shared with the NS32082 module, which differs only
 * in its address-space limits; the common machinery lives in
 * LinearPmap / LinearPmapSystem here.  Each pmap keeps a directory
 * indexed by table-page number — on the VAX, the slice of the system
 * page table that maps the process's page-table pages — grown on
 * demand to the highest table page touched.  Table pages (128 packed
 * PTEs each) come from a zone owned by the module, so building and
 * freeing one is a freelist pop and push.  The physical-page
 * operations come from PvPmapSystem: this module supplies the table
 * plus its two one-mapping primitives.
 */

#ifndef MACH_PMAP_VAX_PMAP_HH
#define MACH_PMAP_VAX_PMAP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/zone.hh"
#include "pmap/pmap.hh"
#include "pmap/pv_table.hh"

namespace mach
{

class LinearPmapSystem;

/** A pmap backed by lazily-built linear page-table pages. */
class LinearPmap : public Pmap
{
  public:
    LinearPmap(LinearPmapSystem &lsys, bool kernel);

    std::optional<PhysAddr> extract(VmOffset va) override;
    void garbageCollect() override;

    std::optional<HwTranslation> hwLookup(VmOffset va,
                                          AccessType access) override;

    /**
     * Optional pmap_copy (Table 3-4): seed this map with read-only
     * copies of @p src's mappings in the range — the child of a fork
     * then takes no read faults for the parent's resident pages.
     */
    void copyFrom(Pmap &src, VmOffset dst_addr, VmSize len,
                  VmOffset src_addr) override;

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
    void removeImpl(VmOffset start, VmOffset end) override;
    void protectImpl(VmOffset start, VmOffset end,
                     VmProt prot) override;

  private:
    friend class LinearPmapSystem;

    /** PTE slots per table page: 512-byte page / 4-byte VAX PTE. */
    static constexpr unsigned kPtesPerTablePage = 128;
    /** log2(kPtesPerTablePage). */
    static constexpr unsigned kPteIndexShift = 7;
    static_assert(kPtesPerTablePage == 1u << kPteIndexShift);

    /** One hardware page-table entry, packed into 8 bytes. */
    struct Pte
    {
        std::uint32_t frame = 0; //!< hardware frame number
        std::uint8_t prot = 0;   //!< VmProt bits
        bool valid = false;
        bool wired = false;

        VmProt protection() const { return static_cast<VmProt>(prot); }
        void setProtection(VmProt p) { prot = std::uint8_t(p); }
    };
    static_assert(sizeof(Pte) == 8);

    /** One lazily-built page of page table. */
    struct PtPage
    {
        Pte ptes[kPtesPerTablePage];
        unsigned validCount = 0;
        unsigned wiredCount = 0;
    };

    /**
     * A PTE together with its containing table page, so callers that
     * need both (enterImpl must bump the page's counts) perform one
     * directory lookup, not two.
     */
    struct PteRef
    {
        Pte *pte = nullptr;
        PtPage *page = nullptr;
        explicit operator bool() const { return pte != nullptr; }
    };

    /** Find the PTE for @p va; null ref if its table is absent. */
    PteRef lookupPte(VmOffset va);

    /** Find-or-create the PTE for @p va (builds the table page). */
    PteRef forcePte(VmOffset va);

    /** Remove one hw mapping (PTE + pv entry); table GC separate. */
    void invalidatePte(VmOffset va, PtPage &pt, Pte &pte);

    /** Return table page @p index, now empty, to the zone. */
    void freeTablePage(VmOffset index);

    /** Make dir long enough to hold table-page index @p index. */
    void growDirectory(VmOffset index);

    /** The physical address of @p pte's hardware page. */
    PhysAddr
    pageBaseOf(const Pte &pte) const
    {
        return PhysAddr(pte.frame) << hwShift;
    }

    LinearPmapSystem &lsys;
    /** The machine's hardware page shift, cached for the walks. */
    const unsigned hwShift;
    /**
     * Table-page index -> table page, null where none is built.  The
     * destructor frees nothing: destroy() has emptied a user pmap,
     * and pages a pmap still holds when its module goes away are
     * released with the module's zone.
     */
    std::vector<PtPage *> dir;
};

/** Shared system half for linear-page-table architectures. */
class LinearPmapSystem : public PvPmapSystem
{
  public:
    explicit LinearPmapSystem(Machine &machine);

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override;
    void dropMapping(Pmap &pmap, VmOffset va) override;
    void revokeWrite(Pmap &pmap, VmOffset va) override;

  private:
    friend class LinearPmap;

    /** Every pmap's table pages, recycled through one freelist. */
    Zone tablePageZone;
};

/**
 * The VAX pmap proper: the linear-table machinery unchanged, made a
 * leaf so the MMU's per-type dispatch table (kHwOpsFor) resolves the
 * miss-path calls statically.
 */
class VaxPmap final : public LinearPmap
{
  public:
    VaxPmap(LinearPmapSystem &lsys, bool kernel) : LinearPmap(lsys, kernel)
    {
        setHwOps(&kHwOpsFor<VaxPmap>);
    }
};

/** The VAX instantiation of the linear-table pmap module. */
class VaxPmapSystem : public LinearPmapSystem
{
  public:
    using LinearPmapSystem::LinearPmapSystem;
};

} // namespace mach

#endif // MACH_PMAP_VAX_PMAP_HH
