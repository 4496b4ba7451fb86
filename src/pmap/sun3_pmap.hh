/**
 * @file
 * SUN 3 pmap: segment maps, PMEGs and eight hardware contexts.
 *
 * The paper (section 5.1): the SUN 3 uses "a combination of segments
 * and page tables ... to create and manage per-task address maps up
 * to 256 megabytes each", which supports sparse addressing well, "but
 * only 8 such contexts may exist at any one time.  If there are more
 * than 8 active tasks, they compete for contexts, introducing
 * additional page faults as on the RT."
 *
 * The MMU resources are modeled as they were on the hardware:
 *
 *  - a fixed pool of PMEGs (page-map-entry groups: 16 PTEs covering
 *    one 128KB segment) shared by all address spaces; when the pool
 *    runs dry a victim PMEG is stolen and its mappings dropped — the
 *    machine-independent layer rebuilds them at fault time;
 *  - 8 context slots; activating a ninth address space steals the
 *    least recently granted context and drops the victim's mappings.
 *
 * Both behaviors exercise the paper's central pmap contract: the
 * hardware map is only a cache of the machine-independent state.
 * The physical-page operations come from PvPmapSystem: this module
 * supplies the PMEG tables plus its two one-mapping primitives, and
 * every PTE invalidation goes through Sun3PmapSystem::invalidatePte.
 */

#ifndef MACH_PMAP_SUN3_PMAP_HH
#define MACH_PMAP_SUN3_PMAP_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "pmap/pv_table.hh"

namespace mach
{

class Sun3PmapSystem;

/** A SUN 3 physical map: a software segment map plus a context. */
class Sun3Pmap final : public Pmap
{
  public:
    Sun3Pmap(Sun3PmapSystem &ssys, bool kernel);

    std::optional<PhysAddr> extract(VmOffset va) override;

    std::optional<HwTranslation> hwLookup(VmOffset va,
                                          AccessType access) override;

    /** The hardware context slot this map holds, or -1. */
    int context() const { return ctx; }

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
    void removeImpl(VmOffset start, VmOffset end) override;
    void protectImpl(VmOffset start, VmOffset end,
                     VmProt prot) override;

    void onActivate(CpuId cpu) override;

  private:
    friend class Sun3PmapSystem;

    Sun3PmapSystem &ssys;
    /** segment base va -> PMEG pool index. */
    std::unordered_map<VmOffset, unsigned> segmap;
    int ctx = -1;  //!< kernel maps use -2 ("in every context")
};

/** The SUN 3 pmap module: owns the PMEG pool and context slots. */
class Sun3PmapSystem : public PvPmapSystem
{
  public:
    static constexpr unsigned kPtesPerPmeg = 16;
    static constexpr unsigned kDefaultPmegs = 128;

    explicit Sun3PmapSystem(Machine &machine,
                            unsigned pmeg_count = kDefaultPmegs);

    void onPmapDestroy(Pmap *pmap) override;

    /** Bytes covered by one segment (PMEG). */
    VmSize segmentSize() const
    {
        return VmSize(kPtesPerPmeg) << machine.spec.hwPageShift;
    }

    /** Segment base containing @p va. */
    VmOffset segBaseOf(VmOffset va) const
    {
        return truncTo(va, segmentSize());
    }

    unsigned freePmegs() const { return freeList.size(); }

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override;
    void dropMapping(Pmap &pmap, VmOffset va) override;
    void revokeWrite(Pmap &pmap, VmOffset va) override;

  private:
    friend class Sun3Pmap;

    struct Pte
    {
        bool valid = false;
        bool wired = false;
        PhysAddr pageBase = 0;
        VmProt prot = VmProt::None;
    };

    /** One page-map entry group: the PTEs for one 128KB segment. */
    struct Pmeg
    {
        bool inUse = false;
        Sun3Pmap *owner = nullptr;
        VmOffset segBase = 0;
        std::array<Pte, kPtesPerPmeg> ptes;
        unsigned validCount = 0;
        unsigned wiredCount = 0;
    };

    /** The PMEG holding @p pmap's existing mapping of @p va. */
    Pmeg &pmegOf(Sun3Pmap &pmap, VmOffset va);

    /** The PTE of @p pmeg that maps @p va. */
    Pte &
    pteOf(Pmeg &pmeg, VmOffset va)
    {
        return pmeg.ptes[(va - pmeg.segBase) >> machine.spec.hwPageShift];
    }

    /** Drop @p pmeg's valid mapping of @p va and its PV record. */
    void invalidatePte(Pmeg &pmeg, VmOffset va);

    /** Allocate a PMEG for (@p pmap, @p seg_base), stealing if dry. */
    unsigned allocPmeg(Sun3Pmap *pmap, VmOffset seg_base);

    /** Drop every mapping in PMEG @p idx and return it to the pool. */
    void releasePmeg(unsigned idx, bool to_free_list);

    /** Drop all of @p pmap's PMEGs (context steal fallout). */
    void dropAllMappings(Sun3Pmap *pmap);

    /** Grant a context slot to @p pmap, stealing if all are taken. */
    void grantContext(Sun3Pmap *pmap);

    std::vector<Pmeg> pmegs;
    std::vector<unsigned> freeList;
    unsigned stealClock = 0;  //!< round-robin PMEG victim pointer

    std::array<Sun3Pmap *, 8> contexts{};
    unsigned contextClock = 0;
};

} // namespace mach

#endif // MACH_PMAP_SUN3_PMAP_HH
