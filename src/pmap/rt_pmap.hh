/**
 * @file
 * IBM RT PC pmap: a single system-wide inverted page table.
 *
 * The paper (section 5.1): the RT PC "does not use per-task page
 * tables.  Instead it uses a single inverted page table which
 * describes which virtual address is mapped to each physical
 * address" — allowing a full 4GB space with no table-size overhead,
 * but permitting "only one valid mapping for each physical page,
 * making it impossible to share pages without triggering faults".
 * Mach therefore treats the inverted table as a large in-memory cache
 * for the TLB: when tasks share a physical page, each access by a
 * different task evicts the previous task's mapping (an "alias
 * eviction"), and the machine-independent fault handler simply
 * re-enters the mapping on the next fault.
 *
 * The inverted table itself (IptEntry per frame) is the ground
 * truth; the per-pmap hash from virtual page to frame models the
 * ROMP's hash-anchor lookup structure.  Because the table is already
 * indexed by frame it is its own reverse map: this is the one module
 * that implements pmap_remove_all / pmap_copy_on_write itself rather
 * than deriving from PvPmapSystem.
 */

#ifndef MACH_PMAP_RT_PMAP_HH
#define MACH_PMAP_RT_PMAP_HH

#include <unordered_map>
#include <vector>

#include "pmap/pmap.hh"

namespace mach
{

class RtPmapSystem;

/** An RT PC physical map (a segment identity; the table is global). */
class RtPmap final : public Pmap
{
  public:
    RtPmap(RtPmapSystem &rsys, bool kernel);

    std::optional<PhysAddr> extract(VmOffset va) override;

    std::optional<HwTranslation> hwLookup(VmOffset va,
                                          AccessType access) override;

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
    void removeImpl(VmOffset start, VmOffset end) override;
    void protectImpl(VmOffset start, VmOffset end,
                     VmProt prot) override;

  private:
    friend class RtPmapSystem;

    RtPmapSystem &rsys;
    /** Hash-anchor lookup: virtual page number -> frame. */
    std::unordered_map<VmOffset, FrameNum> vtof;
};

/** The RT PC pmap module: owns the inverted page table. */
class RtPmapSystem : public PmapSystem
{
  public:
    explicit RtPmapSystem(Machine &machine);

    void init(VmSize mach_page_size) override;

    void removeAllImpl(PhysAddr pa, ShootdownMode mode) override;
    void copyOnWriteImpl(PhysAddr pa, ShootdownMode mode) override;

    /** One inverted-page-table slot (indexed by hardware frame). */
    struct IptEntry
    {
        bool valid = false;
        bool wired = false;
        RtPmap *pmap = nullptr;
        VmOffset va = 0;  //!< hw-page-aligned virtual address
        VmProt prot = VmProt::None;
    };

    /** The entry for hardware frame @p frame. */
    IptEntry &entry(FrameNum frame) { return ipt[frame]; }
    std::size_t frames() const { return ipt.size(); }

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override;

  private:
    friend class RtPmap;

    /**
     * Drop the mapping in frame @p frame; flush TLBs per @p mode
     * (no flush when nullopt — the caller flushes the whole range).
     */
    void evict(FrameNum frame, std::optional<ShootdownMode> mode);

    std::vector<IptEntry> ipt;
};

} // namespace mach

#endif // MACH_PMAP_RT_PMAP_HH
