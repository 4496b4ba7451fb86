/**
 * @file
 * Software-TLB pmap (the IBM RP3 simulator case).
 *
 * The paper (section 5): "In principle, Mach needs no in-memory
 * hardware-defined data structure to manage virtual memory.  Machines
 * which provide only an easily manipulated TLB could be accommodated
 * by Mach and would need little code to be written for the pmap
 * module.  In fact, a version of Mach has already run on a simulator
 * for the IBM RP3 which assumed only TLB hardware support."
 *
 * This module demonstrates that: the "hardware structure" is a plain
 * dictionary consulted by the software TLB-refill handler, and the
 * whole module is a fraction of the size of the others.  The
 * physical-page operations come from PvPmapSystem, so the module is
 * the dictionary plus its two one-mapping primitives.
 */

#ifndef MACH_PMAP_TLBSOFT_PMAP_HH
#define MACH_PMAP_TLBSOFT_PMAP_HH

#include <unordered_map>

#include "pmap/pv_table.hh"

namespace mach
{

class TlbSoftPmapSystem;

/** A software-refill pmap: a dictionary of live translations. */
class TlbSoftPmap final : public Pmap
{
  public:
    TlbSoftPmap(TlbSoftPmapSystem &tsys, bool kernel);

    std::optional<PhysAddr> extract(VmOffset va) override;
    void garbageCollect() override;

    std::optional<HwTranslation> hwLookup(VmOffset va,
                                          AccessType access) override;

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
    void removeImpl(VmOffset start, VmOffset end) override;
    void protectImpl(VmOffset start, VmOffset end,
                     VmProt prot) override;

  private:
    friend class TlbSoftPmapSystem;

    struct Entry
    {
        PhysAddr pageBase = 0;
        VmProt prot = VmProt::None;
        bool wired = false;
    };
    using Dict = std::unordered_map<VmOffset, Entry>;

    /** Drop one translation and its PV record; returns the next. */
    Dict::iterator invalidate(Dict::iterator it);

    TlbSoftPmapSystem &tsys;
    Dict dict;  //!< keyed by hw vpn
};

/** The software-TLB pmap module. */
class TlbSoftPmapSystem : public PvPmapSystem
{
  public:
    explicit TlbSoftPmapSystem(Machine &machine) : PvPmapSystem(machine)
    {
    }

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override
    {
        return std::make_unique<TlbSoftPmap>(*this, kernel);
    }
    void dropMapping(Pmap &pmap, VmOffset va) override;
    void revokeWrite(Pmap &pmap, VmOffset va) override;
};

} // namespace mach

#endif // MACH_PMAP_TLBSOFT_PMAP_HH
