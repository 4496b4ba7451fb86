#include "pmap/tlbsoft_pmap.hh"

#include <iterator>

namespace mach
{

TlbSoftPmap::TlbSoftPmap(TlbSoftPmapSystem &tsys, bool kernel)
    : Pmap(tsys, kernel), tsys(tsys)
{
    setHwOps(&kHwOpsFor<TlbSoftPmap>);
}

void
TlbSoftPmap::enterImpl(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    const MachineSpec &spec = tsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmSize machPage = tsys.machPageSize();
    MACH_ASSERT(va % machPage == 0 && pa % machPage == 0);

    for (VmSize off = 0; off < machPage; off += hw) {
        VmOffset vpn = (va + off) >> spec.hwPageShift;
        auto it = dict.find(vpn);
        if (it != dict.end())
            invalidate(it);
        dict[vpn] = Entry{pa + off, prot, wired};
        tsys.pv().add((pa + off) >> spec.hwPageShift, this, va + off);
        ++nMappings;
        tsys.chargePmap(spec.costs.pmapEnter);
    }
    shootdown(va, va + machPage, ShootdownMode::Immediate);
}

void
TlbSoftPmap::removeImpl(VmOffset start, VmOffset end)
{
    const MachineSpec &spec = tsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned removed = 0;

    if ((end - start) / hw <= dict.size()) {
        for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
            auto it = dict.find(va >> spec.hwPageShift);
            if (it == dict.end())
                continue;
            invalidate(it);
            ++removed;
        }
    } else {
        for (auto it = dict.begin(); it != dict.end();) {
            VmOffset va = it->first << spec.hwPageShift;
            if (va >= start && va < end) {
                it = invalidate(it);
                ++removed;
            } else {
                ++it;
            }
        }
    }

    if (removed) {
        tsys.chargePmap(SimTime(removed) * spec.costs.pmapRemovePerPage);
        shootdown(start, end, tsys.policy.remove);
    }
}

void
TlbSoftPmap::protectImpl(VmOffset start, VmOffset end, VmProt prot)
{
    const MachineSpec &spec = tsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned changed = 0;
    for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
        auto it = dict.find(va >> spec.hwPageShift);
        if (it == dict.end())
            continue;
        it->second.prot &= prot;  // restrict only
        ++changed;
    }
    if (changed) {
        tsys.chargePmap(SimTime(changed) * spec.costs.pmapProtectPerPage);
        shootdown(start, end, tsys.policy.protect);
    }
}

TlbSoftPmap::Dict::iterator
TlbSoftPmap::invalidate(Dict::iterator it)
{
    unsigned shift = tsys.getMachine().spec.hwPageShift;
    tsys.pv().remove(it->second.pageBase >> shift, this,
                     it->first << shift);
    --nMappings;
    return dict.erase(it);
}

std::optional<PhysAddr>
TlbSoftPmap::extract(VmOffset va)
{
    const MachineSpec &spec = tsys.getMachine().spec;
    auto it = dict.find(va >> spec.hwPageShift);
    if (it == dict.end())
        return std::nullopt;
    return it->second.pageBase + (va & (spec.hwPageSize() - 1));
}

void
TlbSoftPmap::garbageCollect()
{
    if (kernel())
        return;
    const MachineSpec &spec = tsys.getMachine().spec;
    for (auto it = dict.begin(); it != dict.end();)
        it = it->second.wired ? std::next(it) : invalidate(it);
    // A full software-TLB sweep invalidates everything at once.
    shootdown(0, spec.effectiveVaLimit(), ShootdownMode::Immediate);
}

std::optional<HwTranslation>
TlbSoftPmap::hwLookup(VmOffset va, AccessType access)
{
    (void)access;
    const MachineSpec &spec = tsys.getMachine().spec;
    auto it = dict.find(va >> spec.hwPageShift);
    if (it == dict.end())
        return std::nullopt;
    return HwTranslation{it->second.pageBase, it->second.prot,
                         it->second.wired};
}

void
TlbSoftPmapSystem::dropMapping(Pmap &pmap, VmOffset va)
{
    auto &tp = static_cast<TlbSoftPmap &>(pmap);
    auto it = tp.dict.find(va >> machine.spec.hwPageShift);
    MACH_ASSERT(it != tp.dict.end());
    tp.invalidate(it);
}

void
TlbSoftPmapSystem::revokeWrite(Pmap &pmap, VmOffset va)
{
    auto &tp = static_cast<TlbSoftPmap &>(pmap);
    auto it = tp.dict.find(va >> machine.spec.hwPageShift);
    MACH_ASSERT(it != tp.dict.end());
    it->second.prot &= ~VmProt::Write;
}

} // namespace mach
