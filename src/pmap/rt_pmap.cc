#include "pmap/rt_pmap.hh"

namespace mach
{

RtPmap::RtPmap(RtPmapSystem &rsys, bool kernel)
    : Pmap(rsys, kernel), rsys(rsys)
{
    setHwOps(&kHwOpsFor<RtPmap>);
}

void
RtPmap::enterImpl(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    const MachineSpec &spec = rsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmSize machPage = rsys.machPageSize();
    MACH_ASSERT(va % machPage == 0 && pa % machPage == 0);

    for (VmSize off = 0; off < machPage; off += hw) {
        VmOffset hva = va + off;
        VmOffset vpn = hva >> spec.hwPageShift;
        FrameNum frame = (pa + off) >> spec.hwPageShift;
        RtPmapSystem::IptEntry &e = rsys.entry(frame);

        // This (pmap, va) may currently map some other frame.
        auto old = vtof.find(vpn);
        if (old != vtof.end() && old->second != frame)
            rsys.evict(old->second, ShootdownMode::Immediate);

        if (e.valid && !(e.pmap == this && e.va == hva)) {
            // The frame already has a mapping and the inverted table
            // can hold only one: evict it.  This is the aliasing
            // restriction that makes page sharing fault-prone.
            MACH_ASSERT(!e.wired);
            ++rsys.aliasEvictions;
            rsys.evict(frame, ShootdownMode::Immediate);
        }

        if (!e.valid) {
            e.valid = true;
            ++nMappings;
        }
        e.pmap = this;
        e.va = hva;
        e.prot = prot;
        e.wired = wired;
        vtof[vpn] = frame;
        rsys.chargePmap(spec.costs.pmapEnter);
    }
    shootdown(va, va + machPage, ShootdownMode::Immediate);
}

void
RtPmap::removeImpl(VmOffset start, VmOffset end)
{
    const MachineSpec &spec = rsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned removed = 0;

    if ((end - start) / hw <= vtof.size()) {
        for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
            auto it = vtof.find(va >> spec.hwPageShift);
            if (it == vtof.end())
                continue;
            rsys.evict(it->second, std::nullopt);
            ++removed;
        }
    } else {
        // Huge range (e.g. map teardown): scan the hash instead.
        for (auto it = vtof.begin(); it != vtof.end();) {
            VmOffset va = it->first << spec.hwPageShift;
            FrameNum frame = it->second;
            ++it;  // evict() erases from vtof
            if (va >= start && va < end) {
                rsys.evict(frame, std::nullopt);
                ++removed;
            }
        }
    }

    if (removed) {
        rsys.chargePmap(SimTime(removed) * spec.costs.pmapRemovePerPage);
        shootdown(start, end, rsys.policy.remove);
    }
}

void
RtPmap::protectImpl(VmOffset start, VmOffset end, VmProt prot)
{
    const MachineSpec &spec = rsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned changed = 0;
    for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
        auto it = vtof.find(va >> spec.hwPageShift);
        if (it == vtof.end())
            continue;
        RtPmapSystem::IptEntry &e = rsys.entry(it->second);
        MACH_ASSERT(e.valid && e.pmap == this);
        e.prot &= prot;  // restrict only
        ++changed;
    }
    if (changed) {
        rsys.chargePmap(SimTime(changed) * spec.costs.pmapProtectPerPage);
        shootdown(start, end, rsys.policy.protect);
    }
}

std::optional<PhysAddr>
RtPmap::extract(VmOffset va)
{
    const MachineSpec &spec = rsys.getMachine().spec;
    auto it = vtof.find(va >> spec.hwPageShift);
    if (it == vtof.end())
        return std::nullopt;
    PhysAddr base = PhysAddr(it->second) << spec.hwPageShift;
    return base + (va & (spec.hwPageSize() - 1));
}

std::optional<HwTranslation>
RtPmap::hwLookup(VmOffset va, AccessType access)
{
    (void)access;
    const MachineSpec &spec = rsys.getMachine().spec;
    auto it = vtof.find(va >> spec.hwPageShift);
    if (it == vtof.end())
        return std::nullopt;
    const RtPmapSystem::IptEntry &e = rsys.entry(it->second);
    MACH_ASSERT(e.valid && e.pmap == this);
    return HwTranslation{PhysAddr(it->second) << spec.hwPageShift,
                         e.prot, e.wired};
}

RtPmapSystem::RtPmapSystem(Machine &machine) : PmapSystem(machine)
{
}

void
RtPmapSystem::init(VmSize mach_page_size)
{
    ipt.assign(machine.spec.physMemBytes / machine.spec.hwPageSize(),
               IptEntry{});
    PmapSystem::init(mach_page_size);
}

std::unique_ptr<Pmap>
RtPmapSystem::allocatePmap(bool kernel)
{
    return std::make_unique<RtPmap>(*this, kernel);
}

void
RtPmapSystem::evict(FrameNum frame, std::optional<ShootdownMode> mode)
{
    IptEntry &e = ipt[frame];
    if (!e.valid)
        return;
    RtPmap *owner = e.pmap;
    VmOffset va = e.va;
    owner->vtof.erase(va >> machine.spec.hwPageShift);
    e.valid = false;
    e.pmap = nullptr;
    --owner->nMappings;
    if (mode) {
        shootdownRange(*owner, va, va + machine.spec.hwPageSize(),
                       *mode);
    }
}

void
RtPmapSystem::removeAllImpl(PhysAddr pa, ShootdownMode mode)
{
    VmSize hw = machine.spec.hwPageSize();
    // One flush round for all of the page's hardware frames.
    PmapBatch batch(*this);
    for (VmSize off = 0; off < machPageSize(); off += hw) {
        FrameNum frame = (pa + off) >> machine.spec.hwPageShift;
        if (ipt[frame].valid) {
            chargePmap(machine.spec.costs.pmapRemovePerPage);
            evict(frame, mode);
        }
    }
}

void
RtPmapSystem::copyOnWriteImpl(PhysAddr pa, ShootdownMode mode)
{
    VmSize hw = machine.spec.hwPageSize();
    PmapBatch batch(*this);
    for (VmSize off = 0; off < machPageSize(); off += hw) {
        FrameNum frame = (pa + off) >> machine.spec.hwPageShift;
        IptEntry &e = ipt[frame];
        if (!e.valid)
            continue;
        e.prot &= ~VmProt::Write;
        chargePmap(machine.spec.costs.pmapProtectPerPage);
        shootdownRange(*e.pmap, e.va, e.va + hw, mode);
    }
}

} // namespace mach
