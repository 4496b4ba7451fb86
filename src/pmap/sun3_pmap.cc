#include "pmap/sun3_pmap.hh"

#include <iterator>

namespace mach
{

Sun3Pmap::Sun3Pmap(Sun3PmapSystem &ssys, bool kernel)
    : Pmap(ssys, kernel), ssys(ssys)
{
    setHwOps(&kHwOpsFor<Sun3Pmap>);
    if (kernel)
        ctx = -2;  // kernel mappings appear in every context
}

void
Sun3Pmap::onActivate(CpuId cpu)
{
    (void)cpu;
    if (ctx == -1)
        ssys.grantContext(this);
}

void
Sun3Pmap::enterImpl(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    const MachineSpec &spec = ssys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmSize machPage = ssys.machPageSize();
    MACH_ASSERT(va % machPage == 0 && pa % machPage == 0);

    for (VmSize off = 0; off < machPage; off += hw) {
        VmOffset hva = va + off;
        VmOffset seg = ssys.segBaseOf(hva);
        auto it = segmap.find(seg);
        unsigned idx;
        if (it == segmap.end()) {
            idx = ssys.allocPmeg(this, seg);
        } else {
            idx = it->second;
        }
        Sun3PmapSystem::Pmeg &pmeg = ssys.pmegs[idx];
        Sun3PmapSystem::Pte &pte = ssys.pteOf(pmeg, hva);
        if (pte.valid)
            ssys.invalidatePte(pmeg, hva);
        pte.valid = true;
        pte.pageBase = pa + off;
        pte.prot = prot;
        pte.wired = wired;
        if (wired)
            ++pmeg.wiredCount;
        ++pmeg.validCount;
        ++nMappings;
        ssys.pv().add((pa + off) >> spec.hwPageShift, this, hva);
        ssys.chargePmap(spec.costs.pmapEnter);
    }
    shootdown(va, va + machPage, ShootdownMode::Immediate);
}

void
Sun3Pmap::removeImpl(VmOffset start, VmOffset end)
{
    const MachineSpec &spec = ssys.getMachine().spec;
    unsigned removed = 0;

    for (auto it = segmap.begin(); it != segmap.end();) {
        VmOffset seg = it->first;
        unsigned idx = it->second;
        VmSize seg_size = ssys.segmentSize();
        if (seg + seg_size <= start || seg >= end) {
            ++it;
            continue;
        }
        Sun3PmapSystem::Pmeg &pmeg = ssys.pmegs[idx];
        for (unsigned slot = 0; slot < Sun3PmapSystem::kPtesPerPmeg;
             ++slot) {
            VmOffset va = seg + (VmOffset(slot) << spec.hwPageShift);
            if (va < start || va >= end || !pmeg.ptes[slot].valid)
                continue;
            ssys.invalidatePte(pmeg, va);
            ++removed;
        }
        if (pmeg.validCount == 0) {
            // releasePmeg erases this pmap's segmap entry.
            auto next = std::next(it);
            ssys.releasePmeg(idx, true);
            it = next;
        } else {
            ++it;
        }
    }

    if (removed) {
        ssys.chargePmap(SimTime(removed) * spec.costs.pmapRemovePerPage);
        shootdown(start, end, ssys.policy.remove);
    }
}

void
Sun3Pmap::protectImpl(VmOffset start, VmOffset end, VmProt prot)
{
    const MachineSpec &spec = ssys.getMachine().spec;
    unsigned changed = 0;
    for (auto &[seg, idx] : segmap) {
        VmSize seg_size = ssys.segmentSize();
        if (seg + seg_size <= start || seg >= end)
            continue;
        Sun3PmapSystem::Pmeg &pmeg = ssys.pmegs[idx];
        for (unsigned slot = 0; slot < Sun3PmapSystem::kPtesPerPmeg;
             ++slot) {
            VmOffset va = seg + (VmOffset(slot) << spec.hwPageShift);
            if (va < start || va >= end)
                continue;
            Sun3PmapSystem::Pte &pte = pmeg.ptes[slot];
            if (pte.valid) {
                pte.prot &= prot;  // restrict only
                ++changed;
            }
        }
    }
    if (changed) {
        ssys.chargePmap(SimTime(changed) * spec.costs.pmapProtectPerPage);
        shootdown(start, end, ssys.policy.protect);
    }
}

std::optional<PhysAddr>
Sun3Pmap::extract(VmOffset va)
{
    const MachineSpec &spec = ssys.getMachine().spec;
    auto it = segmap.find(ssys.segBaseOf(va));
    if (it == segmap.end())
        return std::nullopt;
    const Sun3PmapSystem::Pmeg &pmeg = ssys.pmegs[it->second];
    unsigned slot = (va - ssys.segBaseOf(va)) >> spec.hwPageShift;
    const Sun3PmapSystem::Pte &pte = pmeg.ptes[slot];
    if (!pte.valid)
        return std::nullopt;
    return pte.pageBase + (va & (spec.hwPageSize() - 1));
}

std::optional<HwTranslation>
Sun3Pmap::hwLookup(VmOffset va, AccessType access)
{
    (void)access;
    // Hardware translation requires a context (kernel maps are in
    // every context).
    if (ctx == -1)
        return std::nullopt;
    const MachineSpec &spec = ssys.getMachine().spec;
    auto it = segmap.find(ssys.segBaseOf(va));
    if (it == segmap.end())
        return std::nullopt;
    const Sun3PmapSystem::Pmeg &pmeg = ssys.pmegs[it->second];
    unsigned slot = (va - ssys.segBaseOf(va)) >> spec.hwPageShift;
    const Sun3PmapSystem::Pte &pte = pmeg.ptes[slot];
    if (!pte.valid)
        return std::nullopt;
    return HwTranslation{pte.pageBase, pte.prot, pte.wired};
}

Sun3PmapSystem::Sun3PmapSystem(Machine &machine, unsigned pmeg_count)
    : PvPmapSystem(machine), pmegs(pmeg_count)
{
    freeList.reserve(pmeg_count);
    for (unsigned i = 0; i < pmeg_count; ++i)
        freeList.push_back(pmeg_count - 1 - i);
}

std::unique_ptr<Pmap>
Sun3PmapSystem::allocatePmap(bool kernel)
{
    return std::make_unique<Sun3Pmap>(*this, kernel);
}

unsigned
Sun3PmapSystem::allocPmeg(Sun3Pmap *pmap, VmOffset seg_base)
{
    unsigned idx;
    if (!freeList.empty()) {
        idx = freeList.back();
        freeList.pop_back();
    } else {
        // Steal: round-robin over the pool, skipping wired PMEGs and
        // the kernel's (kernel mappings must stay complete).
        unsigned scanned = 0;
        for (;; ++stealClock, ++scanned) {
            MACH_ASSERT(scanned <= pmegs.size() * 2);
            unsigned cand = stealClock % pmegs.size();
            Pmeg &p = pmegs[cand];
            if (p.inUse && p.wiredCount == 0 && !p.owner->kernel() &&
                !(p.owner == pmap && p.segBase == seg_base)) {
                idx = cand;
                ++stealClock;
                break;
            }
        }
        ++pmegSteals;
        chargePmap(machine.spec.costs.ptePageAlloc);
        releasePmeg(idx, false);
    }
    Pmeg &p = pmegs[idx];
    p.inUse = true;
    p.owner = pmap;
    p.segBase = seg_base;
    p.validCount = 0;
    p.wiredCount = 0;
    for (Pte &pte : p.ptes)
        pte = Pte{};
    pmap->segmap[seg_base] = idx;
    chargePmap(machine.spec.costs.ptePageAlloc);
    ++tablePagesBuilt;
    return idx;
}

void
Sun3PmapSystem::releasePmeg(unsigned idx, bool to_free_list)
{
    Pmeg &p = pmegs[idx];
    if (!p.inUse)
        return;
    VmSize hw = machine.spec.hwPageSize();
    for (unsigned slot = 0; slot < kPtesPerPmeg; ++slot) {
        if (p.ptes[slot].valid)
            invalidatePte(p, p.segBase + slot * hw);
    }
    shootdownRange(*p.owner, p.segBase, p.segBase + segmentSize(),
                   ShootdownMode::Immediate);
    p.owner->segmap.erase(p.segBase);
    p.inUse = false;
    p.owner = nullptr;
    ++tablePagesFreed;
    if (to_free_list)
        freeList.push_back(idx);
}

void
Sun3PmapSystem::dropAllMappings(Sun3Pmap *pmap)
{
    // Copy the segment list: releasePmeg edits pmap->segmap.
    std::vector<unsigned> indices;
    indices.reserve(pmap->segmap.size());
    for (auto &[seg, idx] : pmap->segmap)
        indices.push_back(idx);
    for (unsigned idx : indices)
        releasePmeg(idx, true);
}

void
Sun3PmapSystem::grantContext(Sun3Pmap *pmap)
{
    MACH_ASSERT(pmap->ctx == -1);
    for (unsigned i = 0; i < contexts.size(); ++i) {
        if (!contexts[i]) {
            contexts[i] = pmap;
            pmap->ctx = int(i);
            chargePmap(machine.spec.costs.contextLoad);
            return;
        }
    }
    // All 8 contexts taken: steal one from a map not on any CPU.
    unsigned scanned = 0;
    for (;; ++contextClock, ++scanned) {
        MACH_ASSERT(scanned <= contexts.size() * 2);
        unsigned cand = contextClock % contexts.size();
        Sun3Pmap *victim = contexts[cand];
        if (victim->cpusUsing().none()) {
            ++contextClock;
            ++contextSteals;
            chargePmap(machine.spec.costs.contextSteal);
            // The victim's hardware state is gone: drop its mappings
            // and let the machine-independent layer rebuild them at
            // fault time ("additional page faults", section 5.1).
            dropAllMappings(victim);
            victim->ctx = -1;
            contexts[cand] = pmap;
            pmap->ctx = int(cand);
            return;
        }
    }
}

void
Sun3PmapSystem::onPmapDestroy(Pmap *pmap)
{
    // The context table holds raw pointers into the pmap population;
    // a stale one would be dereferenced (and might be stolen from)
    // long after the map is freed.
    auto *sp = static_cast<Sun3Pmap *>(pmap);
    if (sp->ctx >= 0) {
        contexts[unsigned(sp->ctx)] = nullptr;
        sp->ctx = -1;
    }
}

Sun3PmapSystem::Pmeg &
Sun3PmapSystem::pmegOf(Sun3Pmap &pmap, VmOffset va)
{
    auto it = pmap.segmap.find(segBaseOf(va));
    MACH_ASSERT(it != pmap.segmap.end());
    return pmegs[it->second];
}

void
Sun3PmapSystem::invalidatePte(Pmeg &pmeg, VmOffset va)
{
    Pte &pte = pteOf(pmeg, va);
    MACH_ASSERT(pte.valid);
    pv().remove(pte.pageBase >> machine.spec.hwPageShift, pmeg.owner, va);
    pte.valid = false;
    if (pte.wired) {
        pte.wired = false;
        --pmeg.wiredCount;
    }
    --pmeg.validCount;
    --pmeg.owner->nMappings;
}

void
Sun3PmapSystem::dropMapping(Pmap &pmap, VmOffset va)
{
    invalidatePte(pmegOf(static_cast<Sun3Pmap &>(pmap), va), va);
}

void
Sun3PmapSystem::revokeWrite(Pmap &pmap, VmOffset va)
{
    Pte &pte = pteOf(pmegOf(static_cast<Sun3Pmap &>(pmap), va), va);
    MACH_ASSERT(pte.valid);
    pte.prot &= ~VmProt::Write;
}

} // namespace mach
