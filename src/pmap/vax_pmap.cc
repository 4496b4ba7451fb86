#include "pmap/vax_pmap.hh"

#include <algorithm>
#include <bit>
#include <new>

namespace mach
{

namespace
{

/** Table pages carved from each zone chunk (about 33KB). */
constexpr std::size_t kTablePagesPerChunk = 32;

} // namespace

LinearPmap::LinearPmap(LinearPmapSystem &lsys, bool kernel)
    : Pmap(lsys, kernel), lsys(lsys),
      hwShift(lsys.getMachine().spec.hwPageShift)
{
}

LinearPmap::PteRef
LinearPmap::lookupPte(VmOffset va)
{
    VmOffset vpn = va >> hwShift;
    VmOffset index = vpn >> kPteIndexShift;
    if (index >= dir.size() || !dir[index])
        return {};
    PtPage *pt = dir[index];
    return {&pt->ptes[vpn & (kPtesPerTablePage - 1)], pt};
}

LinearPmap::PteRef
LinearPmap::forcePte(VmOffset va)
{
    VmOffset vpn = va >> hwShift;
    VmOffset index = vpn >> kPteIndexShift;
    if (index >= dir.size())
        growDirectory(index);
    PtPage *&pt = dir[index];
    if (!pt) {
        pt = new (lsys.tablePageZone.alloc()) PtPage();
        lsys.chargePmap(lsys.getMachine().spec.costs.ptePageAlloc);
        ++lsys.tablePagesBuilt;
    }
    return {&pt->ptes[vpn & (kPtesPerTablePage - 1)], pt};
}

void
LinearPmap::growDirectory(VmOffset index)
{
    dir.resize(std::max<std::size_t>(
                   std::bit_ceil(std::size_t(index) + 1), 16),
               nullptr);
}

void
LinearPmap::freeTablePage(VmOffset index)
{
    MACH_ASSERT(dir[index] && dir[index]->validCount == 0);
    lsys.tablePageZone.free(dir[index]);
    dir[index] = nullptr;
    ++lsys.tablePagesFreed;
}

void
LinearPmap::invalidatePte(VmOffset va, PtPage &pt, Pte &pte)
{
    MACH_ASSERT(pte.valid);
    lsys.pv().remove(pte.frame, this, va);
    pte.valid = false;
    if (pte.wired) {
        pte.wired = false;
        --pt.wiredCount;
    }
    --pt.validCount;
    --nMappings;
}

void
LinearPmap::enterImpl(VmOffset va, PhysAddr pa, VmProt prot, bool wired)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    VmSize machPage = lsys.machPageSize();
    MACH_ASSERT((va & (machPage - 1)) == 0 &&
                (pa & (machPage - 1)) == 0);

    // One machine-independent page expands to machPage/hw PTEs.
    unsigned entered = 0;
    for (VmSize off = 0; off < machPage; off += hw) {
        PteRef ref = forcePte(va + off);
        if (ref.pte->valid)
            invalidatePte(va + off, *ref.page, *ref.pte);
        FrameNum frame = (pa + off) >> hwShift;
        MACH_ASSERT(frame <= UINT32_MAX);
        ref.pte->valid = true;
        ref.pte->frame = std::uint32_t(frame);
        ref.pte->setProtection(prot);
        ref.pte->wired = wired;
        if (wired)
            ++ref.page->wiredCount;
        ++ref.page->validCount;
        ++nMappings;
        ++entered;
        lsys.pv().add(frame, this, va + off);
    }
    // One batched charge: per-PTE cost, identical total to charging
    // inside the loop (nothing in the loop observes the clock).
    lsys.chargePmap(SimTime(entered) * spec.costs.pmapEnter);
    // The entered translation may shadow a stale TLB entry.
    shootdown(va, va + machPage, ShootdownMode::Immediate);
}

void
LinearPmap::removeImpl(VmOffset start, VmOffset end)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    const unsigned tableShift = hwShift + kPteIndexShift;
    unsigned removed = 0;

    // Walk only the built table pages that overlap [start, end).
    VmOffset limit = end ? ((end - 1) >> tableShift) + 1 : 0;
    limit = std::min<VmOffset>(limit, dir.size());
    for (VmOffset index = start >> tableShift; index < limit; ++index) {
        PtPage *pt = dir[index];
        if (!pt)
            continue;
        // Clip [start, end) against this table's span once, instead
        // of range-testing every PTE.
        VmOffset base = index << tableShift;
        VmOffset top = std::min(base + (VmOffset(1) << tableShift), end);
        unsigned i = base < start ? unsigned((start - base) >> hwShift) : 0;
        unsigned iEnd = unsigned((top - base) >> hwShift);
        for (; i < iEnd; ++i) {
            Pte &pte = pt->ptes[i];
            if (pte.valid) {
                invalidatePte(base + VmOffset(i) * hw, *pt, pte);
                ++removed;
            }
        }
        if (pt->validCount == 0)
            freeTablePage(index);
    }

    if (removed) {
        lsys.chargePmap(SimTime(removed) * spec.costs.pmapRemovePerPage);
        shootdown(start, end, lsys.policy.remove);
    }
}

void
LinearPmap::protectImpl(VmOffset start, VmOffset end, VmProt prot)
{
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned changed = 0;
    for (VmOffset va = truncTo(start, hw); va < end; va += hw) {
        PteRef ref = lookupPte(va);
        if (ref && ref.pte->valid) {
            ref.pte->setProtection(ref.pte->protection() & prot);
            ++changed;
        }
    }
    if (changed) {
        lsys.chargePmap(SimTime(changed) * spec.costs.pmapProtectPerPage);
        shootdown(start, end, lsys.policy.protect);
    }
}

std::optional<PhysAddr>
LinearPmap::extract(VmOffset va)
{
    PteRef ref = lookupPte(va);
    if (!ref || !ref.pte->valid)
        return std::nullopt;
    return pageBaseOf(*ref.pte) + (va & ((VmOffset(1) << hwShift) - 1));
}

std::optional<HwTranslation>
LinearPmap::hwLookup(VmOffset va, AccessType access)
{
    (void)access;  // a linear table serves any requester
    PteRef ref = lookupPte(va);
    if (!ref || !ref.pte->valid)
        return std::nullopt;
    return HwTranslation{pageBaseOf(*ref.pte), ref.pte->protection(),
                         ref.pte->wired};
}

void
LinearPmap::copyFrom(Pmap &src, VmOffset dst_addr, VmSize len,
                     VmOffset src_addr)
{
    auto *sp = dynamic_cast<LinearPmap *>(&src);
    if (!sp)
        return;
    const MachineSpec &spec = lsys.getMachine().spec;
    VmSize hw = spec.hwPageSize();
    unsigned copied = 0;
    for (VmSize off = 0; off < len; off += hw) {
        PteRef theirs = sp->lookupPte(src_addr + off);
        if (!theirs || !theirs.pte->valid || theirs.pte->wired)
            continue;
        PteRef mine = forcePte(dst_addr + off);
        if (mine.pte->valid)
            continue;  // never overwrite an existing mapping
        mine.pte->valid = true;
        mine.pte->frame = theirs.pte->frame;
        // Read-only: a write must still take the COW fault.
        mine.pte->setProtection(theirs.pte->protection() &
                                ~VmProt::Write);
        mine.pte->wired = false;
        ++mine.page->validCount;
        ++nMappings;
        ++copied;
        lsys.pv().add(theirs.pte->frame, this, dst_addr + off);
    }
    lsys.chargePmap(SimTime(copied) * (spec.costs.pmapEnter / 2));
}

void
LinearPmap::garbageCollect()
{
    // Kernel mappings must stay complete and accurate.
    if (kernel())
        return;
    VmSize hw = lsys.getMachine().spec.hwPageSize();
    const unsigned tableShift = hwShift + kPteIndexShift;
    VmOffset flush_lo = ~VmOffset(0);
    VmOffset flush_hi = 0;
    for (VmOffset index = 0; index < dir.size(); ++index) {
        PtPage *pt = dir[index];
        if (!pt || pt->wiredCount > 0)
            continue;
        // Drop the whole table page: the machine-independent layer
        // can rebuild every mapping at fault time.
        VmOffset base = index << tableShift;
        for (unsigned i = 0; i < kPtesPerTablePage; ++i) {
            Pte &pte = pt->ptes[i];
            if (pte.valid)
                invalidatePte(base + VmOffset(i) * hw, *pt, pte);
        }
        flush_lo = std::min(flush_lo, base);
        flush_hi = std::max(flush_hi, base + (VmOffset(1) << tableShift));
        freeTablePage(index);
    }
    if (flush_hi > flush_lo)
        shootdown(flush_lo, flush_hi, ShootdownMode::Immediate);
}

LinearPmapSystem::LinearPmapSystem(Machine &machine)
    : PvPmapSystem(machine),
      tablePageZone(sizeof(LinearPmap::PtPage), kTablePagesPerChunk)
{
}

std::unique_ptr<Pmap>
LinearPmapSystem::allocatePmap(bool kernel)
{
    return std::make_unique<VaxPmap>(*this, kernel);
}

void
LinearPmapSystem::dropMapping(Pmap &pmap, VmOffset va)
{
    auto &lp = static_cast<LinearPmap &>(pmap);
    LinearPmap::PteRef ref = lp.lookupPte(va);
    MACH_ASSERT(ref && ref.pte->valid);
    lp.invalidatePte(va, *ref.page, *ref.pte);
}

void
LinearPmapSystem::revokeWrite(Pmap &pmap, VmOffset va)
{
    LinearPmap::PteRef ref = static_cast<LinearPmap &>(pmap).lookupPte(va);
    MACH_ASSERT(ref && ref.pte->valid);
    ref.pte->setProtection(ref.pte->protection() & ~VmProt::Write);
}

} // namespace mach
