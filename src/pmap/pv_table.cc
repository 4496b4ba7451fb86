#include "pmap/pv_table.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach
{

void
PvTable::grow(FrameNum frame)
{
    heads.resize(std::max<std::size_t>(
                     std::bit_ceil(std::size_t(frame) + 1), 64),
                 nullptr);
}

bool
PvPmapSystem::unmapped(PhysAddr pa) const
{
    FrameNum first = frameOf(pa);
    for (FrameNum f = first; f < first + framesPerPage; ++f) {
        if (!pvTable.empty(f))
            return false;
    }
    return true;
}

void
PvPmapSystem::removeAllImpl(PhysAddr pa, ShootdownMode mode)
{
    // Common on the object-teardown path, where the map deallocation
    // already emptied every chain.
    if (unmapped(pa))
        return;
    const MachineSpec &spec = machine.spec;
    VmSize hw = spec.hwPageSize();
    // Coalesce the per-sharer flushes into one round even when the
    // caller did not open a batch of its own.
    PmapBatch batch(*this);
    FrameNum first = frameOf(pa);
    for (FrameNum f = first; f < first + framesPerPage; ++f) {
        // Drain the chain head-first: dropMapping removes the head
        // record, so each round sees the next mapping, oldest first.
        while (const PvEntry *e = pvTable.first(f)) {
            Pmap &pmap = *e->pmap;
            VmOffset va = e->va;
            std::size_t left = pvTable.totalMappings();
            dropMapping(pmap, va);
            MACH_ASSERT(pvTable.totalMappings() < left);
            chargePmap(spec.costs.pmapRemovePerPage);
            shootdownRange(pmap, va, va + hw, mode);
        }
    }
}

void
PvPmapSystem::copyOnWriteImpl(PhysAddr pa, ShootdownMode mode)
{
    if (unmapped(pa))
        return;
    const MachineSpec &spec = machine.spec;
    VmSize hw = spec.hwPageSize();
    PmapBatch batch(*this);
    FrameNum first = frameOf(pa);
    for (FrameNum f = first; f < first + framesPerPage; ++f) {
        pvTable.forEach(f, [&](const PvEntry &e) {
            revokeWrite(*e.pmap, e.va);
            chargePmap(spec.costs.pmapProtectPerPage);
            shootdownRange(*e.pmap, e.va, e.va + hw, mode);
        });
    }
}

} // namespace mach
