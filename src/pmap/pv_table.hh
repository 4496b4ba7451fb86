/**
 * @file
 * Physical-to-virtual mapping table, and the pmap module half built
 * on it.
 *
 * The physical-page-indexed operations of Table 3-3 (pmap_remove_all,
 * pmap_copy_on_write) must find every (pmap, va) that maps a frame.
 * Architectures with forward tables (VAX, SUN 3, NS32082, software
 * TLB) keep this reverse index in a PvPmapSystem, which walks it for
 * them: each such backend supplies only its table plus two
 * one-mapping primitives (drop a mapping, revoke its write right).
 * The RT PC's inverted page table *is* its reverse index, so that
 * module supplies its own physical operations instead.
 *
 * The index is a per-frame singly-linked chain of zone-allocated
 * nodes under a flat head array: entering or removing a mapping on
 * the fault path is a freelist pop/push and a pointer splice, with no
 * heap traffic and no hashing.  Chains keep insertion order (new
 * entries append at the tail), matching the historical iteration
 * order the trace streams were baselined against.
 */

#ifndef MACH_PMAP_PV_TABLE_HH
#define MACH_PMAP_PV_TABLE_HH

#include <bit>
#include <vector>

#include "base/types.hh"
#include "base/zone.hh"
#include "pmap/pmap.hh"

namespace mach
{

/** One virtual mapping of a physical frame. */
struct PvEntry
{
    Pmap *pmap = nullptr;
    VmOffset va = 0;
};

/** Reverse (frame -> virtual mappings) index. */
class PvTable
{
  public:
    PvTable() : nodeZone(sizeof(PvNode), 512) {}

    /** Record that (@p pmap, @p va) maps hardware frame @p frame. */
    void
    add(FrameNum frame, Pmap *pmap, VmOffset va)
    {
        if (frame >= heads.size())
            grow(frame);
        // Walk to the tail, deduplicating on the way: chains append
        // in insertion order so physical-op walks see mappings
        // oldest-first, as the vector-backed table did.
        PvNode **link = &heads[frame];
        while (*link) {
            if ((*link)->entry.pmap == pmap && (*link)->entry.va == va)
                return;  // already recorded
            link = &(*link)->next;
        }
        auto *n = static_cast<PvNode *>(nodeZone.alloc());
        n->entry = {pmap, va};
        n->next = nullptr;
        *link = n;
        ++count;
    }

    /** Remove one mapping record; no-op if absent. */
    void
    remove(FrameNum frame, Pmap *pmap, VmOffset va)
    {
        if (frame >= heads.size())
            return;
        // add() deduplicates, so at most one node matches.
        for (PvNode **link = &heads[frame]; *link;
             link = &(*link)->next) {
            PvNode *n = *link;
            if (n->entry.pmap == pmap && n->entry.va == va) {
                *link = n->next;
                nodeZone.free(n);
                --count;
                return;
            }
        }
    }

    /**
     * The first recorded mapping of @p frame, or nullptr.  Drives
     * allocation-free drain loops: process the head, remove it, and
     * ask again —
     *     while (const PvEntry *e = pv.first(frame)) { ... }
     * The pointer is invalidated by any add/remove on the table.
     */
    const PvEntry *
    first(FrameNum frame) const
    {
        const PvNode *n = headOf(frame);
        return n ? &n->entry : nullptr;
    }

    /**
     * Visit each mapping of @p frame without copying the chain.
     * Only for read-only walkers: @p fn must not add or remove
     * entries for @p frame (use first() for mutating loops).
     */
    template <typename Fn>
    void
    forEach(FrameNum frame, Fn &&fn) const
    {
        for (const PvNode *n = headOf(frame); n; n = n->next)
            fn(n->entry);
    }

    /** True if @p frame has no recorded mappings. */
    bool empty(FrameNum frame) const { return headOf(frame) == nullptr; }

    /** Total recorded mappings (for audits and leak checks). */
    std::size_t totalMappings() const { return count; }

  private:
    struct PvNode
    {
        PvEntry entry;
        PvNode *next = nullptr;
    };

    PvNode *
    headOf(FrameNum frame) const
    {
        return frame < heads.size() ? heads[frame] : nullptr;
    }

    /** Out-of-line resize keeps add()'s inline body small. */
    void grow(FrameNum frame);

    Zone nodeZone;
    /** frame -> chain head; grown lazily to the highest frame seen. */
    std::vector<PvNode *> heads;
    std::size_t count = 0;
};

/**
 * The system half of every forward-table pmap module: owns the PV
 * table and implements pmap_remove_all / pmap_copy_on_write once, as
 * a walk over each hardware frame's chain inside one PmapBatch.  A
 * page with no recorded mappings returns before the batch opens, so
 * it charges and flushes nothing.
 */
class PvPmapSystem : public PmapSystem
{
  public:
    PvTable &pv() { return pvTable; }
    const PvTable &pv() const { return pvTable; }

  protected:
    explicit PvPmapSystem(Machine &machine) : PmapSystem(machine) {}

    /**
     * Drop @p pmap's hardware mapping of @p va, which must exist, and
     * its PV record.  No charge and no flush: the walk does both.
     */
    virtual void dropMapping(Pmap &pmap, VmOffset va) = 0;

    /** Take write permission from @p pmap's existing mapping of @p va. */
    virtual void revokeWrite(Pmap &pmap, VmOffset va) = 0;

  private:
    void removeAllImpl(PhysAddr pa, ShootdownMode mode) final;
    void copyOnWriteImpl(PhysAddr pa, ShootdownMode mode) final;

    /** True when no hardware frame of the page at @p pa is mapped. */
    bool unmapped(PhysAddr pa) const;

    PvTable pvTable;
};

} // namespace mach

#endif // MACH_PMAP_PV_TABLE_HH
