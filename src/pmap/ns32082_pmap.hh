/**
 * @file
 * National Semiconductor NS32082 pmap (Encore MultiMax, Sequent
 * Balance).
 *
 * Structurally a linear-page-table MMU like the VAX, but with the
 * three problems the paper calls out (section 5.1):
 *
 *  - only 16MB of virtual memory may be addressed per page table;
 *  - only 32MB of physical memory may be addressed;
 *  - a chip bug causes read-modify-write faults to be reported as
 *    read faults (modeled in Machine::translate; the
 *    machine-independent fault handler carries the workaround).
 *
 * The first two are enforced here: asking this module to map beyond
 * either limit is a hard error, so the machine-independent layer's
 * allocation limits are what keep the system inside them.
 *
 * The physical-page operations and their shootdown coalescing
 * (PmapBatch) are inherited unchanged through LinearPmapSystem from
 * PvPmapSystem: removeAll/copyOnWrite batch their per-sharer flushes,
 * which matters most here since the MultiMax and Balance are the
 * multiprocessor configurations of the evaluation.
 */

#ifndef MACH_PMAP_NS32082_PMAP_HH
#define MACH_PMAP_NS32082_PMAP_HH

#include "pmap/vax_pmap.hh"

namespace mach
{

class Ns32082PmapSystem;

/** An NS32082 physical map: a VAX-style map with hard limits. */
class Ns32082Pmap final : public LinearPmap
{
  public:
    Ns32082Pmap(LinearPmapSystem &lsys, bool kernel)
        : LinearPmap(lsys, kernel)
    {
        setHwOps(&kHwOpsFor<Ns32082Pmap>);
    }

  protected:
    void enterImpl(VmOffset va, PhysAddr pa, VmProt prot,
                   bool wired) override;
};

/** The NS32082 pmap module (512-byte pages, 4-byte PTEs, as the VAX). */
class Ns32082PmapSystem : public LinearPmapSystem
{
  public:
    using LinearPmapSystem::LinearPmapSystem;

  protected:
    std::unique_ptr<Pmap> allocatePmap(bool kernel) override
    {
        return std::make_unique<Ns32082Pmap>(*this, kernel);
    }
};

} // namespace mach

#endif // MACH_PMAP_NS32082_PMAP_HH
