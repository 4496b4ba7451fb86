/**
 * @file
 * The user-visible VM operations of Table 2-1.
 *
 * Each call applies to a target task's address map (in Mach the task
 * is named by a port; kern/task.hh provides that wrapping).  All but
 * vmStatistics take an address and a size in bytes; regions must be
 * aligned on system page boundaries.
 */

#ifndef MACH_VM_VM_USER_HH
#define MACH_VM_VM_USER_HH

#include <cstdint>
#include <vector>

#include "base/status.hh"
#include "base/types.hh"
#include "sim/metrics.hh"

namespace mach
{

class VmSys;
class VmMap;
class Pager;
struct VmRegionInfo;
struct VmStatistics;

/**
 * task_info-style VM summary of one task (Table 2-1's task_status,
 * reduced to its VM half): the accounting record maintained at the
 * fault/pageout emit sites plus the task's current footprint.
 */
struct TaskVmInfo
{
    /** Faults resolved for this task, by kind, + pageouts charged
     *  to the objects it maps. */
    VmAccounting acct;

    VmSize virtualSize = 0;       //!< bytes of mapped address space
    std::uint64_t residentPages = 0; //!< pages resident in mapped
                                     //!< objects (entry ranges only)
    std::uint64_t wiredPages = 0; //!< of those, wired down
};

/**
 * vm_allocate: allocate and fill with zeros new virtual memory,
 * either anywhere or at a specified address.
 */
KernReturn vmAllocate(VmSys &sys, VmMap &map, VmOffset *address,
                      VmSize size, bool anywhere);

/**
 * vm_allocate_with_pager: allocate a region backed by a memory
 * object (Table 3-2).
 */
KernReturn vmAllocateWithPager(VmSys &sys, VmMap &map,
                               VmOffset *address, VmSize size,
                               bool anywhere, Pager *pager,
                               VmOffset pager_offset);

/** vm_deallocate: make a range of addresses no longer valid. */
KernReturn vmDeallocate(VmSys &sys, VmMap &map, VmOffset address,
                        VmSize size);

/** vm_copy: virtually copy a range of memory. */
KernReturn vmCopy(VmSys &sys, VmMap &map, VmOffset source_address,
                  VmSize count, VmOffset dest_address);

/** vm_inherit: set the inheritance attribute of an address range. */
KernReturn vmInherit(VmSys &sys, VmMap &map, VmOffset address,
                     VmSize size, VmInherit new_inheritance);

/** vm_protect: set the protection attribute of an address range. */
KernReturn vmProtect(VmSys &sys, VmMap &map, VmOffset address,
                     VmSize size, bool set_maximum,
                     VmProt new_protection);

/** vm_read: read the contents of a region of a task's space. */
KernReturn vmRead(VmSys &sys, VmMap &map, VmOffset address,
                  VmSize size, std::vector<std::uint8_t> *data);

/** vm_write: write the contents of a region of a task's space. */
KernReturn vmWrite(VmSys &sys, VmMap &map, VmOffset address,
                   const void *data, VmSize count);

/** vm_regions: describe the region at/after *@p address. */
KernReturn vmRegions(VmSys &sys, VmMap &map, VmOffset *address,
                     VmRegionInfo *info);

/** vm_statistics: statistics about the use of memory. */
KernReturn vmStatistics(VmSys &sys, VmStatistics *stats);

/**
 * task_info (VM half): per-task fault accounting and footprint.
 * Walks @p map (recursing through sharing maps) to size the space
 * and count resident/wired pages of the mapped objects.
 */
KernReturn vmTaskInfo(VmSys &sys, VmMap &map, TaskVmInfo *info);

/**
 * vm_wire: make [address, address+size) unpageable (faulting it in)
 * or pageable again.  Wired pages are never reclaimed by the pageout
 * daemon and their mappings are never dropped by the pmap.
 */
KernReturn vmWire(VmSys &sys, VmMap &map, VmOffset address,
                  VmSize size, bool wire);

} // namespace mach

#endif // MACH_VM_VM_USER_HH
