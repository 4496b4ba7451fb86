#include "vm/vm_user.hh"

#include <algorithm>
#include <cstring>

#include "base/logging.hh"
#include "vm/vm_map.hh"
#include "vm/vm_object.hh"
#include "vm/vm_sys.hh"

namespace mach
{

namespace
{

void
chargeSyscall(VmSys &sys)
{
    sys.machine.clock().charge(CostKind::Software,
                               sys.machine.spec.costs.syscall);
}

} // namespace

KernReturn
vmAllocate(VmSys &sys, VmMap &map, VmOffset *address, VmSize size,
           bool anywhere)
{
    chargeSyscall(sys);
    return map.allocate(address, size, anywhere);
}

KernReturn
vmAllocateWithPager(VmSys &sys, VmMap &map, VmOffset *address,
                    VmSize size, bool anywhere, Pager *pager,
                    VmOffset pager_offset)
{
    chargeSyscall(sys);
    // Persistence beyond the last reference is only granted when
    // the pager requests it (pager_cache, Table 3-2).
    VmObject *object = VmObject::allocateWithPager(
        sys, size, pager, pager_offset, false);
    KernReturn kr = map.allocateObject(
        address, size, anywhere, object, 0, false, VmProt::Default,
        VmProt::All, VmInherit::Copy);
    if (kr != KernReturn::Success)
        object->deallocate();
    return kr;
}

KernReturn
vmDeallocate(VmSys &sys, VmMap &map, VmOffset address, VmSize size)
{
    chargeSyscall(sys);
    return map.deallocate(address, size);
}

KernReturn
vmCopy(VmSys &sys, VmMap &map, VmOffset source_address, VmSize count,
       VmOffset dest_address)
{
    chargeSyscall(sys);
    return map.virtualCopy(map, source_address, count, dest_address);
}

KernReturn
vmInherit(VmSys &sys, VmMap &map, VmOffset address, VmSize size,
          VmInherit new_inheritance)
{
    chargeSyscall(sys);
    return map.inherit(address, size, new_inheritance);
}

KernReturn
vmProtect(VmSys &sys, VmMap &map, VmOffset address, VmSize size,
          bool set_maximum, VmProt new_protection)
{
    chargeSyscall(sys);
    return map.protect(address, size, set_maximum, new_protection);
}

KernReturn
vmRead(VmSys &sys, VmMap &map, VmOffset address, VmSize size,
       std::vector<std::uint8_t> *data)
{
    chargeSyscall(sys);
    data->clear();
    if (size == 0)
        return KernReturn::Success;
    // Checked before sizing the buffer from the caller's count.
    if (KernReturn kr = map.checkRange(address, size);
        kr != KernReturn::Success)
        return kr;
    data->resize(size);
    VmSize page = sys.pageSize();
    VmOffset va = address;
    VmSize done = 0;
    while (done < size) {
        VmPage *pg = nullptr;
        KernReturn kr = sys.fault(map, va, FaultType::Read, &pg);
        if (kr != KernReturn::Success) {
            data->clear();
            return kr;
        }
        VmOffset in_page = va & (page - 1);
        VmSize chunk = std::min<VmSize>(size - done, page - in_page);
        sys.machine.memory().read(pg->physAddr + in_page,
                                  data->data() + done, chunk);
        va += chunk;
        done += chunk;
    }
    return KernReturn::Success;
}

KernReturn
vmWrite(VmSys &sys, VmMap &map, VmOffset address, const void *data,
        VmSize count)
{
    chargeSyscall(sys);
    const auto *src = static_cast<const std::uint8_t *>(data);
    VmSize page = sys.pageSize();
    VmOffset va = address;
    VmSize done = 0;
    while (done < count) {
        VmPage *pg = nullptr;
        KernReturn kr = sys.fault(map, va, FaultType::Write, &pg);
        if (kr != KernReturn::Success)
            return kr;
        VmOffset in_page = va & (page - 1);
        VmSize chunk = std::min<VmSize>(count - done, page - in_page);
        sys.machine.memory().write(pg->physAddr + in_page,
                                   src + done, chunk);
        va += chunk;
        done += chunk;
    }
    return KernReturn::Success;
}

KernReturn
vmRegions(VmSys &sys, VmMap &map, VmOffset *address, VmRegionInfo *info)
{
    chargeSyscall(sys);
    return map.region(address, info);
}

KernReturn
vmStatistics(VmSys &sys, VmStatistics *stats)
{
    chargeSyscall(sys);
    *stats = sys.statistics();
    return KernReturn::Success;
}

namespace
{

/** Count resident/wired pages of @p map's entries into @p info. */
void
taskInfoWalk(VmMap &map, TaskVmInfo *info)
{
    for (const VmMapEntry &e : map.entryList()) {
        info->virtualSize += e.size();
        if (e.submap) {
            // Shared region: charge the sharers like the paper's
            // task_status does — each sees the pages it can reach.
            taskInfoWalk(*e.submap, info);
            continue;
        }
        if (!e.object)
            continue;  // untouched zero-fill range
        for (const VmPage *p : e.object->pages) {
            if (p->offset < e.offset ||
                p->offset >= e.offset + e.size()) {
                continue;
            }
            ++info->residentPages;
            if (p->wireCount > 0)
                ++info->wiredPages;
        }
    }
}

} // namespace

KernReturn
vmTaskInfo(VmSys &sys, VmMap &map, TaskVmInfo *info)
{
    chargeSyscall(sys);
    *info = TaskVmInfo{};
    info->acct = map.acct;
    taskInfoWalk(map, info);
    return KernReturn::Success;
}

KernReturn
vmWire(VmSys &sys, VmMap &map, VmOffset address, VmSize size,
       bool wire)
{
    chargeSyscall(sys);
    if (KernReturn kr = map.checkRange(address, size);
        kr != KernReturn::Success)
        return kr;
    if (wire)
        return sys.wireRange(map, address, address + size);
    return map.setPageable(address, size, true);
}

} // namespace mach
