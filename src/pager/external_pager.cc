#include "pager/external_pager.hh"

#include <cstring>

#include "base/logging.hh"
#include "kern/kernel.hh"
#include "sim/fault_inject.hh"
#include "vm/vm_object.hh"

namespace mach
{

ExternalPager::ExternalPager(Kernel &kernel, const std::string &name)
    : kernel(kernel), pagerName(name),
      objPort(name + ".object"), reqPort(name + ".request"),
      nmPort(name + ".name")
{
}

void
ExternalPager::init(VmObject *obj)
{
    object = obj;
    Message msg(MsgId::PagerInit);
    msg.replyPort = &reqPort;
    kernel.sendMessage(objPort, std::move(msg));
    pump();
}

void
ExternalPager::drainRequests()
{
    while (auto msg = reqPort.receive()) {
        applyRequest(*msg);
        ++served;
    }
}

void
ExternalPager::pump()
{
    // Run the user pager's server loop, then apply whatever calls it
    // made on the kernel.
    if (service)
        service(*this);
    drainRequests();
}

PagerResult
ExternalPager::dataRequest(VmObject *obj, VmOffset offset, VmPage *page,
                           VmProt desired_access)
{
    MACH_ASSERT(obj == object);

    // Simulated message loss / pager failure: the request never
    // reaches the user pager (or its reply is dropped).
    if (inject) {
        PagerResult pr = inject->decide(FaultOp::ExtRequest, offset);
        if (pr != PagerResult::Ok)
            return pr;
    }

    PendingFill fill{offset, page, false, false};
    pending = &fill;

    Message msg(MsgId::PagerDataRequest);
    msg.replyPort = &reqPort;
    msg.words = {offset, kernel.pageSize(),
                 static_cast<std::uint64_t>(desired_access)};
    kernel.sendMessage(objPort, std::move(msg));

    pump();
    pending = nullptr;
    if (fill.satisfied)
        return PagerResult::Ok;
    if (fill.unavailable)
        return PagerResult::Unavailable;
    // A real user pager may take arbitrarily long — or never answer
    // at all.  The kernel cannot block forever on user state; report
    // a timeout and let the fault handler retry or give up.
    return PagerResult::Timeout;
}

PagerResult
ExternalPager::dataWrite(VmObject *obj, VmOffset offset, VmPage *page)
{
    MACH_ASSERT(obj == object);

    if (inject) {
        PagerResult pr = inject->decide(FaultOp::ExtRequest, offset);
        if (pr != PagerResult::Ok)
            return pr;
    }

    Message msg(MsgId::PagerDataWrite);
    msg.replyPort = &reqPort;
    msg.words = {offset};
    msg.inlineData.resize(kernel.pageSize());
    kernel.machine.memory().read(page->physAddr, msg.inlineData.data(),
                                 kernel.pageSize());
    kernel.sendMessage(objPort, std::move(msg));
    pump();
    return PagerResult::Ok;
}

void
ExternalPager::dataUnlock(VmObject *obj, VmOffset offset,
                          VmProt desired_access)
{
    MACH_ASSERT(obj == object);
    Message msg(MsgId::PagerDataUnlock);
    msg.replyPort = &reqPort;
    msg.words = {offset, kernel.pageSize(),
                 static_cast<std::uint64_t>(desired_access)};
    kernel.sendMessage(objPort, std::move(msg));
    pump();
}

bool
ExternalPager::hasData(VmObject *obj, VmOffset offset)
{
    (void)obj;
    (void)offset;
    // Only the user pager knows; the kernel always asks, and the
    // pager answers data_provided or data_unavailable.
    return true;
}

void
ExternalPager::terminate(VmObject *obj)
{
    MACH_ASSERT(obj == object);
    Message msg(MsgId::PagerTerminate);
    kernel.sendMessage(objPort, std::move(msg));
    pump();
    object = nullptr;
}

void
ExternalPager::pagerDataProvided(VmOffset offset, const void *data,
                                 VmSize len, VmProt lock_value)
{
    Message msg(MsgId::PagerDataProvided);
    msg.words = {offset, static_cast<std::uint64_t>(lock_value)};
    msg.inlineData.assign(static_cast<const std::uint8_t *>(data),
                          static_cast<const std::uint8_t *>(data) + len);
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::pagerDataUnavailable(VmOffset offset, VmSize size)
{
    Message msg(MsgId::PagerDataUnavailable);
    msg.words = {offset, size};
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::pagerDataLock(VmOffset offset, VmSize length,
                             VmProt lock_value)
{
    Message msg(MsgId::PagerDataLock);
    msg.words = {offset, length,
                 static_cast<std::uint64_t>(lock_value)};
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::pagerCleanRequest(VmOffset offset, VmSize length)
{
    Message msg(MsgId::PagerCleanRequest);
    msg.words = {offset, length};
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::pagerFlushRequest(VmOffset offset, VmSize length)
{
    Message msg(MsgId::PagerFlushRequest);
    msg.words = {offset, length};
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::pagerReadonly()
{
    reqPort.send(Message(MsgId::PagerReadonly));
    drainRequests();
}

void
ExternalPager::pagerCache(bool should_cache)
{
    Message msg(MsgId::PagerCache);
    msg.words = {should_cache ? 1u : 0u};
    reqPort.send(std::move(msg));
    drainRequests();
}

void
ExternalPager::applyRequest(Message &msg)
{
    VmSys &vm = *kernel.vm;
    switch (static_cast<MsgId>(msg.id)) {
      case MsgId::PagerDataProvided: {
        VmOffset offset = msg.word(0);
        auto lock = static_cast<VmProt>(msg.word(1));
        if (pending && vm.pageTrunc(offset) == pending->offset) {
            VmSize len = std::min<VmSize>(msg.inlineData.size(),
                                          vm.pageSize());
            kernel.machine.memory().write(pending->page->physAddr,
                                          msg.inlineData.data(), len);
            if (len < vm.pageSize()) {
                std::memset(
                    kernel.machine.memory().data(
                        pending->page->physAddr + len,
                        vm.pageSize() - len),
                    0, vm.pageSize() - len);
            }
            pending->satisfied = true;
        }
        if (object)
            object->setLock(vm.pageTrunc(offset), lock);
        break;
      }
      case MsgId::PagerDataUnavailable: {
        if (pending && vm.pageTrunc(msg.word(0)) == pending->offset)
            pending->unavailable = true;
        break;
      }
      case MsgId::PagerDataLock: {
        VmOffset offset = vm.pageTrunc(msg.word(0));
        VmOffset end = msg.word(0) + msg.word(1);
        auto lock = static_cast<VmProt>(msg.word(2));
        for (VmOffset off = offset; off < end; off += vm.pageSize()) {
            object->setLock(off, lock);
            // Revoke existing hardware mappings so the lock is
            // observed at the next access.
            if (lock != VmProt::None) {
                if (VmPage *pg = object->pageAt(off)) {
                    vm.pmaps.removeAll(pg->physAddr,
                                       ShootdownMode::Immediate);
                }
            }
        }
        break;
      }
      case MsgId::PagerCleanRequest: {
        // Force modified cached data back to the memory object.
        VmOffset start = vm.pageTrunc(msg.word(0));
        VmOffset end = msg.word(0) + msg.word(1);
        for (VmOffset off = start; off < end; off += vm.pageSize()) {
            VmPage *p = object->pageAt(off);
            if (!p)
                continue;
            if (p->dirty || vm.pmaps.isModified(p->physAddr)) {
                vm.pmaps.removeAll(p->physAddr,
                                   ShootdownMode::Immediate);
                if (dataWrite(object, p->offset, p) ==
                    PagerResult::Ok) {
                    p->dirty = false;
                    vm.pmaps.resetAttrs(p->physAddr);
                } else {
                    // The write was lost; the page stays dirty so a
                    // later clean or pageout retries it.
                    p->dirty = true;
                }
            }
        }
        break;
      }
      case MsgId::PagerFlushRequest: {
        // Force physically cached data to be destroyed.
        VmOffset start = vm.pageTrunc(msg.word(0));
        VmOffset end = msg.word(0) + msg.word(1);
        for (VmOffset off = start; off < end; off += vm.pageSize()) {
            VmPage *p = object->pageAt(off);
            // A wired page must stay resident and mapped (the kernel
            // may be running on it), so the flush leaves it alone.
            if (!p || p->wireCount > 0)
                continue;
            vm.pmaps.removeAll(p->physAddr, ShootdownMode::Immediate);
            vm.freePage(p);
        }
        break;
      }
      case MsgId::PagerReadonly: {
        object->copyOnWriteOnly = true;
        // Existing writable mappings must be revoked.
        for (VmPage *p : object->pages)
            vm.pmaps.copyOnWrite(p->physAddr);
        break;
      }
      case MsgId::PagerCache: {
        object->canPersist = msg.word(0) != 0;
        break;
      }
      default:
        warn("external pager sent unknown request id %u", msg.id);
    }
}

} // namespace mach
