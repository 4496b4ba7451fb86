#include "ipc/message.hh"

namespace mach
{

Message::~Message()
{
    if (oolSize)
        VmMap::discardCopy(std::move(oolEntries));
}

KernReturn
Message::attachMemory(VmMap &src, VmOffset addr, VmSize size)
{
    if (oolSize)
        return KernReturn::InvalidArgument;
    KernReturn kr = src.copyIn(addr, size, &oolEntries);
    if (kr != KernReturn::Success)
        return kr;
    oolSize = src.sys.pageRound(size);
    return KernReturn::Success;
}

KernReturn
Message::takeMemory(VmMap &dst, VmOffset *addr)
{
    if (!oolSize)
        return KernReturn::InvalidArgument;
    KernReturn kr = dst.copyOut(std::move(oolEntries), oolSize, addr);
    oolSize = 0;
    oolEntries.clear();
    return kr;
}

} // namespace mach
