#include "hw/machine.hh"

#include <algorithm>

#include "base/logging.hh"

namespace mach
{

namespace
{

/** Retries per page before declaring fault livelock. */
constexpr unsigned kMaxFaultRetries = 64;

} // namespace

Machine::Machine(const MachineSpec &spec)
    : spec(spec), physMem(this->spec, simClock)
{
    // NB: the parameter shadows the member here; the member copy is
    // what long-lived references (TLB cost tables) must bind to.
    MACH_ASSERT(this->spec.numCpus >= 1);
    cpus.reserve(this->spec.numCpus);
    for (unsigned i = 0; i < this->spec.numCpus; ++i)
        cpus.push_back(std::make_unique<Cpu>(i, this->spec, simClock));
}

Cpu &
Machine::cpu(CpuId id)
{
    MACH_ASSERT(id < cpus.size());
    return *cpus[id];
}

void
Machine::setFaultHandler(FaultHandler handler)
{
    faultHandler = std::move(handler);
}

void
Machine::bindSpace(CpuId cpu_id, TranslationSource *space)
{
    Cpu &c = cpu(cpu_id);
    if (c.space == space)
        return;
    c.space = space;
    c.spaceTag = space ? space->tlbTag() : nullptr;
    c.hwOps = space ? space->hwOps() : nullptr;
    simClock.charge(CostKind::PmapOp, spec.costs.contextLoad);
    // Untagged TLBs must be flushed on every address-space switch.
    if (!spec.tlbTaggedByContext)
        c.tlb.flushAll();
}

TranslationSource *
Machine::boundSpace(CpuId cpu_id)
{
    return cpu(cpu_id).space;
}

void
Machine::setCurrentCpu(CpuId id)
{
    MACH_ASSERT(id < cpus.size());
    curCpu = id;
    simClock.setTraceCpu(id);
}

bool
Machine::translate(Cpu &c, VmOffset va, AccessType type, PhysAddr &out,
                   FaultType &fault_out)
{
    // How would this access's fault be *reported*?  The NS32082 chip
    // bug reports read-modify-write faults as read faults (paper
    // section 5.1).
    FaultType reported;
    switch (type) {
      case AccessType::Read:
        reported = FaultType::Read;
        break;
      case AccessType::Write:
        reported = FaultType::Write;
        break;
      case AccessType::Execute:
        reported = FaultType::Execute;
        break;
      case AccessType::Rmw:
        reported = spec.rmwFaultBug ? FaultType::Read : FaultType::Write;
        break;
      default:
        reported = FaultType::Read;
        break;
    }

    if (!c.space) {
        fault_out = reported;
        return false;
    }

    const void *tag = c.spaceTag;
    VmOffset vpn = c.tlb.vpnOf(va);
    TlbEntry *entry = c.tlb.lookup(tag, vpn);
    if (!entry) {
        // TLB miss: walk the machine-dependent structure through the
        // concrete dispatch table (devirtualized per pmap type).
        simClock.charge(CostKind::TlbMiss, spec.costs.ptWalk);
        const HwOps &ops = *c.hwOps;
        auto tr = ops.lookup(c.space, truncTo(va, hwPageSize()), type);
        if (!tr) {
            fault_out = reported;
            return false;
        }
        entry = c.tlb.insertMissed(tag, vpn, *tr);
        ops.markRef(c.space, tr->pageBase);
    }

    if (!protIncludes(entry->prot, accessProt(type))) {
        fault_out = reported;
        return false;
    }

    if (accessWrites(type) && !entry->modified) {
        c.hwOps->markMod(c.space, va);
        entry->modified = true;
    }

    out = entry->pageBase + (va - (vpn << c.tlb.pageShift()));
    return true;
}

KernReturn
Machine::faultingTranslate(Cpu &c, VmOffset va, AccessType type,
                           PhysAddr &pa)
{
    for (unsigned attempt = 0; attempt < kMaxFaultRetries; ++attempt) {
        FaultType ft;
        if (translate(c, va, type, pa, ft))
            return KernReturn::Success;
        ++faults;
        if (!faultHandler)
            return KernReturn::InvalidAddress;
        KernReturn kr = faultHandler(c.id, va, ft);
        if (kr != KernReturn::Success)
            return kr;
    }
    panic("fault livelock at va %#llx (access type %u)",
          (unsigned long long)va, (unsigned)type);
}

KernReturn
Machine::accessOne(CpuId cpu_id, VmOffset va, VmSize len, AccessType type,
                   void *buf)
{
    Cpu &c = cpu(cpu_id);
    PhysAddr pa;
    KernReturn kr = faultingTranslate(c, va, type, pa);
    if (kr != KernReturn::Success)
        return kr;
    if (buf && type == AccessType::Read) {
        physMem.read(pa, buf, len);
    } else if (buf && accessWrites(type)) {
        physMem.write(pa, buf, len);
    }
    return KernReturn::Success;
}

KernReturn
Machine::read(CpuId cpu_id, VmOffset va, void *buf, VmSize len)
{
    if (len == 0)
        return KernReturn::Success;
    // Reject ranges that wrap the top of the address space (the
    // arithmetic below would silently restart at va 0).
    if (va + (len - 1) < va)
        return KernReturn::InvalidAddress;
    auto *out = static_cast<std::uint8_t *>(buf);
    VmSize page = hwPageSize();
    while (len > 0) {
        VmSize chunk = std::min<VmSize>(len, page - (va & (page - 1)));
        KernReturn kr = accessOne(cpu_id, va, chunk, AccessType::Read,
                                  out);
        if (kr != KernReturn::Success)
            return kr;
        va += chunk;
        out += chunk;
        len -= chunk;
    }
    return KernReturn::Success;
}

KernReturn
Machine::write(CpuId cpu_id, VmOffset va, const void *buf, VmSize len)
{
    if (len == 0)
        return KernReturn::Success;
    if (va + (len - 1) < va)
        return KernReturn::InvalidAddress;
    auto *in = static_cast<const std::uint8_t *>(buf);
    VmSize page = hwPageSize();
    while (len > 0) {
        VmSize chunk = std::min<VmSize>(len, page - (va & (page - 1)));
        KernReturn kr = accessOne(cpu_id, va, chunk, AccessType::Write,
                                  const_cast<std::uint8_t *>(in));
        if (kr != KernReturn::Success)
            return kr;
        va += chunk;
        in += chunk;
        len -= chunk;
    }
    return KernReturn::Success;
}

KernReturn
Machine::touch(CpuId cpu_id, VmOffset va, VmSize len, AccessType type)
{
    if (len == 0)
        return KernReturn::Success;
    VmOffset last = va + (len - 1);
    // A wrapped range used to make `end = va + len` land below va and
    // the loop touch nothing; reject it instead.
    if (last < va)
        return KernReturn::InvalidAddress;
    VmSize page = hwPageSize();
    VmOffset lastPage = truncTo(last, page);
    // Iterate by page start, inclusive of lastPage, so ranges ending
    // exactly at the top of the address space still touch every page.
    for (VmOffset p = truncTo(va, page);; p += page) {
        KernReturn kr = accessOne(cpu_id, std::max(p, va),
                                  1, type, nullptr);
        if (kr != KernReturn::Success)
            return kr;
        if (p == lastPage)
            break;
    }
    return KernReturn::Success;
}

KernReturn
Machine::probe(CpuId cpu_id, VmOffset va, AccessType type,
               PhysAddr *pa_out)
{
    PhysAddr pa;
    KernReturn kr = faultingTranslate(cpu(cpu_id), va, type, pa);
    if (kr == KernReturn::Success && pa_out)
        *pa_out = pa;
    return kr;
}

void
Machine::ipi(CpuId target, FunctionRef<void(Cpu &)> fn)
{
    simClock.charge(CostKind::Ipi, spec.costs.ipi);
    ++ipis;
    fn(cpu(target));
}

void
Machine::deferUntilTick(DeferredFn fn)
{
    deferred.push_back(std::move(fn));
}

void
Machine::timerTick()
{
    ++ticks;
    // Work queued before the tick runs now; work a callback queues
    // runs at the *next* tick.  `running` is a member so its buffer
    // (and the one it swaps into `deferred`) is reused across ticks.
    running.clear();
    running.swap(deferred);
    for (auto &fn : running)
        fn();
    running.clear();
}

std::uint64_t
Machine::tlbHits() const
{
    std::uint64_t n = 0;
    for (const auto &c : cpus)
        n += c->tlb.hits();
    return n;
}

std::uint64_t
Machine::tlbMisses() const
{
    std::uint64_t n = 0;
    for (const auto &c : cpus)
        n += c->tlb.misses();
    return n;
}

} // namespace mach
