/**
 * @file
 * Ablation D (paper section 5.2): TLB consistency strategies on a
 * shared-memory multiprocessor.
 *
 * None of the multiprocessors running Mach keep TLBs consistent in
 * hardware, and a remote TLB cannot be modified.  The paper lists
 * three strategies: (1) forcibly interrupt all CPUs using the map,
 * (2) postpone until every CPU has taken a timer interrupt, (3)
 * allow temporary inconsistency.  This benchmark runs a protection
 * storm on a region active on 1..8 CPUs under each strategy and
 * reports cost and IPI traffic.
 */

#include <cstdio>

#include "base/logging.hh"
#include "bench_report.hh"
#include "kern/kernel.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

using namespace bench;

struct StormResult
{
    SimTime time;
    std::uint64_t ipis;
    std::uint64_t deferred;
    std::uint64_t lazy;
};

/** Build a kernel with a task running on every CPU. */
std::unique_ptr<Kernel>
bootOnCpus(unsigned cpus, bool batched, Task *&task)
{
    MachineSpec spec = MachineSpec::encoreMultimax(cpus);
    spec.physMemBytes = 8ull << 20;
    auto kernel = std::make_unique<Kernel>(spec);
    kernel->pmaps->coalesceShootdowns = batched;
    task = kernel->taskCreate();
    for (unsigned c = 0; c < cpus; ++c) {
        kernel->threadCreate(*task);
        kernel->switchTo(task, c);
    }
    return kernel;
}

/** Map and dirty @p size bytes on every CPU; returns the address. */
VmOffset
populate(Kernel &kernel, Task &task, unsigned cpus, VmSize size)
{
    VmOffset addr = 0;
    (void)task.map().allocate(&addr, size, true);
    for (unsigned c = 0; c < cpus; ++c) {
        kernel.machine.setCurrentCpu(c);
        (void)kernel.machine.touch(c, addr, size, AccessType::Write);
    }
    kernel.machine.setCurrentCpu(0);
    return addr;
}

StormResult
protectStorm(unsigned cpus, ShootdownMode mode, unsigned rounds)
{
    Task *task = nullptr;
    auto kernel = bootOnCpus(cpus, true, task);
    kernel->pmaps->policy.protect = mode;
    VmSize size = 16 * kernel->pageSize();
    VmOffset addr = populate(*kernel, *task, cpus, size);

    std::uint64_t ipis0 = kernel->machine.ipiCount();
    std::uint64_t deferred0 = kernel->pmaps->deferredFlushes;
    std::uint64_t lazy0 = kernel->pmaps->lazySkips;
    SimTime t0 = kernel->now();
    for (unsigned r = 0; r < rounds; ++r) {
        (void)vmProtect(*kernel->vm, task->map(), addr, size, false,
                        VmProt::Read);
        kernel->machine.timerTick();
        (void)vmProtect(*kernel->vm, task->map(), addr, size, false,
                        VmProt::Default);
        kernel->machine.timerTick();
    }
    return {kernel->now() - t0, kernel->machine.ipiCount() - ipis0,
            kernel->pmaps->deferredFlushes - deferred0,
            kernel->pmaps->lazySkips - lazy0};
}

const char *
modeName(ShootdownMode mode)
{
    switch (mode) {
      case ShootdownMode::Immediate: return "immediate";
      case ShootdownMode::Deferred: return "deferred";
      case ShootdownMode::Lazy: return "lazy";
    }
    return "?";
}

/** Result of one batched-vs-unbatched measurement. */
struct BatchResult
{
    SimTime time;
    std::uint64_t ipis;
};

/** Fork a task whose @p size bytes are dirty on every CPU (the
 *  pmap_copy_on_write storm of Table 7-1's fork rows). */
BatchResult
forkBench(unsigned cpus, VmSize size, bool batched)
{
    Task *task = nullptr;
    auto kernel = bootOnCpus(cpus, batched, task);
    populate(*kernel, *task, cpus, size);

    std::uint64_t ipis0 = kernel->machine.ipiCount();
    SimTime t0 = kernel->now();
    (void)kernel->taskFork(*task);
    return {kernel->now() - t0, kernel->machine.ipiCount() - ipis0};
}

/**
 * Deallocate @p size bytes that are mapped on every CPU.  The region
 * is split into eight map entries first (alternating inheritance
 * blocks simplify()), as a real address space being torn down spans
 * many entries — unbatched, each entry flushes its own round.
 */
BatchResult
deallocBench(unsigned cpus, VmSize size, bool batched)
{
    Task *task = nullptr;
    auto kernel = bootOnCpus(cpus, batched, task);
    VmOffset addr = populate(*kernel, *task, cpus, size);
    VmSize chunk = size / 8;
    for (unsigned i = 0; i < 8; ++i) {
        (void)vmInherit(*kernel->vm, task->map(), addr + i * chunk,
                        chunk,
                        i % 2 ? VmInherit::None : VmInherit::Copy);
    }

    std::uint64_t ipis0 = kernel->machine.ipiCount();
    SimTime t0 = kernel->now();
    (void)task->map().deallocate(addr, size);
    return {kernel->now() - t0, kernel->machine.ipiCount() - ipis0};
}

} // namespace

void
bench::shootdown(Report &report)
{
    report.table("Ablation D: protection storm on a 16-page region, "
                 "32 rounds:",
                 {{"cpus", -6}, {"strategy", -11}, {"time", 12},
                  {"IPIs", 8}, {"deferred", 10}, {"lazy", 8}});
    for (unsigned cpus : {1u, 2u, 4u, 8u}) {
        for (auto mode : {ShootdownMode::Immediate,
                          ShootdownMode::Deferred,
                          ShootdownMode::Lazy}) {
            StormResult r = protectStorm(cpus, mode, 32);
            std::string tag = std::string("storm_") +
                              modeName(mode) + "_" +
                              std::to_string(cpus) + "cpu";
            report.row("multimax",
                       {std::to_string(cpus), modeName(mode),
                        ns(tag + "_time", r.time),
                        count(tag + "_ipis", r.ipis),
                        count(tag + "_deferred", r.deferred),
                        count(tag + "_lazy", r.lazy)});
        }
    }
    report.note("Immediate scales its IPI cost with the CPU count "
                "(case 1);\ndeferred batches the flush into the next "
                "clock interrupt (case 2);\nlazy spends nothing but "
                "tolerates windows of stale TLB entries\n(case 3 — "
                "acceptable only when the operation's semantics "
                "allow it).");

    report.table("Ablation G: batched (coalesced) vs unbatched "
                 "shootdowns:",
                 {{"operation", -16}, {"cpus", -6}, {"unbatched", 12},
                  {"IPIs", 8}, {"batched", 12}, {"IPIs", 8}});
    auto compare = [&](const char *label, const std::string &op,
                       unsigned cpus,
                       BatchResult (*run)(unsigned, VmSize, bool),
                       VmSize size) {
        BatchResult un = run(cpus, size, false);
        BatchResult ba = run(cpus, size, true);
        std::string tag = op + "_" + std::to_string(cpus) + "cpu";
        report.row("multimax",
                   {label, std::to_string(cpus),
                    ns(tag + "_unbatched_time", un.time),
                    count(tag + "_unbatched_ipis", un.ipis),
                    ns(tag + "_batched_time", ba.time),
                    count(tag + "_batched_ipis", ba.ipis)});
    };
    for (unsigned cpus : {1u, 2u, 4u})
        compare("fork 256K", "fork_256k", cpus, forkBench, 256 << 10);
    for (unsigned cpus : {1u, 2u, 4u})
        compare("deallocate 1M", "dealloc_1m", cpus, deallocBench, 1 << 20);
    report.note("Batched mode accumulates the per-page shootdowns "
                "of one VM operation\nand closes with a single merged "
                "flush round: at most one IPI per\ntarget CPU per "
                "operation, instead of one per page.");
}

} // namespace mach
