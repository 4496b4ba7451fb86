/**
 * @file
 * Ablation A (paper section 3.5): shadow-object chain management.
 *
 * "Most of the complexity of Mach memory management arises from a
 * need to prevent the potentially large chains of shadow objects" —
 * e.g. a UNIX process which repeatedly forks builds a long chain
 * pointing at the object backing its address space.  This benchmark
 * runs that fork chain with the collapse/bypass garbage collection
 * enabled and disabled, reporting chain length and fault cost.
 */

#include <string>

#include "base/logging.hh"
#include "bench_report.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

using namespace bench;

/** Run one fork chain and print its row. */
void
forkChain(Report &report, unsigned generations, bool collapse)
{
    MachineSpec spec = MachineSpec::microVax2();
    spec.physMemBytes = 8ull << 20;
    Kernel kernel(spec);
    kernel.vm->collapseEnabled = collapse;
    VmSize page = kernel.pageSize();

    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    (void)task->map().allocate(&addr, 4 * page, true);
    (void)kernel.taskTouch(*task, addr, 4 * page, AccessType::Write);

    // Repeatedly fork; the child dirties one page (creating a
    // shadow) and becomes the new parent; the old parent exits.
    for (unsigned gen = 0; gen < generations; ++gen) {
        Task *child = kernel.taskFork(*task);
        (void)kernel.taskTouch(*child, addr, 1, AccessType::Write);
        kernel.taskTerminate(task);
        task = child;
    }

    // Chain length under the surviving task's entry.
    VmMap::LookupResult lr;
    KernReturn kr = task->map().lookup(addr, FaultType::Read, lr);
    MACH_ASSERT(kr == KernReturn::Success);
    unsigned chain = lr.object->chainLength();
    std::uint64_t objects = kernel.vm->liveObjects;

    // Cost of a fault that must walk the whole chain: fault on the
    // never-written last page after dropping its mappings.
    VmOffset probe = addr + 3 * page;
    task->getPmap()->remove(probe, probe + page);
    SimTime t0 = kernel.now();
    (void)kernel.taskTouch(*task, probe, 1, AccessType::Read);

    std::string tag =
        std::to_string(generations) + (collapse ? "_collapse" : "_none");
    report.row("uvax2", {collapse ? "on" : "off",
                         std::to_string(generations),
                         count("chain_len_" + tag, chain),
                         ns("fault_cost_" + tag, kernel.now() - t0),
                         count("live_objects_" + tag, objects)});
}

} // namespace

void
bench::shadow(Report &report)
{
    report.table(nullptr, {{"collapse", -12}, {"forks", -10},
                           {"chain len", 12}, {"fault cost", 14},
                           {"objects", 10}});
    for (unsigned gens : {4u, 16u, 64u, 256u}) {
        for (bool collapse : {true, false})
            forkChain(report, gens, collapse);
    }
    report.note("Without collapse the chain (and the cost of an "
                "unshadowed fault)\ngrows linearly with fork depth; "
                "with it both stay bounded.");
}

} // namespace mach
