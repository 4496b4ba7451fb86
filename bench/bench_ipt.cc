/**
 * @file
 * Ablation C (paper section 5.1): the RT PC inverted page table's
 * one-mapping-per-frame restriction.
 *
 * "The result, in Mach, is that physical pages shared by multiple
 * tasks can cause extra page faults, with each page being mapped and
 * then remapped for the last task which referenced it."  This
 * benchmark shares one page read/write among N tasks and touches it
 * round-robin, comparing the RT PC against the VAX (whose per-task
 * page tables share without faulting), and measures how rare such
 * faults are in a "normal application" mix — the paper's surprising
 * result was that Mach on the RT outperformed an aliasing-free UNIX
 * anyway.
 */

#include <string>
#include <vector>

#include "bench_report.hh"
#include "kern/kernel.hh"
#include "pmap/rt_pmap.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

using namespace bench;

/** The 8MB machines both tables run on. */
std::vector<MachineSpec>
machines()
{
    std::vector<MachineSpec> specs = {MachineSpec::rtPc(),
                                      MachineSpec::microVax2()};
    for (MachineSpec &spec : specs)
        spec.physMemBytes = 8ull << 20;
    return specs;
}

/** Touch one shared page round-robin from @p tasks tasks; one row. */
void
roundRobinShare(Report &report, const MachineSpec &spec, unsigned tasks,
                unsigned rounds)
{
    Kernel kernel(spec);
    VmSize page = kernel.pageSize();

    Task *first = kernel.taskCreate();
    VmOffset addr = 0;
    (void)first->map().allocate(&addr, page, true);
    (void)vmInherit(*kernel.vm, first->map(), addr, page,
                    VmInherit::Share);
    (void)kernel.taskTouch(*first, addr, 1, AccessType::Write);

    std::vector<Task *> all{first};
    for (unsigned i = 1; i < tasks; ++i)
        all.push_back(kernel.taskFork(*first));

    // Prime every task's mapping once.
    for (Task *t : all)
        (void)kernel.taskTouch(*t, addr, 1, AccessType::Read);

    auto evictions = [&]() -> std::uint64_t {
        if (spec.arch != ArchType::RtPc)
            return 0;
        return static_cast<RtPmapSystem *>(kernel.pmaps.get())
            ->aliasEvictions;
    };
    std::uint64_t faults0 = kernel.vm->stats.faults;
    std::uint64_t evict0 = evictions();
    SimTime t0 = kernel.now();
    for (unsigned r = 0; r < rounds; ++r) {
        for (Task *t : all)
            (void)kernel.taskTouch(*t, addr, 1, AccessType::Read);
    }

    std::string tag = std::to_string(tasks) + "tasks";
    const char *name = archTypeName(spec.arch);
    report.row(name, {name, std::to_string(tasks),
                      count("share_faults_" + tag,
                            kernel.vm->stats.faults - faults0),
                      count("share_evictions_" + tag,
                            evictions() - evict0),
                      ns("share_time_" + tag, kernel.now() - t0)});
}

/** A "normal application" mix: mostly private pages, one shared. */
SimTime
normalMix(const MachineSpec &spec)
{
    Kernel kernel(spec);
    VmSize page = kernel.pageSize();
    Task *a = kernel.taskCreate();

    VmOffset shared = 0;
    (void)a->map().allocate(&shared, page, true);
    (void)vmInherit(*kernel.vm, a->map(), shared, page,
                    VmInherit::Share);
    (void)kernel.taskTouch(*a, shared, 1, AccessType::Write);
    Task *b = kernel.taskFork(*a);

    VmOffset priv_a = 0, priv_b = 0;
    VmSize priv_size = 128 << 10;
    (void)a->map().allocate(&priv_a, priv_size, true);
    (void)b->map().allocate(&priv_b, priv_size, true);

    SimTime t0 = kernel.now();
    // 64 private touches per shared touch — the paper's observation
    // is that sharing faults are rare in practice.
    for (unsigned r = 0; r < 16; ++r) {
        (void)kernel.taskTouch(*a, priv_a, priv_size,
                               AccessType::Write);
        (void)kernel.taskTouch(*a, shared, 1, AccessType::Read);
        (void)kernel.taskTouch(*b, priv_b, priv_size,
                               AccessType::Write);
        (void)kernel.taskTouch(*b, shared, 1, AccessType::Read);
    }
    return kernel.now() - t0;
}

} // namespace

void
bench::ipt(Report &report)
{
    report.table("Round-robin read of one shared page, 16 rounds:",
                 {{"machine", -10}, {"tasks", -10}, {"faults", 10},
                  {"evictions", 12}, {"time", 12}});
    for (unsigned tasks : {2u, 4u, 8u}) {
        for (const MachineSpec &spec : machines())
            roundRobinShare(report, spec, tasks, 16);
    }

    report.table("'Normal application' mix (64 private touches per "
                 "shared touch):",
                 {{"machine", -10}, {"time", 12}});
    for (const MachineSpec &spec : machines()) {
        const char *name = archTypeName(spec.arch);
        report.row(name, {name, ns("normal_mix", normalMix(spec))});
    }
    report.note("Sharing ping-pongs the single RT mapping (one "
                "fault per switch)\nwhile the VAX shares freely; in "
                "a realistic mix the extra faults\nare noise, as the "
                "paper observed.");
}

} // namespace mach
