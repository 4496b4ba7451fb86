/**
 * @file
 * Ablation F (Table 3-4): the optional pmap_copy routine.
 *
 * "These routines need not perform any hardware function" — but a
 * port *may* implement pmap_copy to pre-seed a forked child's
 * hardware map with read-only copies of the parent's mappings,
 * trading map-edit work at fork time against read faults afterwards.
 * This benchmark measures that trade on the VAX for children that
 * read much, little, or none of the inherited space.
 */

#include <string>
#include <vector>

#include "bench_report.hh"
#include "kern/kernel.hh"
#include "vm/vm_object.hh"

namespace mach
{

void
bench::pmapcopy(Report &report)
{
    report.table("fork of a 256K task; child then reads a fraction "
                 "of it:",
                 {{"pmap_copy", -10}, {"child reads", -12}, {"fork", 12},
                  {"child read", 14}, {"faults", 12}, {"total", 14}});
    for (unsigned pct : {0u, 25u, 100u}) {
        for (bool on : {false, true}) {
            MachineSpec spec = MachineSpec::microVax2();
            spec.physMemBytes = 8ull << 20;
            Kernel kernel(spec);
            kernel.pmaps->usePmapCopy = on;
            VmSize size = 256 << 10;

            Task *parent = kernel.taskCreate();
            VmOffset addr = 0;
            (void)parent->map().allocate(&addr, size, true);
            std::vector<std::uint8_t> data(size, 0x3c);
            (void)kernel.taskWrite(*parent, addr, data.data(), size);

            SimTime t0 = kernel.now();
            Task *child = kernel.taskFork(*parent);
            SimTime fork_time = kernel.now() - t0;

            VmSize to_read = size * pct / 100;
            std::uint64_t faults0 = kernel.vm->stats.faults;
            t0 = kernel.now();
            if (to_read)
                (void)kernel.taskRead(*child, addr, data.data(), to_read);
            SimTime read_time = kernel.now() - t0;

            std::string tag = std::string(on ? "on" : "off") + "_" +
                              std::to_string(pct) + "pct";
            report.row("uvax2",
                       {on ? "on" : "off", std::to_string(pct) + "%",
                        ns("fork_time_" + tag, fork_time),
                        ns("child_read_time_" + tag, read_time),
                        count("child_faults_" + tag,
                              kernel.vm->stats.faults - faults0),
                        ms(fork_time + read_time)});
        }
    }
    report.note("pmap_copy makes fork dearer but removes every "
                "child read fault;\nit wins when the child actually "
                "touches what it inherited and\nloses (pure "
                "overhead) when it execs immediately — why the paper"
                "\nleaves it optional.");
}

} // namespace mach
