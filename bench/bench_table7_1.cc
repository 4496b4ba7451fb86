/**
 * @file
 * Reproduces Table 7-1: "Performance of Mach VM Operations" — the
 * cost of zero-fill, fork and file reread under Mach vs a 4.3bsd
 * style UNIX, on the machines the paper measured.
 *
 * Both systems run on the same simulated hardware and cost model; the
 * only difference is the VM design.  Absolute values are calibrated
 * simulated time; the claim being reproduced is the *shape*: Mach
 * wins or ties every row, with the fork and file-reread rows showing
 * the copy-on-write and object-cache advantages.
 */

#include <memory>
#include <vector>

#include "base/logging.hh"
#include "bench_report.hh"
#include "kern/kernel.hh"
#include "unix/unix_vm.hh"
#include "vm/vm_object.hh"

namespace mach
{
namespace
{

using namespace bench;

/** Time to first-touch (zero fill) 1KB of fresh memory. */
SimTime
machZeroFill1K(const MachineSpec &spec)
{
    Kernel kernel(spec);
    Task *task = kernel.taskCreate();
    // Warm up: context load and map creation are not what Table 7-1
    // measures.
    VmOffset warm = 0;
    (void)task->map().allocate(&warm, kernel.pageSize(), true);
    (void)kernel.taskTouch(*task, warm, 1, AccessType::Write);

    VmOffset addr = 0;
    (void)task->map().allocate(&addr, 64 << 10, true);
    SimTime t0 = kernel.now();
    (void)kernel.taskTouch(*task, addr, 1024, AccessType::Write);
    return kernel.now() - t0;
}

SimTime
unixZeroFill1K(const MachineSpec &spec)
{
    Machine machine(spec);
    UnixVm unix_vm(machine, 120);
    UnixProc *proc = unix_vm.procCreate();
    VmOffset warm = 0;
    (void)unix_vm.allocate(*proc, &warm, spec.hwPageSize());
    (void)unix_vm.touch(*proc, warm, 1, true);

    VmOffset addr = 0;
    (void)unix_vm.allocate(*proc, &addr, 64 << 10);
    SimTime t0 = machine.clock().now();
    (void)unix_vm.touch(*proc, addr, 1024, true);
    return machine.clock().now() - t0;
}

/** Time to fork a task with 256KB of dirty memory. */
SimTime
machFork256K(const MachineSpec &spec, Report *report)
{
    Kernel kernel(spec);
    // `--trace-out`: capture this workload's event stream (the last
    // machine measured wins; tracing charges no simulated time).
    if (report) {
        report->attachTrace(kernel.machine.clock(),
                            kernel.machine.numCpus());
    }
    Task *task = kernel.taskCreate();
    VmOffset addr = 0;
    VmSize size = 256 << 10;
    (void)task->map().allocate(&addr, size, true);
    std::vector<std::uint8_t> data(size, 0x5a);
    (void)kernel.taskWrite(*task, addr, data.data(), size);

    SimTime t0 = kernel.now();
    Task *child = kernel.taskFork(*task);
    SimTime dt = kernel.now() - t0;
    kernel.taskTerminate(child);
    return dt;
}

SimTime
unixFork256K(const MachineSpec &spec)
{
    Machine machine(spec);
    UnixVm unix_vm(machine, 120);
    UnixProc *proc = unix_vm.procCreate();
    VmOffset addr = 0;
    VmSize size = 256 << 10;
    (void)unix_vm.allocate(*proc, &addr, size);
    std::vector<std::uint8_t> data(size, 0x5a);
    (void)unix_vm.procWrite(*proc, addr, data.data(), size);

    SimTime t0 = machine.clock().now();
    UnixProc *child = unix_vm.fork(*proc);
    SimTime dt = machine.clock().now() - t0;
    unix_vm.procDestroy(child);
    return dt;
}

struct ReadTimes
{
    SimTime firstSystem, firstElapsed;
    SimTime secondSystem, secondElapsed;
};

/** Read a file of @p size twice through the Mach object cache. */
ReadTimes
machRead(const MachineSpec &spec, VmSize size)
{
    KernelConfig cfg;
    cfg.machPageMultiple = 2;  // 1K Mach pages on the 8200
    cfg.diskBytes = 64ull << 20;
    Kernel kernel(spec, cfg);
    kernel.createPatternFile("file", size, 7);
    std::vector<std::uint8_t> buf(size);

    auto once = [&](SimTime *system, SimTime *elapsed) {
        SimTime t0 = kernel.now();
        SimTime d0 = kernel.machine.clock().kindTotal(CostKind::Disk);
        VmSize got = 0;
        KernReturn kr = kernel.fileRead("file", 0, buf.data(), size,
                                        &got);
        MACH_ASSERT(kr == KernReturn::Success && got == size);
        *elapsed = kernel.now() - t0;
        SimTime disk =
            kernel.machine.clock().kindTotal(CostKind::Disk) - d0;
        *system = *elapsed - disk;
    };

    ReadTimes t{};
    once(&t.firstSystem, &t.firstElapsed);
    once(&t.secondSystem, &t.secondElapsed);
    return t;
}

/** The same through the 4.3bsd buffer cache (generic: 120 buffers). */
ReadTimes
unixRead(const MachineSpec &spec, VmSize size)
{
    Machine machine(spec);
    UnixVm unix_vm(machine, 120);
    unix_vm.createPatternFile("file", size, 7);
    std::vector<std::uint8_t> buf(size);

    auto once = [&](SimTime *system, SimTime *elapsed) {
        SimTime t0 = machine.clock().now();
        SimTime d0 = machine.clock().kindTotal(CostKind::Disk);
        VmSize got = unix_vm.read("file", 0, buf.data(), size);
        MACH_ASSERT(got == size);
        *elapsed = machine.clock().now() - t0;
        SimTime disk = machine.clock().kindTotal(CostKind::Disk) - d0;
        *system = *elapsed - disk;
    };

    ReadTimes t{};
    once(&t.firstSystem, &t.firstElapsed);
    once(&t.secondSystem, &t.secondElapsed);
    return t;
}

/** Printed as "system/elapsed" seconds; records elapsed ns. */
Cell
sysElapsed(std::string metric, SimTime system, SimTime elapsed)
{
    return {format("%.1f/", system / 1e9) + sec(elapsed),
            std::move(metric), double(elapsed), "ns"};
}

} // namespace

void
bench::table7_1(Report &report)
{
    report.table("(simulated time; paper values alongside)",
                 {{"operation", -28}, {"Mach", 10}, {"UNIX", 10},
                  {"paper Mach", 11}, {"paper UNIX", 11}});

    struct PaperMachine
    {
        const char *name;
        const char *arch;
        MachineSpec spec;
        const char *paper[4];  //!< zero fill Mach/UNIX, fork Mach/UNIX
    };
    const PaperMachine machines[] = {
        {"RT PC", "rt_pc", MachineSpec::rtPc(),
         {"0.45ms", "0.58ms", "41ms", "145ms"}},
        {"uVAX II", "uvax2", MachineSpec::microVax2(),
         {"0.58ms", "1.20ms", "59ms", "220ms"}},
        {"SUN 3/160", "sun3_160", MachineSpec::sun3_160(),
         {"0.23ms", "0.27ms", "68ms", "89ms"}},
    };
    for (const PaperMachine &m : machines) {
        report.row(m.arch,
                   {std::string("zero fill 1K (") + m.name + ")",
                    ns("mach_zero_fill_1k", machZeroFill1K(m.spec)),
                    ns("unix_zero_fill_1k", unixZeroFill1K(m.spec)),
                    m.paper[0], m.paper[1]});
    }
    for (const PaperMachine &m : machines) {
        report.row(m.arch,
                   {std::string("fork 256K (") + m.name + ")",
                    ns("mach_fork_256k", machFork256K(m.spec, &report)),
                    ns("unix_fork_256k", unixFork256K(m.spec)),
                    m.paper[2], m.paper[3]});
    }

    // File reread on a VAX 8200 (system/elapsed seconds).
    auto readRows = [&](const std::string &size_tag, VmSize size,
                        const char *const (&paper)[4]) {
        ReadTimes m = machRead(MachineSpec::vax8200(), size);
        ReadTimes u = unixRead(MachineSpec::vax8200(), size);
        std::string label = "read " + size_tag + " file";
        std::string mach_base = "mach_read_" + size_tag;
        std::string unix_base = "unix_read_" + size_tag;
        report.row("vax8200",
                   {label + ", first",
                    sysElapsed(mach_base + "_first_elapsed", m.firstSystem,
                               m.firstElapsed),
                    sysElapsed(unix_base + "_first_elapsed", u.firstSystem,
                               u.firstElapsed),
                    paper[0], paper[1]});
        report.row("vax8200",
                   {label + ", second",
                    sysElapsed(mach_base + "_second_elapsed", m.secondSystem,
                               m.secondElapsed),
                    sysElapsed(unix_base + "_second_elapsed",
                               u.secondSystem, u.secondElapsed),
                    paper[2], paper[3]});
    };
    readRows("2.5M", 2500 << 10, {"5.2/11s", "5.0/11s", "1.2/1.4s",
                                  "5.0/11s"});
    readRows("50K", 50 << 10, {"0.2/0.5s", "0.2/0.5s", "0.1/0.1s",
                               "0.2/0.2s"});
}

} // namespace mach
