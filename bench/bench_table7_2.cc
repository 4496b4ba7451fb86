/**
 * @file
 * Reproduces Table 7-2: "Overall Compilation Performance: Mach vs.
 * 4.3bsd" — a synthetic compile workload (fork + exec + compiler
 * text + shared headers + source in, object out, plus user CPU) run
 * under both VM systems and both cache configurations.
 *
 * The configurations mirror the paper:
 *  - "400 buffers": both systems limited to 400 x 1K of file cache
 *    (Mach: object-cache page limit; 4.3bsd: buffer count);
 *  - "generic": each system as normally configured — Mach's object
 *    cache bounded only by memory, 4.3bsd's buffer cache at its
 *    traditional ~100 buffers regardless of memory size.
 *
 * The paper's signature result: Mach improves when unshackled
 * (generic faster than 400-buffer) while 4.3bsd *degrades* badly in
 * its generic configuration.
 */

#include <algorithm>
#include <string>
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

/** Parameters for one synthetic compilation. */
struct CompileJob
{
    VmSize sourceBytes;    //!< per-file source (distinct per compile)
    VmSize includeBytes;   //!< shared headers (reused every compile)
    VmSize compilerBytes;  //!< compiler text (reused every compile)
    VmSize objectBytes;    //!< output object file
    VmSize workBytes;      //!< compiler working-set (zero fill)
    VmSize tempBytes;      //!< cpp-to-cc1 temp file (write + read)
    SimTime userCpu;       //!< pure computation
};

/** The whole workload: N compilations of the same shape. */
struct Workload
{
    const char *name;
    unsigned programs;
    CompileJob job;
};

Workload
smallPrograms()
{
    // "13 programs": small sources against shared headers.
    return {"13 programs", 13,
            {30 << 10, 200 << 10, 800 << 10, 20 << 10, 400 << 10,
             300 << 10, 1200000000}};
}

Workload
kernelBuild()
{
    // "Mach kernel": hundreds of files, bigger everything.
    return {"Mach kernel", 250,
            {25 << 10, 300 << 10, 800 << 10, 25 << 10, 600 << 10,
             350 << 10, 3300000000}};
}

Workload
sunForkTest()
{
    // "Compile fork test program" on the SUN 3/160.
    return {"fork test program", 1,
            {5 << 10, 60 << 10, 500 << 10, 8 << 10, 200 << 10,
             100 << 10, 1500000000}};
}

/** Run the workload under Mach. @p cache_kb 0 = unlimited cache. */
SimTime
machCompile(const MachineSpec &spec, const Workload &wl,
            std::size_t cache_kb)
{
    KernelConfig cfg;
    cfg.machPageMultiple = 2;  // 1K pages
    cfg.diskBytes = 128ull << 20;
    cfg.objectCacheLimit = 4096;
    cfg.cachedPageLimit =
        cache_kb ? (cache_kb << 10) / (spec.hwPageSize() * 2) : 0;
    Kernel kernel(spec, cfg);

    // Shared inputs.
    kernel.createPatternFile("cc1", wl.job.compilerBytes, 1);
    kernel.createPatternFile("headers.h", wl.job.includeBytes, 2);
    for (unsigned i = 0; i < wl.programs; ++i) {
        kernel.createPatternFile("src" + std::to_string(i),
                                 wl.job.sourceBytes, 3 + i);
    }

    // The shell: a modest dirty address space that every fork must
    // virtually copy.
    Task *shell = kernel.taskCreate();
    VmOffset shell_mem = 0;
    (void)shell->map().allocate(&shell_mem, 64 << 10, true);
    (void)kernel.taskTouch(*shell, shell_mem, 64 << 10,
                           AccessType::Write);

    // Sticky text: the compiler binary stays mapped somewhere (as a
    // shared text segment would), so its object is always live.
    VmOffset sticky = 0;
    VmSize sticky_size = 0;
    (void)kernel.mapFile(*shell, "cc1", &sticky, &sticky_size);
    (void)kernel.taskTouch(*shell, sticky, sticky_size,
                           AccessType::Read);

    std::vector<std::uint8_t> buf(
        std::max({wl.job.compilerBytes, wl.job.includeBytes,
                  wl.job.sourceBytes, wl.job.objectBytes,
                  wl.job.tempBytes}));

    SimTime t0 = kernel.now();
    for (unsigned i = 0; i < wl.programs; ++i) {
        // fork + exec.
        Task *cc = kernel.taskFork(*shell);
        kernel.machine.clock().charge(CostKind::Software,
                                      spec.costs.execFixed);
        VmOffset old = cc->map().minAddress();
        (void)cc->map().deallocate(old, cc->map().maxAddress() - old);

        // Map the compiler text and fault it in (the object cache
        // makes this nearly free after the first compile).
        VmOffset text = 0;
        VmSize text_size = 0;
        KernReturn kr = kernel.mapFile(*cc, "cc1", &text, &text_size);
        MACH_ASSERT(kr == KernReturn::Success);
        (void)kernel.taskTouch(*cc, text, text_size,
                               AccessType::Read);

        // Read headers and source.
        VmSize got = 0;
        (void)kernel.fileRead("headers.h", 0, buf.data(),
                              wl.job.includeBytes, &got);
        (void)kernel.fileRead("src" + std::to_string(i), 0,
                              buf.data(), wl.job.sourceBytes, &got);

        // Compiler working set + computation.
        VmOffset work = 0;
        (void)cc->map().allocate(&work, wl.job.workBytes, true);
        (void)kernel.taskTouch(*cc, work, wl.job.workBytes,
                               AccessType::Write);
        kernel.machine.clock().charge(CostKind::Software,
                                      wl.job.userCpu);

        // cpp -> cc1 temporary: written, then read back.
        std::string tmp = "tmp" + std::to_string(i);
        (void)kernel.fileWrite(tmp, 0, buf.data(), wl.job.tempBytes);
        (void)kernel.fileRead(tmp, 0, buf.data(), wl.job.tempBytes,
                              &got);

        // Emit the object file.
        (void)kernel.fileWrite("obj" + std::to_string(i), 0,
                               buf.data(), wl.job.objectBytes);

        kernel.taskTerminate(cc);
    }
    return kernel.now() - t0;
}

/** Run the workload under the 4.3bsd baseline. */
SimTime
unixCompile(const MachineSpec &spec, const Workload &wl,
            unsigned buffers)
{
    Machine machine(spec);
    UnixVm unix_vm(machine, buffers);

    unix_vm.createPatternFile("cc1", wl.job.compilerBytes, 1);
    unix_vm.createPatternFile("headers.h", wl.job.includeBytes, 2);
    for (unsigned i = 0; i < wl.programs; ++i) {
        unix_vm.createPatternFile("src" + std::to_string(i),
                                  wl.job.sourceBytes, 3 + i);
    }

    UnixProc *shell = unix_vm.procCreate();
    VmOffset shell_mem = 0;
    (void)unix_vm.allocate(*shell, &shell_mem, 64 << 10);
    (void)unix_vm.touch(*shell, shell_mem, 64 << 10, true);

    // 4.3bsd shared text: the compiler binary is demand loaded once
    // and stays resident in the text table across execs.
    {
        std::vector<std::uint8_t> text(wl.job.compilerBytes);
        (void)unix_vm.read("cc1", 0, text.data(),
                           wl.job.compilerBytes);
    }

    std::vector<std::uint8_t> buf(
        std::max({wl.job.compilerBytes, wl.job.includeBytes,
                  wl.job.sourceBytes, wl.job.objectBytes,
                  wl.job.tempBytes}));

    SimTime t0 = machine.clock().now();
    for (unsigned i = 0; i < wl.programs; ++i) {
        // fork (eager copy) + exec.
        UnixProc *cc = unix_vm.fork(*shell);
        machine.clock().charge(CostKind::Software,
                               spec.costs.execFixed);

        // Headers and source through the buffer cache (text is
        // sticky and costs only the exec overhead charged above).
        (void)unix_vm.read("headers.h", 0, buf.data(),
                           wl.job.includeBytes);
        (void)unix_vm.read("src" + std::to_string(i), 0, buf.data(),
                           wl.job.sourceBytes);

        // Working set + computation.
        VmOffset work = 0;
        (void)unix_vm.allocate(*cc, &work, wl.job.workBytes);
        (void)unix_vm.touch(*cc, work, wl.job.workBytes, true);
        machine.clock().charge(CostKind::Software, wl.job.userCpu);

        // cpp -> cc1 temporary (write-through buffer cache).
        std::string tmp = "tmp" + std::to_string(i);
        unix_vm.write(tmp, 0, buf.data(), wl.job.tempBytes);
        (void)unix_vm.read(tmp, 0, buf.data(), wl.job.tempBytes);

        unix_vm.write("obj" + std::to_string(i), 0, buf.data(),
                      wl.job.objectBytes);

        unix_vm.procDestroy(cc);
    }
    return machine.clock().now() - t0;
}

} // namespace

void
bench::table7_2(Report &report)
{
    // Mach and UNIX run the same workload under each configuration:
    // mach_cache_kb 0 is an unlimited object cache; buffers sizes
    // the UNIX buffer cache.
    auto compile = [&](const char *arch, const MachineSpec &spec,
                       const Workload &wl, const char *tag,
                       std::size_t mach_cache_kb, unsigned buffers,
                       std::string (*fmt)(SimTime),
                       const char *paper_mach, const char *paper_unix) {
        report.row(arch, {wl.name,
                          ns(std::string("mach_") + tag,
                             machCompile(spec, wl, mach_cache_kb), fmt),
                          ns(std::string("unix_") + tag,
                             unixCompile(spec, wl, buffers), fmt),
                          paper_mach, paper_unix});
    };
    const std::vector<Column> columns = {
        {"workload", -28}, {"Mach", 10}, {"UNIX", 10},
        {"paper Mach", 11}, {"paper UNIX", 11}};
    MachineSpec vax = MachineSpec::vax8650();

    report.table("VAX 8650: 400 buffers", columns);
    compile("vax8650", vax, smallPrograms(), "13_programs_400buf", 400,
            400, sec, "23s", "28s");
    compile("vax8650", vax, kernelBuild(), "kernel_build_400buf", 400,
            400, minSec, "19:58", "23:38");

    report.table("VAX 8650: Generic configuration", columns);
    compile("vax8650", vax, smallPrograms(), "13_programs_generic", 0,
            120, sec, "19s", "1:16min");
    compile("vax8650", vax, kernelBuild(), "kernel_build_generic", 0,
            120, minSec, "15:50", "34:10");

    report.table("SUN 3/160 (vs SunOS 3.2)", columns);
    compile("sun3_160", MachineSpec::sun3_160(), sunForkTest(),
            "fork_test_generic", 0, 120, sec, "3s", "6s");
}

} // namespace mach
