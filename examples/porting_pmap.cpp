/**
 * @file
 * The portability demonstration: the same machine-independent
 * program runs unchanged on every supported memory architecture;
 * only the pmap module differs (the paper's core claim — "the
 * machine-dependent portion of Mach virtual memory consists of a
 * single code module").
 *
 * The program exercises zero fill, COW fork, sharing and protection,
 * then prints what the machine-dependent layer had to do on each
 * MMU: lazily built page-table pages on the VAX, alias evictions on
 * the RT PC's inverted table, PMEG/context traffic on the SUN 3.
 *
 *   $ build/examples/porting_pmap
 */

#include <cstdio>
#include <vector>

#include "kern/kernel.hh"
#include "vm/vm_user.hh"

using namespace mach;

namespace
{

/** The machine-independent workload: identical on every machine. */
void
workload(Kernel &kernel)
{
    Task *task = kernel.taskCreate();
    VmSize page = kernel.pageSize();

    // Zero fill and data integrity.
    VmOffset addr = 0;
    vmAllocate(*kernel.vm, task->map(), &addr, 16 * page, true);
    std::vector<std::uint8_t> data(16 * page);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = std::uint8_t(i * 13 + 7);
    kernel.taskWrite(*task, addr, data.data(), data.size());

    // COW fork; child modifies half.
    Task *child = kernel.taskFork(*task);
    std::vector<std::uint8_t> patch(8 * page, 0xcd);
    kernel.taskWrite(*child, addr, patch.data(), patch.size());

    // Sharing between two more tasks.
    vmInherit(*kernel.vm, child->map(), addr + 8 * page, 4 * page,
              VmInherit::Share);
    Task *grandchild = kernel.taskFork(*child);
    std::uint32_t magic = 0xfeed;
    kernel.taskWrite(*grandchild, addr + 8 * page, &magic,
                     sizeof(magic));

    // Protection.
    vmProtect(*kernel.vm, task->map(), addr, page, false,
              VmProt::Read);

    // Verify everything still reads correctly everywhere.
    std::vector<std::uint8_t> out(16 * page);
    kernel.taskRead(*task, addr, out.data(), out.size());
    bool parent_ok = std::equal(out.begin(), out.end(), data.begin());
    kernel.taskRead(*child, addr, out.data(), out.size());
    bool child_ok =
        std::equal(out.begin(), out.begin() + 8 * page,
                   patch.begin());
    std::uint32_t seen = 0;
    kernel.taskRead(*child, addr + 8 * page, &seen, sizeof(seen));

    std::printf("  integrity: parent %s, child %s, shared %s\n",
                parent_ok ? "ok" : "CORRUPT",
                child_ok ? "ok" : "CORRUPT",
                seen == magic ? "ok" : "CORRUPT");

    kernel.taskTerminate(grandchild);
    kernel.taskTerminate(child);
    kernel.taskTerminate(task);
}

void
runOn(const MachineSpec &spec)
{
    MachineSpec s = spec;
    s.physMemBytes = 8ull << 20;
    Kernel kernel(s);
    std::printf("%s (%s, %llu-byte hw pages):\n", s.name.c_str(),
                archTypeName(s.arch),
                (unsigned long long)s.hwPageSize());
    workload(kernel);
    std::printf("  faults=%llu zerofill=%llu cow=%llu | pmap: "
                "tables built=%llu freed=%llu aliases=%llu "
                "pmeg-steals=%llu ctx-steals=%llu\n\n",
                (unsigned long long)kernel.vm->stats.faults,
                (unsigned long long)kernel.vm->stats.zeroFillCount,
                (unsigned long long)kernel.vm->stats.cowFaults,
                (unsigned long long)kernel.pmaps->tablePagesBuilt,
                (unsigned long long)kernel.pmaps->tablePagesFreed,
                (unsigned long long)kernel.pmaps->aliasEvictions,
                (unsigned long long)kernel.pmaps->pmegSteals,
                (unsigned long long)kernel.pmaps->contextSteals);
}

} // namespace

int
main()
{
    std::printf("One machine-independent program, five memory "
                "architectures:\n\n");
    runOn(MachineSpec::microVax2());
    runOn(MachineSpec::rtPc());
    runOn(MachineSpec::sun3_160());
    runOn(MachineSpec::encoreMultimax(2));
    runOn(MachineSpec::ibmRp3(2));
    std::printf("All differences above live in one pmap module per "
                "machine\n(src/pmap/<arch>_pmap.cc); no "
                "machine-independent line changed.\n");
    std::printf("done.\n");
    return 0;
}
