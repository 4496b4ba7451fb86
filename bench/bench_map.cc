/**
 * @file
 * Ablation B (paper section 3.2): the address-map "last fault" hint.
 *
 * "Fast lookup on faults can be achieved by keeping last fault
 * hints.  These hints allow the address map list to be searched from
 * the last entry found" — and a sorted linked list "does not
 * penalize large, sparse address spaces."  This benchmark sweeps the
 * number of map entries and measures sequential fault-lookup cost
 * with the hint on and off.
 */

#include <cstdio>

#include "base/logging.hh"
#include "bench_report.hh"
#include "hw/machine.hh"
#include "pmap/pmap.hh"
#include "vm/vm_map.hh"
#include "vm/vm_sys.hh"

namespace mach
{
namespace
{

using namespace bench;

struct Fixture
{
    explicit Fixture(unsigned entries)
        : spec(makeSpec()), machine(spec),
          pmaps(PmapSystem::build(machine))
    {
        pmaps->init(spec.hwPageSize());
        vm = std::make_unique<VmSys>(machine, *pmaps,
                                     spec.hwPageSize());
        pmap = pmaps->create();
        map = new VmMap(*vm, pmap, vm->pageSize(), 1ull << 30);
        VmSize page = vm->pageSize();
        // Alternate protections so entries cannot coalesce.
        for (unsigned i = 0; i < entries; ++i) {
            VmOffset addr = (2 + i) * page;
            (void)map->allocate(&addr, page, false);
            if (i % 2) {
                (void)map->protect(addr, page, false,
                                   VmProt::Read);
            }
        }
    }

    ~Fixture()
    {
        map->deallocate(map->minAddress(),
                        map->maxAddress() - map->minAddress());
        map->deallocateRef();
        pmaps->destroy(pmap);
    }

    static MachineSpec
    makeSpec()
    {
        MachineSpec s = MachineSpec::microVax2();
        s.physMemBytes = 4ull << 20;
        return s;
    }

    MachineSpec spec;
    Machine machine;
    std::unique_ptr<PmapSystem> pmaps;
    std::unique_ptr<VmSys> vm;
    Pmap *pmap = nullptr;
    VmMap *map = nullptr;
};

/** Average lookup cost over one sequential pass. */
SimTime
sequentialPass(Fixture &f, unsigned entries, bool hint)
{
    f.map->useHint = hint;
    VmSize page = f.vm->pageSize();
    SimTime t0 = f.machine.clock().now();
    VmMap::LookupResult lr;
    for (unsigned i = 0; i < entries; ++i)
        (void)f.map->lookup((2 + i) * page, FaultType::Read, lr);
    return (f.machine.clock().now() - t0) / entries;
}

} // namespace

void
bench::map(Report &report)
{
    report.table(nullptr, {{"entries", -10}, {"hint on", 16},
                           {"hint off", 16}, {"hit rate", 12}});
    for (unsigned n : {8u, 32u, 128u, 512u, 2048u}) {
        Fixture f(n);
        std::uint64_t lookups0 = f.vm->stats.lookups;
        std::uint64_t hits0 = f.vm->stats.hits;
        SimTime with = sequentialPass(f, n, true);
        double rate =
            double(f.vm->stats.hits - hits0) /
            double(f.vm->stats.lookups - lookups0);
        SimTime without = sequentialPass(f, n, false);
        std::string tag = std::to_string(n);
        report.row("uvax2", {tag, ns("lookup_hinted_" + tag, with, us),
                             ns("lookup_unhinted_" + tag, without, us),
                             ratio("hint_hit_rate_" + tag, rate)});
    }
    report.note("Hinted lookups stay O(1) as the map grows; "
                "unhinted ones scan\nlinearly (yet even a "
                "2048-entry map is far larger than the five\n"
                "entries of a typical process).");
}

} // namespace mach
