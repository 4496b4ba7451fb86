/**
 * @file
 * `smp_cow`: copy-on-write fork rounds on a 4-CPU Encore MultiMax
 * (simulated CPUs, one host thread).  Chosen for the multiprocessor
 * pmap paths the other workloads never reach: copy_on_write and
 * remove_all over PV chains, protect, shootdown rounds and batches,
 * and shadow-object creation and collapse.  1 MB of RAM is ample for
 * the ~300 KB the rounds touch, so the pageout daemon stays idle; it is
 * no larger so the host memory the simulator touches stays small.
 *
 * The parent runs on CPUs 0 and 1 with a dirty region mapped in both
 * TLBs.  One op is one round: the parent dirties a few words and forks
 * two children onto CPUs 2 and 3; each child reads most pages and
 * COW-writes a slice; the parent, still mapped on both its CPUs,
 * COW-writes, protects a range read-only and back, and deallocates and
 * reallocates another range; the children read again (the parent's
 * changes must not show through) and exit.
 */

#include "harness.hh"

namespace perfbench
{
namespace
{

constexpr unsigned kCpus = 4;
constexpr unsigned kRegionPages = 256;
constexpr unsigned kChildren = 2;
constexpr unsigned kChildReadPercent = 75;
constexpr unsigned kChildWritePages = 32;
constexpr unsigned kParentWrites = 16;
constexpr unsigned kProtectPages = 32;
constexpr unsigned kReallocPages = 16;
constexpr unsigned kWarmupRounds = 8;
constexpr unsigned kTimedRounds = 400;

class SmpCow : public Workload
{
  public:
    SmpCow(std::uint64_t seed, Ledger &l) : Workload(l), rng(seed)
    {
        mach::MachineSpec spec = mach::MachineSpec::encoreMultimax(kCpus);
        spec.physMemBytes = 1ull << 20;
        mach::KernelConfig cfg;
        cfg.diskBytes = 1ull << 20;
        cfg.swapBytes = 4ull << 20;
        kernel = &boot(spec, cfg, kArch);
        page = kernel->pageSize();

        parent = kernel->taskCreate();
        for (mach::CpuId c = 0; c < 2; ++c) {
            kernel->threadCreate(*parent);
            kernel->switchTo(parent, c);
        }
        region.words.assign(kRegionPages * page / 8, 0);
        if (parent->map().allocate(&region.base, kRegionPages * page,
                                   true) != KernReturn::Success)
            ++setupFailures;
        // Dirty every page from CPU 0, then read it on CPU 1, so both
        // of the parent's TLBs and its pmap hold the region.
        for (mach::CpuId c = 0; c < 2; ++c) {
            kernel->switchTo(parent, c);
            batch.clear();
            for (unsigned i = 0; i < kRegionPages; ++i) {
                VmOffset va = region.base + i * page + 8 * rng.below(page / 8);
                batch.push_back({va, c == 0, rng.next(), KernReturn::Success});
            }
            setupFailures += runBatch(*kernel, kArch, *parent, batch,
                                      {&region});
        }
        for (unsigned r = 0; r < kWarmupRounds; ++r)
            setupFailures += round();
    }

    unsigned steps() const override { return kTimedRounds; }

    unsigned step(unsigned) override { return round(); }

    unsigned
    finalCheck() override
    {
        maxShadowChain = maxChain({parent});
        std::uint64_t diff = residentRecountDiff(*kernel, {parent});
        if (diff)
            std::fprintf(stderr, "smp_cow: resident recount diff %llu\n",
                         (unsigned long long)diff);
        return setupFailures || diff ? 1 : 0;
    }

  private:
    static constexpr std::uint8_t kArch = archIndex("multimax");

    Access
    at(const Region &r, unsigned pg, bool write)
    {
        VmOffset va = r.base + pg * page + 8 * rng.below(page / 8);
        return {va, write, write ? rng.next() : 0, KernReturn::Success};
    }

    Access
    any(const Region &r, bool write)
    {
        return at(r, rng.below(kRegionPages), write);
    }

    /** Read a random subset of the pages and COW-write a slice. */
    void
    childAccesses(const Region &r, unsigned read_percent, unsigned writes)
    {
        batch.clear();
        for (unsigned pg = 0; pg < kRegionPages; ++pg) {
            if (rng.below(100) < read_percent)
                batch.push_back(at(r, pg, false));
        }
        for (unsigned i = 0; i < writes; ++i)
            batch.push_back(any(r, true));
    }

    unsigned
    round()
    {
        unsigned failed = 0;
        VmSize protect_start = rng.below(kRegionPages - kProtectPages);
        VmSize realloc_start = rng.below(kRegionPages - kReallocPages);

        kernel->switchTo(parent, 0);
        batch.clear();
        for (unsigned i = 0; i < kParentWrites; ++i)
            batch.push_back(any(region, true));
        failed += runBatch(*kernel, kArch, *parent, batch, {&region});

        std::array<Task *, kChildren> kids{};
        std::array<Region, kChildren> kidModel;
        for (unsigned k = 0; k < kChildren; ++k) {
            kids[k] = ledger.timed(Layer::KernFork, [&] {
                return kernel->taskFork(*parent);
            });
            kidModel[k] = region;
        }
        for (unsigned k = 0; k < kChildren; ++k) {
            kernel->switchTo(kids[k], 2 + k);
            childAccesses(kidModel[k], kChildReadPercent, kChildWritePages);
            failed += runBatch(*kernel, kArch, *kids[k], batch,
                               {&kidModel[k]});
        }

        // The parent, on CPU 1, COW-writes over the children's reads.
        kernel->switchTo(parent, 1);
        batch.clear();
        for (unsigned i = 0; i < kParentWrites; ++i)
            batch.push_back(any(region, true));
        failed += runBatch(*kernel, kArch, *parent, batch, {&region});

        // Then, on CPU 0, changes ranges CPU 1 still maps.
        kernel->switchTo(parent, 0);
        mach::VmMap &map = parent->map();
        VmOffset lo = region.base + protect_start * page;
        for (mach::VmProt prot : {mach::VmProt::Read, mach::VmProt::Default}) {
            KernReturn kr = ledger.timed(Layer::VmMapProtect, [&] {
                return map.protect(lo, kProtectPages * page, false, prot);
            });
            failed += kr != KernReturn::Success;
        }
        VmOffset addr = region.base + realloc_start * page;
        KernReturn kr = ledger.timed(Layer::VmMapDeallocate, [&] {
            return map.deallocate(addr, kReallocPages * page);
        });
        failed += kr != KernReturn::Success;
        kr = ledger.timed(Layer::VmMapAllocate, [&] {
            return map.allocate(&addr, kReallocPages * page, false);
        });
        failed += kr != KernReturn::Success;
        std::fill_n(region.words.begin() + realloc_start * page / 8,
                    kReallocPages * page / 8, 0);

        // The children still see their own copies.
        for (unsigned k = 0; k < kChildren; ++k) {
            kernel->switchTo(kids[k], 2 + k);
            childAccesses(kidModel[k], 25, 0);
            failed += runBatch(*kernel, kArch, *kids[k], batch,
                               {&kidModel[k]});
        }
        for (Task *kid : kids) {
            ledger.timed(Layer::KernTerminate,
                         [&] { kernel->taskTerminate(kid); });
        }
        return failed ? 1 : 0;
    }

    Rng rng;
    Kernel *kernel = nullptr;
    VmSize page = 0;
    Task *parent = nullptr;
    Region region;
    std::vector<Access> batch;
    unsigned setupFailures = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSmpCow(std::uint64_t seed, Ledger &ledger)
{
    return std::make_unique<SmpCow>(seed, ledger);
}

} // namespace perfbench
