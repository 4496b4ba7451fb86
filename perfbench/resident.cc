/**
 * @file
 * `resident`: fault-free random access on every pmap backend.
 * Chosen as the control for the machine-dependent hot path: after
 * warm-up every page is resident and mapped, so the timed phase takes
 * no faults and only exercises the TLB (lookup, insert, FIFO
 * eviction), each backend's hwLookup on a miss, the modified-bit path
 * and PhysMemory copies.  A vm_fault change must not move it.
 *
 * Per architecture, four tasks each own a working set of four TLBs'
 * worth of pages: it fits in RAM but not in the TLB.  One op is one
 * 8-byte access (70% taskRead, 30% taskWrite, to a uniformly random
 * page of the working set); one step is a 256-access quantum of one
 * task, after which the next task runs.  Steps rotate over the five
 * architectures.
 */

#include "harness.hh"

namespace perfbench
{
namespace
{

constexpr unsigned kTasks = 4;
constexpr unsigned kQuantum = 256;
constexpr unsigned kQuantaPerArch = 1600;
constexpr unsigned kTlbsPerWorkingSet = 4;
constexpr unsigned kWritePercent = 30;
/** Accesses hit the first cache line of a page: the translation path,
 *  not host cache misses on simulated memory, sets their cost. */
constexpr unsigned kWordsPerPage = 8;

class Resident : public Workload
{
  public:
    Resident(std::uint64_t seed, Ledger &l) : Workload(l), rng(seed)
    {
        for (std::size_t a = 0; a < kNumArchs; ++a) {
            Arch &m = archs[a];
            mach::MachineSpec spec = mach::MachineSpec::byName(kArchNames[a]);
            spec.numCpus = 1;
            VmSize page = spec.hwPageSize();
            VmSize set = VmSize(kTlbsPerWorkingSet) * spec.tlbEntries * page;
            // A quarter more than the four working sets: the free list
            // stays above the pageout daemon's target (2% of RAM), and
            // the host memory the simulator touches stays small.
            spec.physMemBytes = kTasks * set + kTasks * set / 4;
            mach::KernelConfig cfg;
            cfg.diskBytes = 1ull << 20;
            cfg.swapBytes = 4ull << 20;
            m.kernel = &boot(spec, cfg, std::uint8_t(a));
            for (unsigned t = 0; t < kTasks; ++t) {
                Proc &p = m.procs[t];
                p.task = m.kernel->taskCreate();
                p.pageShift = spec.hwPageShift;
                p.words.assign(set / page * kWordsPerPage, 0);
                if (p.task->map().allocate(&p.base, set, true) !=
                    KernReturn::Success) {
                    ++setupFailures;
                }
                // Warm-up: one write per page makes the whole working
                // set resident and mapped.
                batch.clear();
                for (VmOffset off = 0; off < set; off += page)
                    batch.push_back(
                        {p.base + off, true, rng.next(), KernReturn::Success});
                setupFailures += runBatch(*m.kernel, std::uint8_t(a), *p.task,
                                          batch, [&p](VmOffset va) {
                                              return p.slot(va);
                                          });
            }
        }
    }

    unsigned steps() const override { return kQuantaPerArch * kNumArchs; }
    unsigned opsPerStep() const override { return kQuantum; }

    unsigned
    step(unsigned i) override
    {
        std::size_t a = i % kNumArchs;
        Arch &m = archs[a];
        Proc &p = m.procs[(i / kNumArchs) % kTasks];
        const std::uint32_t pages =
            std::uint32_t(p.words.size() / kWordsPerPage);
        batch.clear();
        for (unsigned k = 0; k < kQuantum; ++k) {
            // One draw picks the page, the word and the direction.
            std::uint64_t r = rng.next();
            VmOffset va = p.base + (((r >> 32) * pages) >> 32 << p.pageShift) +
                          8 * (r % kWordsPerPage);
            bool write = (r >> 8) % 100 < kWritePercent;
            batch.push_back(
                {va, write, write ? rng.next() : 0, KernReturn::Success});
        }
        return runBatch(*m.kernel, std::uint8_t(a), *p.task, batch,
                        [&p](VmOffset va) { return p.slot(va); });
    }

    unsigned finalCheck() override { return setupFailures ? 1 : 0; }

  private:
    /** A task and its model: kWordsPerPage words per page, dense, so
     *  the model stays in host cache while the working set need not. */
    struct Proc
    {
        Task *task = nullptr;
        VmOffset base = 0;
        unsigned pageShift = 0;
        std::vector<std::uint64_t> words;

        std::uint64_t *
        slot(VmOffset va)
        {
            VmOffset off = va - base;
            VmOffset word = (off & ((VmOffset(1) << pageShift) - 1)) / 8;
            std::size_t i = (off >> pageShift) * kWordsPerPage + word;
            return va >= base && word < kWordsPerPage && i < words.size()
                       ? &words[i]
                       : nullptr;
        }
    };
    struct Arch
    {
        Kernel *kernel = nullptr;
        std::array<Proc, kTasks> procs;
    };

    Rng rng;
    std::array<Arch, kNumArchs> archs;
    std::vector<Access> batch;
    unsigned setupFailures = 0;
};

} // namespace

std::unique_ptr<Workload>
makeResident(std::uint64_t seed, Ledger &ledger)
{
    return std::make_unique<Resident>(seed, ledger);
}

} // namespace perfbench
