/**
 * @file
 * Property-based pmap conformance: random sequences of pmap
 * operations mirrored against a reference dictionary, on every
 * architecture.  The pmap contract allows mappings to be dropped
 * spontaneously (alias evictions, PMEG steals), so the property is
 * one-sided where the paper says it must be:
 *
 *   - extract() never returns a *wrong* translation — it returns
 *     either the reference's physical address or nothing;
 *   - after remove()/removeAll() the mapping is definitely gone;
 *   - wired kernel mappings are never dropped;
 *   - protections never exceed what was last set.
 *
 * On the four backends with a PV table the reverse map is also
 * audited against the pmaps after every step.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>

#include "hw/machine.hh"
#include "pmap/pmap.hh"
#include "pmap/pv_table.hh"
#include "test_util.hh"

namespace mach
{
namespace
{

struct Rng
{
    std::uint32_t x;
    explicit Rng(std::uint32_t seed) : x(seed ? seed : 1) {}
    std::uint32_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        return x;
    }
    std::uint32_t next(std::uint32_t bound) { return next() % bound; }
};

struct RefMapping
{
    PhysAddr pa;
    VmProt prot;
};

struct Param
{
    ArchType arch;
    unsigned seed;
};

class PmapProperty : public ::testing::TestWithParam<Param>
{
};

/**
 * The PV table agrees with the pmaps: every record (pmap, va) of a
 * frame names a live pmap that extracts va to exactly that frame,
 * and the table holds as many records as the live pmaps count
 * hardware mappings.  Modules without a PV table (RT PC) pass.
 */
void
expectPvAgrees(PmapSystem &sys, std::initializer_list<Pmap *> live)
{
    auto *pvs = dynamic_cast<PvPmapSystem *>(&sys);
    if (!pvs)
        return;
    const PvTable &pv = pvs->pv();
    const MachineSpec &spec = sys.getMachine().spec;
    std::size_t records = 0;
    for (FrameNum f = 0; f < spec.physMemBytes / spec.hwPageSize(); ++f) {
        pv.forEach(f, [&](const PvEntry &e) {
            ++records;
            ASSERT_NE(std::find(live.begin(), live.end(), e.pmap),
                      live.end())
                << "frame " << f << " has a record of a dead pmap";
            EXPECT_EQ(e.pmap->extract(e.va),
                      std::optional<PhysAddr>(PhysAddr(f)
                                              << spec.hwPageShift))
                << "PV record (va " << e.va << ") of frame " << f
                << " disagrees with its pmap";
        });
    }
    std::uint64_t resident = 0;
    for (Pmap *p : live)
        resident += p->residentMappings();
    EXPECT_EQ(records, pv.totalMappings());
    EXPECT_EQ(resident, pv.totalMappings())
        << "pmaps count a different number of mappings than the PV "
           "table records";
}

TEST_P(PmapProperty, RandomOperationsNeverLie)
{
    MachineSpec spec = test::tinySpec(GetParam().arch, 4);
    Machine machine(spec);
    auto sys = PmapSystem::build(machine);
    sys->init(spec.hwPageSize());
    VmSize page = sys->machPageSize();
    Rng rng(GetParam().seed);

    constexpr unsigned kMaps = 3;
    constexpr unsigned kVaPages = 24;
    constexpr unsigned kFrames = 16;

    Pmap *pmaps[kMaps];
    // model[m][va page] = expected mapping
    std::map<unsigned, RefMapping> model[kMaps];
    for (unsigned m = 0; m < kMaps; ++m)
        pmaps[m] = sys->create();

    auto vaOf = [&](unsigned i) { return VmOffset(1 + i) * page; };
    auto paOf = [&](unsigned f) { return PhysAddr(2 + f) * page; };

    auto verify = [&]() {
        for (unsigned m = 0; m < kMaps; ++m) {
            for (unsigned i = 0; i < kVaPages; ++i) {
                auto got = pmaps[m]->extract(vaOf(i));
                auto it = model[m].find(i);
                if (it == model[m].end()) {
                    EXPECT_FALSE(got.has_value())
                        << "map " << m << " page " << i
                        << " maps something that was never entered "
                           "or was removed";
                } else if (got.has_value()) {
                    // Present mappings must be the right ones; the
                    // pmap may also have (legally) dropped them.
                    EXPECT_EQ(*got, it->second.pa)
                        << "map " << m << " page " << i;
                }
            }
        }
    };

    for (unsigned step = 0; step < 500; ++step) {
        unsigned op = rng.next(100);
        unsigned m = rng.next(kMaps);
        unsigned i = rng.next(kVaPages);
        unsigned f = rng.next(kFrames);

        if (op < 40) {
            VmProt prot = rng.next(2) ? VmProt::Default : VmProt::Read;
            pmaps[m]->enter(vaOf(i), paOf(f), prot, false);
            model[m][i] = RefMapping{paOf(f), prot};
            // On the RT PC, entering evicts any other map's mapping
            // of the same frame — and any prior va of ours for it.
            if (spec.arch == ArchType::RtPc) {
                for (unsigned om = 0; om < kMaps; ++om) {
                    for (auto it = model[om].begin();
                         it != model[om].end();) {
                        bool same_frame = it->second.pa == paOf(f);
                        bool self = om == m && it->first == i;
                        if (same_frame && !self)
                            it = model[om].erase(it);
                        else
                            ++it;
                    }
                }
            }
        } else if (op < 60) {
            unsigned n = 1 + rng.next(4);
            pmaps[m]->remove(vaOf(i), vaOf(i) + n * page);
            for (unsigned k = i; k < i + n && k < kVaPages + 8; ++k)
                model[m].erase(k);
        } else if (op < 75) {
            // removeAll on a frame clears it from every model.
            sys->removeAll(paOf(f), ShootdownMode::Immediate);
            for (unsigned om = 0; om < kMaps; ++om) {
                for (auto it = model[om].begin();
                     it != model[om].end();) {
                    if (it->second.pa == paOf(f))
                        it = model[om].erase(it);
                    else
                        ++it;
                }
            }
        } else if (op < 85) {
            // copyOnWrite revokes write everywhere.
            sys->copyOnWrite(paOf(f), ShootdownMode::Immediate);
            for (unsigned om = 0; om < kMaps; ++om) {
                for (auto &[k, ref] : model[om]) {
                    if (ref.pa == paOf(f))
                        ref.prot = ref.prot & ~VmProt::Write;
                }
            }
        } else if (op < 95) {
            VmProt prot = rng.next(2) ? VmProt::Read
                                      : (VmProt::Read |
                                         VmProt::Execute);
            unsigned n = 1 + rng.next(4);
            pmaps[m]->protect(vaOf(i), vaOf(i) + n * page, prot);
            for (unsigned k = i; k < i + n && k < kVaPages; ++k) {
                auto it = model[m].find(k);
                if (it != model[m].end())
                    it->second.prot = prot;
            }
        } else {
            pmaps[m]->garbageCollect();
            // Mappings may or may not survive; nothing to update —
            // verify() only checks that survivors are correct.
        }

        if (step % 23 == 0)
            verify();
        expectPvAgrees(*sys, {pmaps[0], pmaps[1], pmaps[2],
                              sys->kernelPmap()});
        ASSERT_FALSE(HasFailure()) << "after step " << step << " (op "
                                   << op << ")";
    }
    verify();

    // Protection one-sidedness: any surviving hardware translation
    // must not grant more than the model allows.
    for (unsigned m = 0; m < kMaps; ++m) {
        pmaps[m]->activate(0);
        for (unsigned i = 0; i < kVaPages; ++i) {
            auto tr = pmaps[m]->hwLookup(vaOf(i), AccessType::Read);
            if (!tr)
                continue;
            auto it = model[m].find(i);
            ASSERT_NE(it, model[m].end());
            EXPECT_TRUE(protIncludes(it->second.prot, tr->prot))
                << "map " << m << " page " << i
                << " grants more than was last set";
        }
        pmaps[m]->deactivate(0);
    }

    for (unsigned m = 0; m < kMaps; ++m)
        sys->destroy(pmaps[m]);
}

TEST_P(PmapProperty, WiredKernelMappingsSurviveEverything)
{
    MachineSpec spec = test::tinySpec(GetParam().arch, 4);
    Machine machine(spec);
    auto sys = PmapSystem::build(machine);
    sys->init(spec.hwPageSize());
    VmSize page = sys->machPageSize();
    Rng rng(GetParam().seed * 31);

    Pmap *kernel = sys->kernelPmap();
    constexpr unsigned kWired = 4;
    for (unsigned i = 0; i < kWired; ++i)
        kernel->enter((1 + i) * page, (1 + i) * page,
                      VmProt::Default, true);

    // Hammer the system with user-map churn.
    Pmap *user = sys->create();
    for (unsigned step = 0; step < 300; ++step) {
        unsigned i = rng.next(16);
        unsigned f = kWired + 1 + rng.next(16);
        user->enter((8 + i) * page, f * page, VmProt::Default, false);
        if (rng.next(3) == 0)
            user->remove((8 + i) * page, (9 + i) * page);
        if (rng.next(5) == 0)
            user->garbageCollect();
        if (rng.next(7) == 0)
            kernel->garbageCollect();
        expectPvAgrees(*sys, {kernel, user});
        ASSERT_FALSE(HasFailure()) << "after step " << step;
    }

    for (unsigned i = 0; i < kWired; ++i) {
        EXPECT_EQ(kernel->extract((1 + i) * page).value_or(0),
                  (1 + i) * page)
            << "wired kernel mapping " << i << " was lost";
    }
    kernel->remove(page, (1 + kWired) * page);
    sys->destroy(user);
}

std::string
paramName(const ::testing::TestParamInfo<Param> &info)
{
    return test::archLabel(info.param.arch) + "_s" +
        std::to_string(info.param.seed);
}

std::vector<Param>
allParams()
{
    std::vector<Param> ps;
    for (ArchType arch : test::allArchs()) {
        for (unsigned seed : {3u, 17u, 59u})
            ps.push_back({arch, seed});
    }
    return ps;
}

INSTANTIATE_TEST_SUITE_P(ArchSeeds, PmapProperty,
                         ::testing::ValuesIn(allParams()), paramName);

} // namespace
} // namespace mach
