/**
 * @file
 * External (user-state) pager tests: the full message protocol of
 * Tables 3-1 and 3-2 driven through real faults.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>

#include "kern/kernel.hh"
#include "pager/external_pager.hh"
#include "test_util.hh"
#include "vm/vm_object.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

/**
 * A user-state pager: serves pages from a std::map "store", records
 * the requests it saw.  This is the paper's "trivial read/write
 * object mechanism" (section 3.3).
 */
class UserPager
{
  public:
    UserPager(Kernel &kernel, VmSize page)
        : kernel(kernel), page(page)
    {
    }

    /** The pager_server routine: drain the object port. */
    void
    service(ExternalPager &proxy)
    {
        while (auto msg = proxy.objectPort().receive()) {
            switch (static_cast<MsgId>(msg->id)) {
              case MsgId::PagerInit:
                ++inits;
                break;
              case MsgId::PagerDataRequest: {
                VmOffset offset = msg->word(0);
                ++requests;
                auto it = store.find(offset);
                if (it == store.end()) {
                    proxy.pagerDataUnavailable(offset, page);
                } else {
                    proxy.pagerDataProvided(offset, it->second.data(),
                                            it->second.size(),
                                            VmProt::None);
                }
                break;
              }
              case MsgId::PagerDataWrite: {
                VmOffset offset = msg->word(0);
                ++writes;
                store[offset] = msg->inlineData;
                break;
              }
              case MsgId::PagerDataUnlock: {
                ++unlocks;
                // Grant the access: clear the lock.
                proxy.pagerDataLock(msg->word(0), msg->word(1),
                                    VmProt::None);
                break;
              }
              case MsgId::PagerTerminate:
                ++terminates;
                break;
              default:
                break;
            }
        }
    }

    Kernel &kernel;
    VmSize page;
    std::map<VmOffset, std::vector<std::uint8_t>> store;
    int inits = 0;
    int requests = 0;
    int writes = 0;
    int unlocks = 0;
    int terminates = 0;
};

class ExternalPagerTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(GetParam(), 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        task = kernel->taskCreate();
        proxy = std::make_unique<ExternalPager>(*kernel, "user-pager");
        user = std::make_unique<UserPager>(*kernel, page);
        proxy->setService(
            [this](ExternalPager &p) { user->service(p); });
    }

    void
    TearDown() override
    {
        // The kernel must go before the pager proxy: tearing down
        // the last task terminates externally managed objects, which
        // talks to the pager.
        kernel.reset();
        proxy.reset();
        user.reset();
    }

    /** Map a 4-page object managed by the user pager. */
    VmOffset
    mapUserObject()
    {
        VmOffset addr = 0;
        EXPECT_EQ(vmAllocateWithPager(*kernel->vm, task->map(), &addr,
                                      4 * page, true, proxy.get(), 0),
                  KernReturn::Success);
        return addr;
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *task = nullptr;
    std::unique_ptr<ExternalPager> proxy;
    std::unique_ptr<UserPager> user;
};

TEST_P(ExternalPagerTest, InitMessageOnFirstMap)
{
    mapUserObject();
    EXPECT_EQ(user->inits, 1);
    ASSERT_NE(proxy->managedObject(), nullptr);
    EXPECT_FALSE(proxy->managedObject()->internal);
}

TEST_P(ExternalPagerTest, FaultsBecomeDataRequests)
{
    auto data = test::pattern(page, 40);
    user->store[0] = data;

    VmOffset addr = mapUserObject();
    std::vector<std::uint8_t> out(page);
    ASSERT_EQ(kernel->taskRead(*task, addr, out.data(), page),
              KernReturn::Success);
    EXPECT_EQ(out, data);
    EXPECT_EQ(user->requests, 1);
}

TEST_P(ExternalPagerTest, UnavailableDataIsZeroFilled)
{
    VmOffset addr = mapUserObject();
    std::uint8_t b = 0xff;
    ASSERT_EQ(kernel->taskRead(*task, addr + page, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(b, 0);
    EXPECT_EQ(user->requests, 1);
}

TEST_P(ExternalPagerTest, PageoutSendsDataWrite)
{
    VmOffset addr = mapUserObject();
    auto data = test::pattern(page, 41);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), page),
              KernReturn::Success);

    // Unmap; the object is not persistent, so its dirty pages go
    // back to the pager.
    ASSERT_EQ(task->map().deallocate(addr, 4 * page),
              KernReturn::Success);
    EXPECT_GE(user->writes, 1);
    ASSERT_EQ(user->store.count(0), 1u);
    EXPECT_EQ(user->store[0],
              std::vector<std::uint8_t>(data.begin(), data.end()));
    EXPECT_EQ(user->terminates, 1);
}

TEST_P(ExternalPagerTest, RoundTripThroughPagerPreservesData)
{
    VmOffset addr = mapUserObject();
    auto data = test::pattern(2 * page, 42);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), data.size()),
              KernReturn::Success);
    ASSERT_EQ(task->map().deallocate(addr, 4 * page),
              KernReturn::Success);

    // Map it again: the pager serves back what it was given.
    VmOffset addr2 = mapUserObject();
    std::vector<std::uint8_t> out(2 * page);
    ASSERT_EQ(kernel->taskRead(*task, addr2, out.data(), out.size()),
              KernReturn::Success);
    EXPECT_EQ(out, data);
}

TEST_P(ExternalPagerTest, DataLockBlocksUntilUnlocked)
{
    // Pager provides page 0 locked against writes; the kernel must
    // emit pager_data_unlock on the first write fault and proceed
    // once the pager unlocks.
    user->store[0] = test::pattern(page, 43);
    VmOffset addr = mapUserObject();

    std::uint8_t b = 1;
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    // Lock the page against writes now.
    proxy->pagerDataLock(0, page, VmProt::Write);
    // Deliver the lock request to the kernel.
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);

    ASSERT_EQ(kernel->taskWrite(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_GE(user->unlocks, 1);
}

TEST_P(ExternalPagerTest, CleanRequestPushesDirtyData)
{
    VmOffset addr = mapUserObject();
    auto data = test::pattern(page, 44);
    ASSERT_EQ(kernel->taskWrite(*task, addr, data.data(), page),
              KernReturn::Success);

    proxy->pagerCleanRequest(0, page);
    EXPECT_GE(user->writes, 1);
    ASSERT_EQ(user->store.count(0), 1u);
    EXPECT_EQ(user->store[0],
              std::vector<std::uint8_t>(data.begin(), data.end()));
}

TEST_P(ExternalPagerTest, FlushRequestDestroysCachedPages)
{
    user->store[0] = test::pattern(page, 45);
    VmOffset addr = mapUserObject();
    std::uint8_t b;
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_EQ(user->requests, 1);

    // Destroy the cached copy, change the pager-side data, and
    // fault again: the kernel must re-request and see the new data.
    proxy->pagerFlushRequest(0, page);
    user->store[0] = test::pattern(page, 46);
    ASSERT_EQ(kernel->taskRead(*task, addr, &b, 1),
              KernReturn::Success);
    EXPECT_GE(user->requests, 2);
    EXPECT_EQ(b, test::pattern(page, 46)[0]);
}

TEST_P(ExternalPagerTest, FlushRequestSkipsWiredPages)
{
    // pager_flush_request must not free a wired page: it stays
    // resident and readable with its data, and is not re-requested.
    auto data = test::pattern(page, 47);
    user->store[0] = data;
    VmOffset addr = mapUserObject();
    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, true),
              KernReturn::Success);
    ASSERT_EQ(user->requests, 1);

    proxy->pagerFlushRequest(0, page);
    user->store[0] = test::pattern(page, 48);
    std::vector<std::uint8_t> out(page);
    ASSERT_EQ(kernel->taskRead(*task, addr, out.data(), page),
              KernReturn::Success);
    EXPECT_EQ(out, data);
    EXPECT_EQ(user->requests, 1);
    ASSERT_NE(proxy->managedObject()->pageAt(0), nullptr);
    EXPECT_EQ(proxy->managedObject()->pageAt(0)->wireCount, 1u);

    ASSERT_EQ(vmWire(*kernel->vm, task->map(), addr, page, false),
              KernReturn::Success);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ExternalPagerTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
