/**
 * @file
 * Ports, messages, and the memory/communication integration: large
 * out-of-line transfers move by COW remapping, not by copying.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "ipc/port.hh"
#include "kern/kernel.hh"
#include "test_util.hh"
#include "vm/vm_user.hh"

namespace mach
{
namespace
{

TEST(Port, FifoSendReceive)
{
    Port port("test");
    EXPECT_TRUE(port.empty());
    EXPECT_FALSE(port.receive().has_value());

    Message m1(MsgId::UserBase);
    m1.words = {1};
    Message m2(MsgId::UserBase);
    m2.words = {2};
    port.send(std::move(m1));
    port.send(std::move(m2));
    EXPECT_EQ(port.pending(), 2u);

    auto r1 = port.receive();
    ASSERT_TRUE(r1.has_value());
    EXPECT_EQ(r1->word(0), 1u);
    auto r2 = port.receive();
    ASSERT_TRUE(r2.has_value());
    EXPECT_EQ(r2->word(0), 2u);
    EXPECT_TRUE(port.empty());
    EXPECT_EQ(port.sends(), 2u);
}

TEST(Message, InlineDataAndWords)
{
    Message m(MsgId::UserBase);
    m.words = {7, 8, 9};
    m.inlineData = {1, 2, 3};
    EXPECT_EQ(m.word(0), 7u);
    EXPECT_EQ(m.word(2), 9u);
    EXPECT_EQ(m.word(5), 0u);  // out of range reads as 0
    EXPECT_TRUE(m.is(MsgId::UserBase));
    EXPECT_FALSE(m.is(MsgId::PagerInit));
}

class IpcVmTest : public ::testing::TestWithParam<ArchType>
{
  protected:
    void
    SetUp() override
    {
        spec = test::tinySpec(GetParam(), 4);
        kernel = std::make_unique<Kernel>(spec);
        page = kernel->pageSize();
        sender = kernel->taskCreate();
        receiver = kernel->taskCreate();
    }

    MachineSpec spec;
    std::unique_ptr<Kernel> kernel;
    VmSize page = 0;
    Task *sender = nullptr;
    Task *receiver = nullptr;
};

TEST_P(IpcVmTest, OutOfLineMemoryMovesWithoutCopying)
{
    // "Large amounts of data ... sent in a single message with the
    // efficiency of simple memory remapping" (section 2).
    VmSize size = 16 * page;
    VmOffset src = 0;
    ASSERT_EQ(sender->map().allocate(&src, size, true),
              KernReturn::Success);
    auto data = test::pattern(size, 21);
    ASSERT_EQ(kernel->taskWrite(*sender, src, data.data(), size),
              KernReturn::Success);

    SimTime t0 = kernel->now();
    Message msg(MsgId::UserBase);
    ASSERT_EQ(msg.attachMemory(sender->map(), src, size),
              KernReturn::Success);
    kernel->sendMessage(receiver->taskPort, std::move(msg));

    auto received = receiver->taskPort.receive();
    ASSERT_TRUE(received.has_value());
    ASSERT_TRUE(received->hasMemory());
    EXPECT_EQ(received->memorySize(), size);
    VmOffset dst = 0;
    ASSERT_EQ(received->takeMemory(receiver->map(), &dst),
              KernReturn::Success);
    SimTime transfer = kernel->now() - t0;

    // No data copy: far cheaper than memcpy of the payload.
    EXPECT_LT(transfer, spec.costs.copyCost(size));

    // The receiver reads the sender's bytes.
    std::vector<std::uint8_t> out(size);
    ASSERT_EQ(kernel->taskRead(*receiver, dst, out.data(), size),
              KernReturn::Success);
    EXPECT_EQ(out, data);
}

TEST_P(IpcVmTest, OutOfLineMemoryNeedsReadAccess)
{
    // An out-of-line copy reads its source as vm_copy does: a range
    // the sender cannot read is refused, and nothing is attached.
    VmSize size = 2 * page;
    VmOffset src = 0;
    ASSERT_EQ(sender->map().allocate(&src, size, true),
              KernReturn::Success);
    ASSERT_EQ(sender->map().protect(src + page, page, false,
                                    VmProt::None),
              KernReturn::Success);

    Message msg(MsgId::UserBase);
    EXPECT_EQ(msg.attachMemory(sender->map(), src, size),
              KernReturn::ProtectionFailure);
    EXPECT_FALSE(msg.hasMemory());
    EXPECT_EQ(vmCopy(*kernel->vm, sender->map(), src, size, src + size),
              KernReturn::ProtectionFailure);

    // The readable half alone still goes out.
    EXPECT_EQ(msg.attachMemory(sender->map(), src, page),
              KernReturn::Success);
}

TEST_P(IpcVmTest, SecondAttachIsRefusedAndKeepsTheFirstRegion)
{
    // A message carries one out-of-line region: a second attach
    // must neither append its entries nor resize the first region.
    VmOffset src = 0;
    ASSERT_EQ(sender->map().allocate(&src, 3 * page, true),
              KernReturn::Success);
    auto data = test::pattern(3 * page, 41);
    ASSERT_EQ(kernel->taskWrite(*sender, src, data.data(), data.size()),
              KernReturn::Success);

    Message msg(MsgId::UserBase);
    ASSERT_EQ(msg.attachMemory(sender->map(), src, 2 * page),
              KernReturn::Success);
    EXPECT_EQ(msg.attachMemory(sender->map(), src + 2 * page, page),
              KernReturn::InvalidArgument);
    EXPECT_EQ(msg.memorySize(), 2 * page);
    kernel->sendMessage(receiver->taskPort, std::move(msg));

    auto received = receiver->taskPort.receive();
    ASSERT_TRUE(received.has_value());
    VmOffset dst = 0;
    ASSERT_EQ(received->takeMemory(receiver->map(), &dst),
              KernReturn::Success);
    std::vector<std::uint8_t> out(2 * page);
    ASSERT_EQ(kernel->taskRead(*receiver, dst, out.data(), out.size()),
              KernReturn::Success);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), data.begin()));
    // The received region is exactly the first attach.
    std::uint8_t past = 0;
    EXPECT_NE(kernel->taskRead(*receiver, dst + 2 * page, &past, 1),
              KernReturn::Success);
}

TEST_P(IpcVmTest, SenderWritesAfterSendDontLeakToReceiver)
{
    VmSize size = 2 * page;
    VmOffset src = 0;
    ASSERT_EQ(sender->map().allocate(&src, size, true),
              KernReturn::Success);
    auto data = test::pattern(size, 23);
    ASSERT_EQ(kernel->taskWrite(*sender, src, data.data(), size),
              KernReturn::Success);

    Message msg(MsgId::UserBase);
    ASSERT_EQ(msg.attachMemory(sender->map(), src, size),
              KernReturn::Success);
    kernel->sendMessage(receiver->taskPort, std::move(msg));

    // Sender scribbles after the send but before the receive.
    std::uint8_t z = 0xee;
    ASSERT_EQ(kernel->taskWrite(*sender, src, &z, 1),
              KernReturn::Success);

    auto received = receiver->taskPort.receive();
    VmOffset dst = 0;
    ASSERT_EQ(received->takeMemory(receiver->map(), &dst),
              KernReturn::Success);
    std::uint8_t first = 0;
    ASSERT_EQ(kernel->taskRead(*receiver, dst, &first, 1),
              KernReturn::Success);
    EXPECT_EQ(first, data[0]);  // snapshot semantics
}

TEST_P(IpcVmTest, UnreceivedMemoryIsReleasedWithTheMessage)
{
    std::uint64_t live0 = kernel->vm->liveObjects;
    VmOffset src = 0;
    ASSERT_EQ(sender->map().allocate(&src, 4 * page, true),
              KernReturn::Success);
    ASSERT_EQ(kernel->taskTouch(*sender, src, 4 * page,
                                AccessType::Write),
              KernReturn::Success);
    {
        Message msg(MsgId::UserBase);
        ASSERT_EQ(msg.attachMemory(sender->map(), src, 4 * page),
                  KernReturn::Success);
        // dropped without being received
    }
    // Only the sender's own object remains live.
    EXPECT_EQ(kernel->vm->liveObjects, live0 + 1);
}

TEST_P(IpcVmTest, WholeAddressSpaceTransfer)
{
    // Send several regions (code+data+stack analogue) in one
    // message, as the paper says whole address spaces can be.
    std::vector<VmOffset> regions;
    for (int i = 0; i < 3; ++i) {
        VmOffset a = 0;
        ASSERT_EQ(sender->map().allocate(&a, 2 * page, true),
                  KernReturn::Success);
        auto d = test::pattern(2 * page, 30 + i);
        ASSERT_EQ(kernel->taskWrite(*sender, a, d.data(), d.size()),
                  KernReturn::Success);
        regions.push_back(a);
    }
    // The three allocations are contiguous (same anywhere scan), so
    // one attach covers them all.
    VmOffset base = regions[0];
    VmSize span = regions[2] + 2 * page - base;

    Message msg(MsgId::UserBase);
    ASSERT_EQ(msg.attachMemory(sender->map(), base, span),
              KernReturn::Success);
    kernel->sendMessage(receiver->taskPort, std::move(msg));

    auto received = receiver->taskPort.receive();
    VmOffset dst = 0;
    ASSERT_EQ(received->takeMemory(receiver->map(), &dst),
              KernReturn::Success);
    for (int i = 0; i < 3; ++i) {
        auto expect = test::pattern(2 * page, 30 + i);
        std::vector<std::uint8_t> out(2 * page);
        ASSERT_EQ(kernel->taskRead(*receiver,
                                   dst + (regions[i] - base),
                                   out.data(), out.size()),
                  KernReturn::Success);
        EXPECT_EQ(out, expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, IpcVmTest,
    ::testing::ValuesIn(test::allArchs()),
    [](const ::testing::TestParamInfo<ArchType> &info) {
        return test::archLabel(info.param);
    });

} // namespace
} // namespace mach
