/**
 * @file
 * Tests of the benchmark's statistics: medians and quartiles (checked
 * against Python's statistics.quantiles), the median of block means,
 * the ">= 10 samples beyond" tail-percentile rule, and span self time
 * with nested, back-to-back and overlapping children.
 */

#include <gtest/gtest.h>

#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(Median, OddAndEvenCounts)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Quartiles, MatchPythonExclusiveMethod)
{
    // statistics.quantiles(v, n=4) for each input.
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);
    q = quartiles({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5});
    EXPECT_DOUBLE_EQ(q[0], 2);
    EXPECT_DOUBLE_EQ(q[1], 4);
    EXPECT_DOUBLE_EQ(q[2], 5);
    q = quartiles({10, 20});
    EXPECT_DOUBLE_EQ(q[0], 7.5);
    EXPECT_DOUBLE_EQ(q[1], 15);
    EXPECT_DOUBLE_EQ(q[2], 22.5);
    q = quartiles({7, 1, 3});
    EXPECT_DOUBLE_EQ(q[0], 1);
    EXPECT_DOUBLE_EQ(q[1], 3);
    EXPECT_DOUBLE_EQ(q[2], 7);
    EXPECT_THROW(quartiles({1}), std::invalid_argument);
}

TEST(MedianOfBlocks, BlendsWithinBlocksAndTakesTheMedianAcross)
{
    // Blocks of 3 s: [0,3) holds 1 and 3 (mean 2), [3,6) holds 10,
    // [6,9) is empty and skipped, [9,12) holds 4 and 4.
    std::vector<double> at = {0.0, 2.9, 3.0, 9.5, 11.0};
    std::vector<double> v = {1, 3, 10, 4, 4};
    std::vector<double> one(at.size(), 1.0);
    EXPECT_DOUBLE_EQ(medianOfBlocks(at, v, one, 3.0), 4);
    // A ratio block sums numerators and denominators separately.
    std::vector<double> den = {1, 3, 5, 2, 2};
    EXPECT_DOUBLE_EQ(medianOfBlocks({0, 1}, {2, 6}, {1, 3}, 3.0), 2);
    EXPECT_DOUBLE_EQ(medianOfBlocks(at, v, den, 3.0), 2);
    EXPECT_THROW(medianOfBlocks({}, {}, {}, 3.0), std::invalid_argument);
    EXPECT_THROW(medianOfBlocks({0}, {1}, {1}, 0.0), std::invalid_argument);
    EXPECT_EQ(blockOf(2.9, 3.0), 0u);
    EXPECT_EQ(blockOf(3.0, 3.0), 1u);
    EXPECT_EQ(blockOf(-0.5, 3.0), 0u);
}

TEST(TailPercentile, NeedsTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(9900, 1000), 10u);
    EXPECT_EQ(samplesBeyond(9900, 999), 9u);
    EXPECT_EQ(tailPercentile(19), 0u);
    EXPECT_EQ(tailPercentile(20), 5000u);
    EXPECT_EQ(tailPercentile(99), 5000u);
    EXPECT_EQ(tailPercentile(100), 9000u);
    EXPECT_EQ(tailPercentile(999), 9000u);
    EXPECT_EQ(tailPercentile(1000), 9900u);
    EXPECT_EQ(tailPercentile(9999), 9900u);
    EXPECT_EQ(tailPercentile(10000), 9990u);
    EXPECT_EQ(tailPercentile(100000), 9999u);
}

TEST(TailPercentile, NearestRankValue)
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(1001 - i); // 1000 .. 1, unsorted input
    EXPECT_DOUBLE_EQ(percentile(v, 5000), 500);
    EXPECT_DOUBLE_EQ(percentile(v, 9900), 990);
    EXPECT_DOUBLE_EQ(percentile(v, 10000), 1000);
    EXPECT_DOUBLE_EQ(percentile({5}, 9900), 5);
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce)
{
    // op [0,100] > access [10,60] > fault [20,50] > (none)
    std::vector<std::int64_t> self =
        selfTimes({{-1, 0, 100}, {0, 10, 60}, {1, 20, 50}});
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 30);
}

TEST(SelfTime, BackToBackChildren)
{
    // Two children that touch at t=20 cover [10,30] exactly once.
    std::vector<std::int64_t> self =
        selfTimes({{-1, 0, 40}, {0, 10, 20}, {0, 20, 30}});
    EXPECT_EQ(self[0], 20);
    EXPECT_EQ(self[1], 10);
    EXPECT_EQ(self[2], 10);
}

TEST(SelfTime, OverlappingAndOverhangingChildrenFormAUnion)
{
    // Children [5,15] and [10,25] overlap; [35,50] overhangs the
    // parent's end and is clipped to [35,40].
    std::vector<std::int64_t> self = selfTimes(
        {{-1, 0, 40}, {0, 10, 25}, {0, 5, 15}, {0, 35, 50}});
    EXPECT_EQ(self[0], 40 - 20 - 5);
}

TEST(SelfTime, SiblingRootsAreIndependent)
{
    std::vector<std::int64_t> self =
        selfTimes({{-1, 0, 10}, {-1, 10, 30}, {1, 12, 18}});
    EXPECT_EQ(self[0], 10);
    EXPECT_EQ(self[1], 14);
    EXPECT_EQ(self[2], 6);
    EXPECT_THROW(selfTimes({{5, 0, 1}}), std::out_of_range);
}

} // namespace
} // namespace perfbench
