/**
 * @file
 * The benchmark's statistics: medians and quartiles of repeated
 * measurements, the median of time-block means, the tail-percentile
 * rule for latency samples, and span self time for the per-layer
 * ledger.  Pure functions; tested by tests/stats_test.cc.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench
{

/** Median of @p v (mean of the middle pair for an even count). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        throw std::invalid_argument("median of no samples");
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * First, second and third quartile, by the same "exclusive" method
 * as Python's statistics.quantiles(v, n=4), so that spreads printed
 * here match the ones an acceptance script computes from the runs.
 */
inline std::array<double, 3>
quartiles(std::vector<double> v)
{
    if (v.size() < 2)
        throw std::invalid_argument("quartiles need two samples");
    std::sort(v.begin(), v.end());
    const long ld = long(v.size()), m = ld + 1;
    std::array<double, 3> q{};
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        long delta = i * m - j * 4;
        q[i - 1] = (v[j - 1] * double(4 - delta) + v[j] * double(delta)) / 4;
    }
    return q;
}

/**
 * Time blocks.  medianOfBlocks is the median over fixed time blocks of
 * each block's ratio sum(num) / sum(den), where sample i started at
 * @p at[i] seconds into the run; with den = 1 a block's ratio is its
 * mean.  On a host whose speed shifts every few seconds, a per-sample
 * median jumps between the fast and slow phases; a block mean blends
 * the phases inside it, and the median over blocks still drops an
 * outlying block.  blockOf is the block a sample starting at @p at
 * falls in.
 */
inline std::size_t
blockOf(double at, double block_s)
{
    if (!(block_s > 0))
        throw std::invalid_argument("block length must be positive");
    return std::size_t(std::max(at, 0.0) / block_s);
}

inline double
medianOfBlocks(const std::vector<double> &at, const std::vector<double> &num,
               const std::vector<double> &den, double block_s)
{
    if (at.empty() || at.size() != num.size() || at.size() != den.size())
        throw std::invalid_argument("medianOfBlocks: bad samples");
    std::vector<std::pair<double, double>> sums;
    for (std::size_t i = 0; i < at.size(); ++i) {
        std::size_t b = blockOf(at[i], block_s);
        if (b >= sums.size())
            sums.resize(b + 1);
        sums[b].first += num[i];
        sums[b].second += den[i];
    }
    std::vector<double> ratios;
    for (const auto &[n, d] : sums) {
        if (d > 0)
            ratios.push_back(n / d);
    }
    return median(ratios);
}

/**
 * Percentiles are written in basis points (9900 = p99) so the rank
 * arithmetic stays exact.  Nearest-rank definition: the value at
 * 1-based rank ceil(p * n / 10000) of the sorted samples.
 */
inline std::size_t
percentileRank(std::uint32_t p_bp, std::size_t n)
{
    std::size_t rank = (std::uint64_t(p_bp) * n + 9999) / 10000;
    return std::clamp<std::size_t>(rank, 1, n);
}

/** Samples strictly beyond the nearest-rank percentile @p p_bp. */
inline std::size_t
samplesBeyond(std::uint32_t p_bp, std::size_t n)
{
    return n ? n - percentileRank(p_bp, n) : 0;
}

/** A percentile is reportable only with this many samples beyond. */
constexpr std::size_t kMinSamplesBeyond = 10;

/**
 * The highest of p50, p90, p99, p99.9 and p99.99 that has at least
 * kMinSamplesBeyond samples beyond it, in basis points; 0 if even
 * the median lacks them.
 */
inline std::uint32_t
tailPercentile(std::size_t n)
{
    std::uint32_t best = 0;
    for (std::uint32_t p : {5000u, 9000u, 9900u, 9990u, 9999u}) {
        if (samplesBeyond(p, n) >= kMinSamplesBeyond)
            best = p;
    }
    return best;
}

/** Nearest-rank percentile @p p_bp of @p v. */
inline double
percentile(std::vector<double> v, std::uint32_t p_bp)
{
    if (v.empty())
        throw std::invalid_argument("percentile of no samples");
    std::size_t k = percentileRank(p_bp, v.size()) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

/** One closed interval of a span tree; parent < 0 marks a root. */
struct SpanTimes
{
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
};

/**
 * Self time of every span: its duration minus the part of that
 * interval its direct children cover.  Children are merged as a
 * union (so overlapping or back-to-back children are not counted
 * twice) and clipped to the parent.  A child's own children are
 * already inside the child, so they do not reduce the parent again.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<SpanTimes> &spans)
{
    const std::size_t n = spans.size();
    std::vector<std::vector<std::size_t>> kids(n);
    for (std::size_t i = 0; i < n; ++i) {
        std::int64_t p = spans[i].parent;
        if (p >= 0) {
            if (std::size_t(p) >= n)
                throw std::out_of_range("span parent out of range");
            kids[p].push_back(i);
        }
    }
    std::vector<std::int64_t> self(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SpanTimes &s = spans[i];
        auto &k = kids[i];
        std::sort(k.begin(), k.end(), [&](std::size_t a, std::size_t b) {
            return spans[a].start < spans[b].start;
        });
        std::int64_t covered = 0, reach = s.start;
        for (std::size_t c : k) {
            std::int64_t lo = std::max(spans[c].start, reach);
            std::int64_t hi = std::min(spans[c].end, s.end);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = (s.end - s.start) - covered;
    }
    return self;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
