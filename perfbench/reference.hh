/**
 * @file
 * The reference loop host times are calibrated against.
 *
 * On a shared machine the host's speed drifts, by up to 2x over
 * minutes, and thread CPU time drifts with it, so raw host seconds of
 * runs taken minutes apart disagree by more than any useful bound.
 * The benchmark times this fixed loop next to every repetition and
 * reports host times scaled by kNominalS / (the loop's time now).
 * The loop mixes hash-map updates with 512-byte copies over a 1 MB
 * buffer, which resembles the simulator's own work closely enough to
 * slow down with it.  None of its code comes from src/, so no change
 * to the simulator moves it.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "harness.hh"

namespace perfbench
{

class Reference
{
  public:
    /**
     * Roughly the loop's median time on the 4-vCPU Intel Xeon VM the
     * benchmark was sized on: calibrated host times read as seconds
     * on that machine at that speed.
     */
    static constexpr double kNominalS = 0.008;

    Reference() : mem(kBytes)
    {
        // Grow the map to its steady size before the first timing.
        for (int i = 0; i < 8; ++i)
            seconds();
    }

    /** Run the loop once and return its host wall time. */
    double
    seconds()
    {
        std::int64_t t0 = hostNs();
        std::uint8_t buf[kCopy];
        for (unsigned i = 0; i < kIterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t key = x % kKeys;
            auto it = map.find(key);
            if (it == map.end())
                map.emplace(key, x);
            else if (x & 1)
                map.erase(it);
            else
                it->second += x;
            std::size_t off = (x >> 20) % (kBytes - kCopy);
            std::memcpy(buf, &mem[off], kCopy);
            buf[x % kCopy] ^= 1;
            std::memcpy(&mem[(off + 4096) % (kBytes - kCopy)], buf, kCopy);
        }
        return double(hostNs() - t0) * 1e-9;
    }

  private:
    static constexpr unsigned kIterations = 20000;
    static constexpr std::uint64_t kKeys = 50000;
    static constexpr std::size_t kBytes = 1 << 20;
    static constexpr std::size_t kCopy = 512;

    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::vector<std::uint8_t> mem;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
};

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
