/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * Uses xoshiro256** (public-domain algorithm by Blackman & Vigna): fast,
 * high quality, and — unlike std::mt19937 — guaranteed to produce the same
 * sequence on every platform, which keeps experiments reproducible.
 *
 * The draws are defined in this header so they inline into the workload
 * generator's per-reference loop (the build has no LTO).
 */
#ifndef SPUR_COMMON_RANDOM_H_
#define SPUR_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>

namespace spur {

/** A small, fast, deterministic PRNG (xoshiro256**). */
class Rng
{
  public:
    /** Threshold(p) for every p >= 1: all 53-bit draws fall below it. */
    static constexpr uint64_t kAlways = uint64_t{1} << 53;

    /** Seeds the generator; the same seed always yields the same stream. */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Returns the next raw 64-bit value. */
    uint64_t Next()
    {
        const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = Rotl(state_[3], 45);

        return result;
    }

    /** Returns a uniformly distributed value in [0, bound). @p bound > 0. */
    uint64_t NextBelow(uint64_t bound)
    {
        // Lemire's multiply-shift bounded draw; the slight modulo bias of
        // the plain form is irrelevant for workload synthesis, so we skip
        // the rejection step for speed.
        const unsigned __int128 product =
            static_cast<unsigned __int128>(Next()) * bound;
        return static_cast<uint64_t>(product >> 64);
    }

    /** Returns the 53-bit integer in [0, 2^53) that NextDouble() scales. */
    uint64_t Next53() { return Next() >> 11; }

    /** Returns a uniformly distributed double in [0, 1): Next53() / 2^53. */
    double NextDouble() { return static_cast<double>(Next53()) * 0x1.0p-53; }

    /**
     * The integer form of a probability: ceil(p * 2^53), clamped to
     * [0, kAlways] (0 for NaN).  `Next53() < Threshold(p)` holds exactly
     * when `NextDouble() < p` would, for the same raw draw: NextDouble()
     * is n * 2^-53 for an integer n < 2^53, scaling by a power of two is
     * exact, and n < x is n < ceil(x) for integer n.
     */
    static uint64_t Threshold(double p)
    {
        if (!(p > 0.0)) {
            return 0;
        }
        if (p >= 1.0) {
            return kAlways;
        }
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** Returns true with probability @p p (clamped to [0,1]).  Draws
     *  nothing when @p p <= 0 or @p p >= 1. */
    bool Chance(double p)
    {
        if (p <= 0.0) {
            return false;
        }
        if (p >= 1.0) {
            return true;
        }
        return NextDouble() < p;
    }

    /**
     * Chance() against a precomputed Threshold(p): the same draws and the
     * same outcomes for any p that is not NaN.  Threshold 0 (p <= 0) and
     * kAlways (p >= 1) draw nothing, as Chance() does.
     */
    bool ChanceBelow(uint64_t threshold)
    {
        if (threshold == 0) {
            return false;
        }
        if (threshold >= kAlways) {
            return true;
        }
        return Next53() < threshold;
    }

    /** The power-transform exponent NextZipf() uses for @p skew. */
    static double ZipfExponent(double skew)
    {
        // k >= 1 concentrates mass near index zero; k grows without bound
        // as skew approaches 1, so skew is capped at 0.95.
        return 1.0 / ((skew >= 0.95) ? 0.05 : (1.0 - skew));
    }

    /**
     * Returns an index in [0, n) with a Zipf-like bias toward low indices.
     *
     * Used to model temporal locality of page reuse within a working set:
     * index 0 is the hottest entry.  @p skew in (0, 2]; larger is more
     * skewed.  Implemented by inverse-power transform of a uniform draw,
     * which is inexpensive and adequate for locality modelling.
     */
    uint64_t NextZipf(uint64_t n, double skew)
    {
        return NextZipfPow(n, ZipfExponent(skew));
    }

    /**
     * NextZipf() with its exponent precomputed by ZipfExponent():
     * floor(n * u^exponent) for a uniform u, clamped below @p n.  Draws
     * nothing when @p n <= 1.
     */
    uint64_t NextZipfPow(uint64_t n, double exponent)
    {
        if (n <= 1) {
            return 0;
        }
        const double u = NextDouble();
        const auto idx = static_cast<uint64_t>(static_cast<double>(n) *
                                               std::pow(u, exponent));
        return (idx >= n) ? (n - 1) : idx;
    }

  private:
    static constexpr uint64_t Rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

}  // namespace spur

#endif  // SPUR_COMMON_RANDOM_H_
