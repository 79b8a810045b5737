#ifndef NOMAP_SUPPORT_RANDOM_H
#define NOMAP_SUPPORT_RANDOM_H

/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All randomness in the simulator and in the benchmark workloads flows
 * through Xorshift64Star so that runs are bit-identical across
 * machines and repetitions. The JS-subset builtin Math.random() is
 * backed by an instance of this generator seeded per Engine.
 */

#include <cstdint>

namespace nomap {

/** xorshift64* generator: small, fast, deterministic, decent quality. */
class Xorshift64Star
{
  public:
    explicit Xorshift64Star(uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state(seed ? seed : 0x9e3779b97f4a7c15ull)
    {}

    /** Next raw 64-bit value. */
    uint64_t
    next()
    {
        uint64_t x = state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        state = x;
        return x * 0x2545f4914f6cdd1dull;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
    }

    /** Uniform integer in [0, bound). bound must be > 0. */
    uint64_t
    nextBounded(uint64_t bound)
    {
        return next() % bound;
    }

    /** Re-seed the generator. */
    void
    seed(uint64_t s)
    {
        state = s ? s : 0x9e3779b97f4a7c15ull;
    }

  private:
    uint64_t state;
};

} // namespace nomap

#endif // NOMAP_SUPPORT_RANDOM_H
