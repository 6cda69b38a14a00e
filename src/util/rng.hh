/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic model components (sensor noise, classifier error draws,
 * Unreal-style environment jitter) draw from explicitly-seeded Rng
 * instances so that simulations are reproducible: FireSim is deterministic
 * in the paper, and the only nondeterminism comes from the environment
 * simulator, which we reproduce as seeded noise.
 */

#ifndef ROSE_UTIL_RNG_HH
#define ROSE_UTIL_RNG_HH

#include <cstddef>
#include <cstdint>

namespace rose {

class StateWriter;
class StateReader;

/**
 * xoshiro256** generator seeded via SplitMix64. Small, fast, and good
 * enough statistically for simulation noise.
 */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x5eed5eedULL) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed. */
    void reseed(uint64_t seed);

    /** Next raw 64-bit draw. */
    uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** Uniform integer in [0, n); n must be > 0. */
    uint64_t uniformInt(uint64_t n);

    /** Standard normal draw (Box-Muller, cached pair). */
    double gaussian();

    /** Normal draw with the given mean and standard deviation. */
    double gaussian(double mean, double stddev);

    /**
     * Fill out[0, n) with float(gaussian(mean, stddev)) for n
     * successive draws: the same floats, in the same order, leaving the
     * same state (xoshiro words, Box-Muller spare and saveState bytes)
     * as the scalar loop. Pairs are evaluated by vectorized polynomials
     * and kept only where an error bound proves the float; the rest
     * fall back to the libm expression (DESIGN.md 5h).
     */
    void gaussianFill(double mean, double stddev, float *out, size_t n);

    /** Bernoulli draw with probability p of true. */
    bool bernoulli(double p);

    /** Derive an independent child generator (for per-sensor streams). */
    Rng split();

    /** Serialize the full generator state (xoshiro words + Box-Muller
     *  spare) so a restored stream replays bit-identically. */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    uint64_t s_[4] = {};
    bool haveSpare_ = false;
    double spare_ = 0.0;
};

} // namespace rose

#endif // ROSE_UTIL_RNG_HH
