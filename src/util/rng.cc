#include "rng.hh"

#include <cmath>

#include "serde.hh"

namespace rose {

namespace {

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t v, int k)
{
    return (v << k) | (v >> (64 - k));
}

/** One xoshiro256** step on @p s. */
inline uint64_t
xoshiro(uint64_t (&s)[4])
{
    uint64_t result = rotl(s[1] * 5, 7) * 9;
    uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);
    return result;
}

/** 53 high bits -> double in [0,1). */
inline double
unitDouble(uint64_t v)
{
    return (v >> 11) * (1.0 / 9007199254740992.0);
}

/** One Box-Muller pair {r cos(theta), r sin(theta)} from @p uniform. */
template <class Uniform>
inline void
boxMuller(Uniform &&uniform, double &cos_draw, double &sin_draw)
{
    double u1 = 0.0;
    do {
        u1 = uniform();
    } while (u1 <= 1e-300);
    double u2 = uniform();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * 3.14159265358979323846 * u2;
    sin_draw = r * std::sin(theta);
    cos_draw = r * std::cos(theta);
}

} // namespace

void
Rng::reseed(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
    haveSpare_ = false;
}

uint64_t
Rng::next()
{
    return xoshiro(s_);
}

double
Rng::uniform()
{
    return unitDouble(next());
}

double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

uint64_t
Rng::uniformInt(uint64_t n)
{
    // Rejection-free modulo is fine for simulation noise streams.
    return next() % n;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double draw = 0.0;
    boxMuller([this] { return uniform(); }, draw, spare_);
    haveSpare_ = true;
    return draw;
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

void
Rng::gaussianFill(double mean, double stddev, double *out, size_t n)
{
    uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
    bool have_spare = haveSpare_;
    double spare = spare_;
    auto uniform = [&s] { return unitDouble(xoshiro(s)); };
    for (size_t i = 0; i < n; ++i) {
        if (have_spare) {
            have_spare = false;
            out[i] = mean + stddev * spare;
            continue;
        }
        double draw = 0.0;
        boxMuller(uniform, draw, spare);
        have_spare = true;
        out[i] = mean + stddev * draw;
    }
    for (int k = 0; k < 4; ++k)
        s_[k] = s[k];
    haveSpare_ = have_spare;
    spare_ = spare;
}

bool
Rng::bernoulli(double p)
{
    return uniform() < p;
}

Rng
Rng::split()
{
    return Rng(next() ^ 0xa02e1c5d87f3b911ULL);
}

void
Rng::saveState(StateWriter &w) const
{
    for (uint64_t s : s_)
        w.u64(s);
    w.boolean(haveSpare_);
    w.f64(spare_);
}

void
Rng::restoreState(StateReader &r)
{
    for (uint64_t &s : s_)
        s = r.u64();
    haveSpare_ = r.boolean();
    spare_ = r.f64();
}

} // namespace rose
