#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace cllm {

std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
splitSeed(std::uint64_t root, std::uint64_t stream)
{
    // Two SplitMix64 steps over a state mixing root and stream:
    // one step alone leaves the (root, stream) lattice too regular.
    std::uint64_t state =
        root ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    splitmix64(state);
    return splitmix64(state);
}

namespace {

inline std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &s : s_)
        s = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;

    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);

    return result;
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    if (lo > hi)
        cllm_panic("uniformInt: lo > hi");
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 64-bit range
        return next();
    return lo + next() % span;
}

double
Rng::gaussian()
{
    if (haveSpare_) {
        haveSpare_ = false;
        return spare_;
    }
    double u1 = 0.0;
    while (u1 == 0.0)
        u1 = uniform();
    const double u2 = uniform();
    const double mag = std::sqrt(-2.0 * std::log(u1));
    spare_ = mag * std::sin(2.0 * M_PI * u2);
    haveSpare_ = true;
    return mag * std::cos(2.0 * M_PI * u2);
}

double
Rng::gaussian(double mean, double stddev)
{
    return mean + stddev * gaussian();
}

double
Rng::lognormal(double median, double sigma)
{
    if (median <= 0.0)
        cllm_panic("lognormal: median must be positive");
    return median * std::exp(sigma * gaussian());
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

std::uint64_t
Rng::zipf(std::uint64_t n, double s)
{
    if (n == 0)
        cllm_panic("zipf: empty support");
    if (n == 1)
        return 0;
    // Rejection-inversion sampling (Hormann & Derflinger 1996), as in
    // Apache Commons' RejectionInversionZipfSampler.
    const double e = 1.0 - s;
    auto h = [&](double x) {
        return e == 0.0 ? std::log(x) : (std::pow(x, e) - 1.0) / e;
    };
    auto hinv = [&](double x) {
        return e == 0.0 ? std::exp(x) : std::pow(1.0 + e * x, 1.0 / e);
    };
    const double h_half = h(1.5) - 1.0;
    const double hn = h(static_cast<double>(n) + 0.5);
    while (true) {
        const double u = h_half + uniform() * (hn - h_half);
        const double x = hinv(u);
        std::uint64_t k =
            static_cast<std::uint64_t>(std::max(1.0, std::round(x)));
        if (k > n)
            k = n;
        if (u >= h(static_cast<double>(k) + 0.5) -
                     std::pow(static_cast<double>(k), -s)) {
            return k - 1;
        }
    }
}

} // namespace cllm
