/**
 * @file
 * Deterministic pseudo-random number generator for workloads.
 */

#ifndef HMTX_SIM_RNG_HH
#define HMTX_SIM_RNG_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

namespace hmtx::sim
{

/**
 * SplitMix64-based PRNG. Small, fast, and fully deterministic across
 * platforms, so every simulation run is reproducible bit-for-bit.
 */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
        : state_(seed)
    {}

    /** Next 64 uniformly distributed bits. */
    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    /** Uniform integer in [0, n). @pre n > 0 */
    std::uint64_t range(std::uint64_t n) { return next() % n; }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    std::uint64_t state_;
};

/**
 * Zipfian rank sampler over [0, n): rank k is drawn with probability
 * P(k) = (k+1)^-theta / H(n, theta), the key-popularity law of
 * OLTP/KV serving traces (theta ~0.99 in YCSB; theta = 0 degenerates
 * to uniform). Implemented as an exact inverse-CDF table — O(n)
 * doubles at construction, O(log n) per draw — rather than the
 * YCSB-style rejection trick, because the table is exact for *any*
 * theta >= 0 (including the theta > 1 high-skew cells the serving
 * sweep measures, where the closed-form approximation breaks down)
 * and the generator runs off the simulation hot path. Draws consume
 * exactly one Rng value, so seeded runs are reproducible.
 */
class ZipfSampler
{
  public:
    /**
     * The process-wide immutable sampler for (@p n, @p theta), built
     * on first request and kept for the life of the process: a
     * serving sweep constructs one engine per cell, and rebuilding
     * the n-entry table (n pow calls) each time costs more than many
     * small cells' simulation. Safe to call from several threads;
     * draws are identical to a private sampler's.
     */
    static const ZipfSampler& shared(std::uint64_t n, double theta);

    ZipfSampler(std::uint64_t n, double theta)
        : theta_(theta)
    {
        assert(n > 0 && theta >= 0.0);
        cdf_.reserve(n);
        double cum = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            cum += weight(k);
            cdf_.push_back(cum);
        }
        total_ = cum;
    }

    /** Number of ranks. */
    std::uint64_t n() const { return cdf_.size(); }

    /** Draws a rank in [0, n) with Zipfian popularity. */
    std::uint64_t
    operator()(Rng& rng) const
    {
        const double u = rng.uniform() * total_;
        auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
        const auto k =
            static_cast<std::uint64_t>(it - cdf_.begin());
        return k >= cdf_.size() ? cdf_.size() - 1 : k;
    }

    /** Closed-form P(rank k) — what the unit test pins draws to. */
    double
    probOfRank(std::uint64_t k) const
    {
        return weight(k) / total_;
    }

  private:
    double
    weight(std::uint64_t k) const
    {
        return std::pow(static_cast<double>(k + 1), -theta_);
    }

    double theta_;
    double total_ = 0.0;
    std::vector<double> cdf_;
};

inline const ZipfSampler&
ZipfSampler::shared(std::uint64_t n, double theta)
{
    static std::mutex mu;
    static std::map<std::pair<std::uint64_t, std::uint64_t>, ZipfSampler>
        cache;
    const std::lock_guard<std::mutex> lock(mu);
    const auto key = std::make_pair(n, std::bit_cast<std::uint64_t>(theta));
    return cache.try_emplace(key, n, theta).first->second;
}

/**
 * Bounded-Pareto sampler over [lo, hi] with shape alpha: the
 * heavy-tailed burst-length law (inverse-CDF method, one Rng draw
 * per sample). Used by the serving generator's ON/OFF arrival
 * process, where a heavy-tailed ON period is what makes open-loop
 * tail latency interesting.
 */
class BoundedParetoSampler
{
  public:
    BoundedParetoSampler(double lo, double hi, double alpha)
        : lo_(lo), alpha_(alpha), loA_(std::pow(lo, alpha)),
          ratioA_(1.0 - std::pow(lo / hi, alpha))
    {
        assert(lo > 0.0 && hi > lo && alpha > 0.0);
    }

    double
    operator()(Rng& rng) const
    {
        // Inverse of F(x) = (1 - lo^a x^-a) / (1 - (lo/hi)^a).
        const double u = rng.uniform();
        return std::pow(loA_ / (1.0 - u * ratioA_), 1.0 / alpha_);
    }

    /** Closed-form quantile (e.g. quantile(0.5) = median). */
    double
    quantile(double q) const
    {
        return std::pow(loA_ / (1.0 - q * ratioA_), 1.0 / alpha_);
    }

    double lo() const { return lo_; }

  private:
    double lo_;
    double alpha_;
    double loA_;
    double ratioA_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_RNG_HH
