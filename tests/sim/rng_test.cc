/**
 * @file
 * Tests of the workload samplers: the base SplitMix64 Rng and the
 * Zipfian / bounded-Pareto distributions the serving generator draws
 * from. The distribution tests pin *empirical* frequencies of large
 * seeded draws against the closed forms, so any change to the sampler
 * arithmetic (or to Rng itself) that shifts the generated workloads
 * shows up as a test failure rather than silently re-shaping every
 * bench.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "sim/rng.hh"

namespace hmtx::sim
{
namespace
{

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42), c(43);
    bool anyDiff = false;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        anyDiff = anyDiff || va != c.next();
    }
    EXPECT_TRUE(anyDiff);
}

TEST(Zipf, HeadFrequenciesMatchClosedForm)
{
    // theta = 0.99 (the YCSB default): rank 0 of 1000 keys carries
    // ~13% of the mass. 200k draws give ~0.1% standard error on the
    // head ranks; accept 5% relative slack.
    constexpr std::uint64_t kN = 1000;
    constexpr int kDraws = 200000;
    ZipfSampler zipf(kN, 0.99);
    Rng rng(12345);
    std::vector<std::uint64_t> hits(kN, 0);
    for (int i = 0; i < kDraws; ++i) {
        const std::uint64_t k = zipf(rng);
        ASSERT_LT(k, kN);
        ++hits[k];
    }
    for (std::uint64_t k = 0; k < 5; ++k) {
        const double want = zipf.probOfRank(k);
        const double got =
            static_cast<double>(hits[k]) / kDraws;
        EXPECT_NEAR(got, want, want * 0.05) << "rank " << k;
    }
    // The closed form itself: P(k) = (k+1)^-theta / H(n, theta).
    double h = 0.0;
    for (std::uint64_t k = 1; k <= kN; ++k)
        h += std::pow(static_cast<double>(k), -0.99);
    EXPECT_NEAR(zipf.probOfRank(0), 1.0 / h, 1e-12);
    EXPECT_NEAR(zipf.probOfRank(9), std::pow(10.0, -0.99) / h, 1e-12);
}

TEST(Zipf, HighSkewThetaAboveOneStillExact)
{
    // theta > 1 is outside the YCSB approximation's domain but inside
    // the serving sweep's: the inverse-CDF table must stay exact.
    constexpr std::uint64_t kN = 4096;
    constexpr int kDraws = 200000;
    ZipfSampler zipf(kN, 1.2);
    Rng rng(99);
    std::uint64_t head = 0;
    for (int i = 0; i < kDraws; ++i)
        head += zipf(rng) == 0;
    const double want = zipf.probOfRank(0);
    EXPECT_GT(want, 0.2); // theta=1.2 concentrates hard on the head
    EXPECT_NEAR(static_cast<double>(head) / kDraws, want,
                want * 0.05);
}

TEST(Zipf, ThetaZeroIsUniform)
{
    constexpr std::uint64_t kN = 64;
    constexpr int kDraws = 128000;
    ZipfSampler zipf(kN, 0.0);
    Rng rng(7);
    std::vector<std::uint64_t> hits(kN, 0);
    for (int i = 0; i < kDraws; ++i)
        ++hits[zipf(rng)];
    for (std::uint64_t k = 0; k < kN; ++k) {
        EXPECT_NEAR(static_cast<double>(hits[k]) / kDraws,
                    1.0 / kN, 0.2 / kN)
            << "rank " << k;
    }
}

TEST(Zipf, SeededDrawsReproduce)
{
    ZipfSampler zipf(512, 0.9);
    Rng a(31337), b(31337);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(zipf(a), zipf(b));
}

TEST(Zipf, SharedSamplerIsOnePerProcessAndDrawsLikeAPrivateOne)
{
    // Two threads asking for the same (n, theta) get the same table;
    // another theta gets its own. Draws match a private sampler's.
    const ZipfSampler* seen[2] = {};
    std::thread a([&] { seen[0] = &ZipfSampler::shared(512, 0.9); });
    std::thread b([&] { seen[1] = &ZipfSampler::shared(512, 0.9); });
    a.join();
    b.join();
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(seen[0], &ZipfSampler::shared(512, 0.9));
    EXPECT_NE(seen[0], &ZipfSampler::shared(512, 1.2));
    ZipfSampler priv(512, 0.9);
    Rng x(99), y(99);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ((*seen[0])(x), priv(y));
}

TEST(BoundedPareto, SamplesStayInBounds)
{
    BoundedParetoSampler p(10.0, 10000.0, 1.5);
    Rng rng(5);
    for (int i = 0; i < 100000; ++i) {
        const double x = p(rng);
        ASSERT_GE(x, 10.0);
        ASSERT_LE(x, 10000.0);
    }
}

TEST(BoundedPareto, MedianMatchesClosedForm)
{
    BoundedParetoSampler p(10.0, 10000.0, 1.5);
    Rng rng(6);
    constexpr int kDraws = 200000;
    const double median = p.quantile(0.5);
    int below = 0;
    for (int i = 0; i < kDraws; ++i)
        below += p(rng) < median;
    // Half the mass sits below the closed-form median.
    EXPECT_NEAR(static_cast<double>(below) / kDraws, 0.5, 0.01);
    // And the closed form itself: F(quantile(q)) == q by inversion,
    // spot-check the endpoints' neighborhood.
    EXPECT_NEAR(p.quantile(0.0), 10.0, 1e-9);
    EXPECT_LT(p.quantile(0.999), 10000.0 + 1e-6);
    EXPECT_GT(median, 10.0);
    EXPECT_LT(median, 100.0); // alpha 1.5 keeps the median near lo
}

} // namespace
} // namespace hmtx::sim
