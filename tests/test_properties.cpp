// Cross-module property sweeps (parameterized): invariants that must
// hold over parameter grids, complementing the per-module example-based
// tests.

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "align/edit_distance.hpp"
#include "align/myers.hpp"
#include "filter/heuristic_seeder.hpp"
#include "filter/memopt_seeder.hpp"
#include "filter/optimal_seeder.hpp"
#include "filter/uniform_seeder.hpp"
#include "genomics/genome_sim.hpp"
#include "index/fm_index.hpp"
#include "util/prng.hpp"

namespace {

using repute::genomics::GenomeSimConfig;
using repute::genomics::Reference;
using repute::genomics::simulate_genome;
using repute::index::FmIndex;
using repute::util::Xoshiro256;

const Reference& shared_reference() {
    static const Reference ref = [] {
        GenomeSimConfig config;
        config.length = 60'000;
        config.seed = 23;
        return simulate_genome(config);
    }();
    return ref;
}

// ------------------------------------------------ FM locate vs sa_sample

class SaSampleSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SaSampleSweep, LocateIsSampleInvariant) {
    const auto& ref = shared_reference();
    const FmIndex sampled(ref, GetParam());
    const FmIndex dense(ref, 1);

    Xoshiro256 rng(GetParam());
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t len = 10 + rng.bounded(12);
        const std::size_t pos = rng.bounded(ref.size() - len);
        const auto pattern = ref.sequence().extract(pos, len);
        const auto ra = sampled.search(pattern);
        const auto rb = dense.search(pattern);
        ASSERT_EQ(ra, rb);
        std::vector<std::uint32_t> ha, hb;
        sampled.locate_range(ra, ra.count(), ha);
        dense.locate_range(rb, rb.count(), hb);
        std::sort(ha.begin(), ha.end());
        std::sort(hb.begin(), hb.end());
        EXPECT_EQ(ha, hb) << "sa_sample=" << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Samples, SaSampleSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u, 32u));

// -------------------------------------- seeders over a parameter grid

using SeederGridParam =
    std::tuple<int /*kind*/, std::size_t /*n*/, std::uint32_t /*delta*/,
               std::uint32_t /*s_min*/>;

class SeederGrid : public ::testing::TestWithParam<SeederGridParam> {};

std::unique_ptr<repute::filter::Seeder> grid_seeder(int kind,
                                                    std::uint32_t s_min) {
    using namespace repute::filter;
    switch (kind) {
        case 0: return std::make_unique<UniformSeeder>(s_min);
        case 1: return std::make_unique<HeuristicSeeder>(s_min);
        case 2: return std::make_unique<OptimalSeeder>(s_min);
        default: return std::make_unique<MemoryOptimizedSeeder>(s_min);
    }
}

TEST_P(SeederGrid, PartitionInvariantsHold) {
    const auto [kind, n, delta, s_min] = GetParam();
    if (static_cast<std::uint64_t>(delta + 1) * s_min > n) {
        GTEST_SKIP() << "infeasible cell";
    }
    const auto& ref = shared_reference();
    const FmIndex fm(ref, 4);
    const auto seeder = grid_seeder(kind, s_min);

    Xoshiro256 rng(n * 100 + delta * 10 + s_min);
    for (int trial = 0; trial < 5; ++trial) {
        const std::size_t pos = rng.bounded(ref.size() - n);
        const auto read = ref.sequence().extract(pos, n);
        const auto plan = seeder->select(fm, read, delta);

        // Exactly delta+1 seeds partitioning [0, n), each >= s_min.
        ASSERT_EQ(plan.seeds.size(), delta + 1);
        std::uint32_t cursor = 0;
        std::uint64_t sum = 0;
        for (const auto& seed : plan.seeds) {
            EXPECT_EQ(seed.start, cursor);
            EXPECT_GE(seed.length, s_min);
            // The seed's range really counts its occurrences.
            const auto direct = fm.search(
                std::span(read).subspan(seed.start, seed.length));
            EXPECT_EQ(seed.range.count(), direct.count());
            sum += seed.range.count();
            cursor += seed.length;
        }
        EXPECT_EQ(cursor, n);
        EXPECT_EQ(plan.total_candidates, sum);
        // An exact read always has at least one exact seed somewhere.
        EXPECT_GE(plan.total_candidates, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeederGrid,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values<std::size_t>(100, 150),
                       ::testing::Values<std::uint32_t>(3, 5, 7),
                       ::testing::Values<std::uint32_t>(10, 14, 18)));

// ----------------------------- Myers == banded == full DP, random grid

class VerifierAgreement
    : public ::testing::TestWithParam<std::uint32_t /*delta*/> {};

TEST_P(VerifierAgreement, AllThreeVerifiersAgreeOnAcceptance) {
    const std::uint32_t delta = GetParam();
    const auto& ref = shared_reference();
    Xoshiro256 rng(delta * 7 + 1);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 100;
        const std::size_t pos = rng.bounded(ref.size() - n - 2 * delta);
        auto read = ref.sequence().extract(pos, n);
        // Corrupt with a random number of substitutions.
        const auto subs = rng.bounded(2 * delta + 1);
        for (std::uint64_t s = 0; s < subs; ++s) {
            const std::size_t at = rng.bounded(n);
            read[at] = static_cast<std::uint8_t>((read[at] + 1) & 3);
        }
        const auto window =
            ref.sequence().extract(pos, n + 2 * delta);

        const auto full =
            repute::align::semiglobal_distance(read, window);
        const repute::align::MyersMatcher matcher(read);
        const auto myers = matcher.best_in(window).distance;
        const auto banded = repute::align::banded_semiglobal_distance(
            read, window, delta);

        EXPECT_EQ(myers, full);
        // The banded verifier agrees on the accept/reject decision.
        EXPECT_EQ(banded <= delta, full <= delta);
        if (full <= delta) {
            EXPECT_EQ(banded, full);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Deltas, VerifierAgreement,
                         ::testing::Values(1u, 3u, 5u, 7u));

} // namespace
