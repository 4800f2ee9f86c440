// .rix container round-trip and rejection properties.
//
// The headline property: build -> write_rix -> mmap-load must be
// invisible to mapping. A session over the mapped view produces SAM
// byte-identical to the session that built the index in-process, across
// q-gram table sizes and multi-sequence references. The rejection half
// pins the failure modes DESIGN.md promises distinct errors for:
// truncation, bit flips (header and section payloads), legacy stream
// images, foreign versions and plain garbage.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"
#include "index/rixm.hpp"
#include "pipeline/mapping_api.hpp"

namespace repute {
namespace {

std::vector<genomics::FastaRecord> three_sequences(std::size_t length,
                                                   std::uint64_t seed) {
    genomics::GenomeSimConfig gconfig;
    gconfig.length = length;
    gconfig.seed = seed;
    const genomics::Reference genome = genomics::simulate_genome(gconfig);
    const std::string text = genome.sequence().to_string();
    const std::size_t third = text.size() / 3;
    return {{"chrA", text.substr(0, third)},
            {"chrB", text.substr(third, third)},
            {"chrC", text.substr(2 * third)}};
}

std::string fastq_text(const genomics::SimulatedReads& sim) {
    std::ostringstream out;
    genomics::write_fastq(out, genomics::to_fastq_records(sim));
    return out.str();
}

std::string map_all(pipeline::MappingSession& session,
                    const std::string& fastq, std::uint32_t delta) {
    std::istringstream in(fastq);
    pipeline::MapRequest request;
    request.reads = &in;
    request.delta = delta;
    std::ostringstream sam;
    session.map(request, sam);
    return sam.str();
}

std::string temp_rix_path(const std::string& tag) {
    return testing::TempDir() + "repute_test_" + tag + "_" +
           std::to_string(::getpid()) + ".rix";
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void spill(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Writes a valid container for a small 3-sequence reference and
/// returns its path (overwritten on each call with the same tag).
std::string write_valid_rix(const std::string& tag,
                            std::uint32_t qgram_length = 4) {
    const genomics::MultiReference multi(three_sequences(9'000, 11));
    const index::FmIndex fm(multi.concatenated(), /*sa_sample=*/4,
                            /*checkpoint_every=*/128, qgram_length);
    const std::string path = temp_rix_path(tag);
    index::write_rix(path, multi, fm);
    return path;
}

void expect_open_throws_with(const std::string& path,
                             const std::string& needle) {
    try {
        index::MappedIndex::open(path);
        FAIL() << "open(" << path << ") did not throw; expected \""
               << needle << "\"";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

// ---------------------------------------------------------------------
// Round trips

TEST(RixRoundTrip, SamByteIdenticalAcrossQgramLengths) {
    for (const std::uint32_t q : {0u, 4u, 8u}) {
        pipeline::SessionConfig config;
        config.qgram_length = q;
        auto built = pipeline::MappingSession::from_multi(
            genomics::MultiReference(three_sequences(12'000, 7)), config);
        ASSERT_FALSE(built->is_mapped());

        const std::string path =
            temp_rix_path("q" + std::to_string(q));
        index::write_rix(path, built->multi(), built->fm());
        auto served = pipeline::MappingSession::from_rix(path, config);
        ASSERT_TRUE(served->is_mapped());

        genomics::ReadSimConfig rconfig;
        rconfig.n_reads = 300;
        rconfig.read_length = 60;
        rconfig.max_errors = 3;
        rconfig.seed = 100 + q;
        const auto reads = genomics::simulate_reads(
            built->multi().concatenated(), rconfig);
        const std::string fastq = fastq_text(reads);

        EXPECT_EQ(map_all(*built, fastq, 3), map_all(*served, fastq, 3))
            << "SAM diverged at q=" << q;
        std::remove(path.c_str());
    }
}

TEST(RixRoundTrip, MultiReferenceTablesSurvive) {
    auto built = pipeline::MappingSession::from_multi(
        genomics::MultiReference(three_sequences(9'000, 3)));
    const std::string path = temp_rix_path("tables");
    index::write_rix(path, built->multi(), built->fm());

    const index::MappedIndex mapped = index::MappedIndex::open(path);
    const auto& original = built->multi();
    const auto& loaded = mapped.multi();
    ASSERT_EQ(loaded.sequence_count(), original.sequence_count());
    for (std::size_t i = 0; i < original.sequence_count(); ++i) {
        EXPECT_EQ(loaded.sequence_name(i), original.sequence_name(i));
        EXPECT_EQ(loaded.sequence_length(i), original.sequence_length(i));
    }
    EXPECT_EQ(loaded.starts(), original.starts());
    EXPECT_EQ(loaded.concatenated().name(),
              original.concatenated().name());
    EXPECT_EQ(loaded.concatenated().size(),
              original.concatenated().size());

    // Footprint split: the mapping carries the big arrays, the heap
    // only rank directories and name tables.
    EXPECT_TRUE(mapped.fm().is_view());
    EXPECT_GT(mapped.mapped_bytes(), 0u);
    EXPECT_GT(mapped.resident_bytes(), 0u);
    EXPECT_LT(mapped.resident_bytes(), mapped.mapped_bytes());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Rejection

TEST(RixRejects, TruncatedFile) {
    const std::string path = write_valid_rix("trunc");
    const std::string bytes = slurp(path);
    ASSERT_GT(bytes.size(), 2 * index::rix::kPageBytes);
    spill(path, bytes.substr(0, bytes.size() - index::rix::kPageBytes));
    expect_open_throws_with(path, "truncated");

    spill(path, bytes.substr(0, 16)); // smaller than the header
    expect_open_throws_with(path, "too small");
    std::remove(path.c_str());
}

TEST(RixRejects, BitFlipInSectionPayload) {
    const std::string path = write_valid_rix("flip_section");
    std::string bytes = slurp(path);
    // Page 0 is the header; the first section (rank blocks, never
    // empty) starts at page 1.
    const std::size_t target = index::rix::kPageBytes + 8;
    ASSERT_LT(target, bytes.size());
    bytes[target] = static_cast<char>(bytes[target] ^ 0x10);
    spill(path, bytes);
    expect_open_throws_with(path, "checksum mismatch in section");
    std::remove(path.c_str());
}

TEST(RixRejects, BitFlipInHeader) {
    const std::string path = write_valid_rix("flip_header");
    std::string bytes = slurp(path);
    // Offset 24 is inside the text-length field — past the up-front
    // magic/version/endian/page checks, so the checksum must catch it.
    bytes[24] = static_cast<char>(bytes[24] ^ 0x01);
    spill(path, bytes);
    expect_open_throws_with(path, "header checksum mismatch");
    std::remove(path.c_str());
}

TEST(RixRejects, LegacyStreamImageAndGarbage) {
    const std::string path = temp_rix_path("legacy");
    for (const std::uint32_t magic : {0x464D4932u, 0x464D4958u}) {
        std::string bytes(sizeof(index::rix::Header), '\0');
        std::memcpy(bytes.data(), &magic, sizeof(magic));
        spill(path, bytes);
        expect_open_throws_with(path, "legacy FMI stream image");
        expect_open_throws_with(path, "repute index build");
    }
    std::string garbage(sizeof(index::rix::Header), 'x');
    spill(path, garbage);
    expect_open_throws_with(path, "bad magic");
    std::remove(path.c_str());
}

TEST(RixRejects, ForeignVersion) {
    const std::string path = write_valid_rix("version");
    std::string bytes = slurp(path);
    const std::uint32_t future = 99;
    std::memcpy(bytes.data() + 4, &future, sizeof(future));
    spill(path, bytes);
    expect_open_throws_with(path, "unsupported version");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// .rixm shard manifests: every failure mode promised distinct in
// rixm.hpp, plus cross-misuse of the two formats.

struct ShardedFixture {
    std::string manifest;
    std::vector<std::string> shard_paths;
};

/// Builds a small 2-shard set under TempDir and returns its paths.
ShardedFixture write_valid_sharded(const std::string& tag) {
    const genomics::MultiReference multi(three_sequences(9'000, 13));
    index::ShardBuildConfig config;
    config.plan.shard_count = 2;
    config.plan.overlap = 64;
    const auto built = index::build_sharded_index(
        multi,
        testing::TempDir() + "repute_test_" + tag + "_" +
            std::to_string(::getpid()) + ".rixm",
        config);
    return {built.manifest_path, built.shard_paths};
}

void remove_sharded(const ShardedFixture& fx) {
    for (const auto& p : fx.shard_paths) std::remove(p.c_str());
    std::remove(fx.manifest.c_str());
}

void expect_sharded_open_throws_with(const std::string& path,
                                     const std::string& needle) {
    try {
        index::ShardedIndex::open(path);
        FAIL() << "open(" << path << ") did not throw; expected \""
               << needle << "\"";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << "actual message: " << e.what();
    }
}

TEST(RixmManifest, SniffsFormatsApart) {
    const ShardedFixture fx = write_valid_sharded("sniff");
    const std::string rix = write_valid_rix("sniff_mono");
    EXPECT_TRUE(index::is_rixm_manifest(fx.manifest));
    EXPECT_FALSE(index::is_rixm_manifest(rix));
    EXPECT_FALSE(index::is_rixm_manifest(rix + ".does-not-exist"));
    std::remove(rix.c_str());
    remove_sharded(fx);
}

TEST(RixmManifest, OpensAndReassemblesTheReference) {
    const genomics::MultiReference multi(three_sequences(9'000, 13));
    const ShardedFixture fx = write_valid_sharded("open");
    const auto sharded = index::ShardedIndex::open(fx.manifest);
    ASSERT_EQ(sharded.shards().size(), 2u);
    ASSERT_EQ(sharded.multi().sequence_count(), multi.sequence_count());
    for (std::size_t i = 0; i < multi.sequence_count(); ++i) {
        EXPECT_EQ(sharded.multi().sequence_name(i),
                  multi.sequence_name(i));
        EXPECT_EQ(sharded.multi().sequence_length(i),
                  multi.sequence_length(i));
    }
    // The reassembled text must be the original, byte for byte.
    EXPECT_EQ(sharded.multi().concatenated().sequence().to_string(),
              multi.concatenated().sequence().to_string());
    EXPECT_GT(sharded.mapped_bytes(), 0u);
    EXPECT_GT(sharded.resident_bytes(), 0u);
    remove_sharded(fx);
}

TEST(RixmRejects, MissingShardFile) {
    const ShardedFixture fx = write_valid_sharded("missing");
    std::remove(fx.shard_paths[1].c_str());
    expect_sharded_open_throws_with(fx.manifest, "missing shard file");
    expect_sharded_open_throws_with(fx.manifest, "shard 1");
    remove_sharded(fx);
}

TEST(RixmRejects, ShardRebuiltBehindTheManifest) {
    // Overwrite shard 0 with a valid .rix built from something else:
    // structurally fine, but the header-checksum pin must catch it.
    const ShardedFixture fx = write_valid_sharded("rebuilt");
    const std::string foreign = write_valid_rix("rebuilt_foreign");
    spill(fx.shard_paths[0], slurp(foreign));
    std::remove(foreign.c_str());
    expect_sharded_open_throws_with(fx.manifest,
                                    "header checksum mismatch");
    expect_sharded_open_throws_with(fx.manifest, "shard 0");
    remove_sharded(fx);
}

TEST(RixmRejects, ShardVersionSkew) {
    // A future-version shard under a current manifest: mixed-version
    // sets fail with the shard named and the .rix version message kept.
    const ShardedFixture fx = write_valid_sharded("skew");
    std::string bytes = slurp(fx.shard_paths[1]);
    const std::uint32_t future = 7;
    std::memcpy(bytes.data() + 4, &future, sizeof(future));
    spill(fx.shard_paths[1], bytes);
    expect_sharded_open_throws_with(fx.manifest, "unsupported version");
    expect_sharded_open_throws_with(fx.manifest, "shard 1");
    remove_sharded(fx);
}

TEST(RixmRejects, GarbageShardFile) {
    const ShardedFixture fx = write_valid_sharded("garbage");
    spill(fx.shard_paths[0],
          std::string(sizeof(index::rix::Header), 'x'));
    expect_sharded_open_throws_with(fx.manifest, "bad magic");
    remove_sharded(fx);
}

TEST(RixmRejects, ForeignManifestVersion) {
    const ShardedFixture fx = write_valid_sharded("mversion");
    std::string text = slurp(fx.manifest);
    text.replace(text.find("RIXM\t1"), 6, "RIXM\t9");
    spill(fx.manifest, text);
    expect_sharded_open_throws_with(fx.manifest,
                                    "unsupported manifest version 9");
    remove_sharded(fx);
}

TEST(RixmRejects, TruncatedManifest) {
    const ShardedFixture fx = write_valid_sharded("mtrunc");
    const std::string text = slurp(fx.manifest);
    // Drop the last shard line: the owned ranges no longer cover the
    // text (or the count disagrees) — malformed either way.
    spill(fx.manifest,
          text.substr(0, text.rfind("shard\t")));
    expect_sharded_open_throws_with(fx.manifest, "malformed manifest");
    remove_sharded(fx);
}

TEST(RixmRejects, CrossFormatMisuse) {
    // A monolithic .rix into the manifest opener and a manifest into
    // the container opener must both fail up front, distinctly.
    const ShardedFixture fx = write_valid_sharded("cross");
    const std::string rix = write_valid_rix("cross_mono");
    expect_sharded_open_throws_with(rix, "missing RIXM magic");
    // The tiny text manifest reads as either bad magic or a too-short
    // container, depending on its length vs the binary header.
    try {
        index::MappedIndex::open(fx.manifest);
        FAIL() << "MappedIndex::open accepted a .rixm manifest";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.find("bad magic") != std::string::npos ||
                    what.find("too small") != std::string::npos)
            << "actual message: " << what;
    }
    std::remove(rix.c_str());
    remove_sharded(fx);
}

} // namespace
} // namespace repute
