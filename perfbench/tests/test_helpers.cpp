// Tests of the benchmark's own helpers: percentile picker, window
// statistics, recall scorer, digest sink, input feed and fixture determinism.
//
//   python3 perfbench/run.py --self-test

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>

#include "fixtures.hpp"
#include "helpers.hpp"
#include "util/gzip_stream.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
    std::vector<double> sorted(100);
    std::iota(sorted.begin(), sorted.end(), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 50), 50.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 99), 99.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 100), 100.0);
    EXPECT_EQ(samples_beyond(100, 90), 10u);
    EXPECT_EQ(samples_beyond(100, 99), 1u);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
    const std::vector<double> candidates = {50, 90, 95, 99, 99.9};
    EXPECT_EQ(highest_supported_percentile(1000, candidates), 99.0);
    // One sample short of p99: the picker falls back to p95.
    EXPECT_EQ(highest_supported_percentile(999, candidates), 95.0);
    EXPECT_EQ(highest_supported_percentile(10000, candidates), 99.9);
    EXPECT_EQ(highest_supported_percentile(20, candidates), 50.0);
    EXPECT_FALSE(highest_supported_percentile(19, candidates).has_value());
}

TEST(Windows, RatesOverConsecutiveCompletions) {
    // Completions at 1..7 s: windows of 3 are [1,2,3] and [4..7] (the
    // remainder joins the last), timed from the previous window's end.
    const std::vector<double> done = {1, 2, 3, 4, 5, 6, 7};
    const auto rates = window_rates(done, 3, 10.0);
    ASSERT_EQ(rates.size(), 2u);
    EXPECT_DOUBLE_EQ(rates[0], 30.0 / 3.0);
    EXPECT_DOUBLE_EQ(rates[1], 40.0 / 4.0);
    // Fewer completions than a window: one window over all of them.
    const auto short_log = window_rates(std::vector<double>{0.5, 2.0}, 50, 1.0);
    ASSERT_EQ(short_log.size(), 1u);
    EXPECT_DOUBLE_EQ(short_log[0], 1.0);
    EXPECT_TRUE(window_rates({}, 3, 1.0).empty());
}

TEST(Windows, MedianOfEachWindow) {
    const std::vector<double> samples = {5, 1, 3, 10, 30, 20, 40};
    const auto medians = window_medians(samples, 3);
    ASSERT_EQ(medians.size(), 2u);
    EXPECT_DOUBLE_EQ(medians[0], 3.0);
    EXPECT_DOUBLE_EQ(medians[1], 25.0);
}

std::string sam_line(const std::string& name, unsigned flag,
                     unsigned pos) {
    return name + "\t" + std::to_string(flag) + "\tchr21-sim\t" +
           std::to_string(pos) + "\t60\t100M\t*\t0\t0\tACGT\tIIII\n";
}

TEST(Recall, StrandAndToleranceWindow) {
    const std::vector<Origin> truth = {
        {1000, false}, // exact forward hit
        {2000, true},  // reverse strand, start shifted by an indel
        {3000, false}, // reported on the wrong strand
        {4000, false}, // reported beyond delta
        {5000, true},  // unmapped
        {6000, false}, // found only through a secondary record
    };
    std::string sam = "@HD\tVN:1.6\n@SQ\tSN:chr21-sim\tLN:10000\n";
    sam += sam_line("r0", 0, 1001);
    sam += sam_line("r1", 16, 2001 + 3);
    sam += sam_line("r2", 16, 3001);
    sam += sam_line("r3", 0, 4001 + 5);
    sam += sam_line("r4", 4, 0);
    sam += sam_line("r5", 0, 9001);
    sam += sam_line("r5", 256, 6001 - 4);
    const Recall recall = score_recall(sam, truth, 4, false);
    EXPECT_EQ(recall.reads, 6u);
    EXPECT_EQ(recall.found, 3u);
    EXPECT_DOUBLE_EQ(recall.value(), 0.5);
}

TEST(Recall, PairedMatesScoreSeparately) {
    // Pair 0: mate 1 forward at 100, mate 2 reverse at 400.
    const std::vector<Origin> truth = {{100, false}, {400, true}};
    std::string sam = sam_line("p0", 0x1 | 0x40, 101);
    sam += sam_line("p0", 0x1 | 0x80 | 0x10, 401 - 2);
    EXPECT_EQ(score_recall(sam, truth, 5, true).found, 2u);
    // The same record flagged as mate 1 does not count for mate 2.
    sam = sam_line("p0", 0x1 | 0x40 | 0x10, 401);
    EXPECT_EQ(score_recall(sam, truth, 5, true).found, 0u);
}

TEST(Digest, IndependentOfWriteSplits) {
    std::string text;
    for (int i = 0; i < 1000; ++i) text += "line " + std::to_string(i) + "\n";
    Digest whole;
    whole.update(text.data(), text.size());
    Digest split;
    for (std::size_t pos = 0, step = 1; pos < text.size(); step = step % 13 + 1) {
        const std::size_t n = std::min(step, text.size() - pos);
        split.update(text.data() + pos, n);
        pos += n;
    }
    EXPECT_EQ(whole.value(), split.value());
    text[500] ^= 1;
    Digest changed;
    changed.update(text.data(), text.size());
    EXPECT_NE(whole.value(), changed.value());
    Digest longer;
    longer.update(text.data(), text.size() - 1);
    EXPECT_NE(longer.value(), changed.value());
}

TEST(SamSink, StampsEachReadsLastLine) {
    std::vector<Clock::time_point> done(3);
    SamSink sink(true, &done);
    std::ostream out(&sink);
    out << "@HD\tVN:1.6\n" << sam_line("r0", 0, 1);
    const std::string second = sam_line("r2", 0, 7);
    out << second.substr(0, 2) << std::flush;
    EXPECT_EQ(done[2], Clock::time_point{}); // line not finished yet
    out << second.substr(2) << std::flush;
    EXPECT_NE(done[0], Clock::time_point{});
    EXPECT_EQ(done[1], Clock::time_point{});
    EXPECT_NE(done[2], Clock::time_point{});
    EXPECT_TRUE(sink.first_byte().has_value());
    EXPECT_EQ(sink.text().substr(0, 3), "@HD");
}

std::string fastq_payload(std::size_t records) {
    std::string payload;
    for (std::size_t i = 0; i < records; ++i) {
        const std::string seq(100 + i % 7, "ACGT"[i % 4]);
        payload += "@r" + std::to_string(i) + "\n" + seq + "\n+\n" +
                   std::string(seq.size(), 'I') + "\n";
    }
    return payload;
}

TEST(InputFeed, DeliversPayloadAndSupportsPutback) {
    const std::string payload = repute::util::gzip_compress(fastq_payload(2000));
    InputFeed feed(payload);
    std::istream in(&feed);
    EXPECT_TRUE(repute::util::sniff_gzip_magic(in));
    std::ostringstream copy;
    copy << in.rdbuf();
    EXPECT_EQ(copy.str(), payload);
}

TEST(ReadyChunks, PlainAndGzipAgree) {
    const std::string plain = fastq_payload(2000);
    const auto plain_chunks = record_ready_chunks(plain);
    ASSERT_EQ(plain_chunks.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(plain_chunks.begin(), plain_chunks.end()));
    EXPECT_EQ(plain_chunks.back(), (plain.size() - 1) / InputFeed::kChunk);

    const std::string gz = repute::util::gzip_compress(plain);
    const auto gz_chunks = record_ready_chunks(gz);
    ASSERT_EQ(gz_chunks.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(gz_chunks.begin(), gz_chunks.end()));
    EXPECT_EQ(gz_chunks.back(), (gz.size() - 1) / InputFeed::kChunk);
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
}

TEST(Fixtures, SameArgumentsSameBytes) {
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) /
                          ("perfbench_fixtures_" + std::to_string(::getpid()));
    const fs::path ref_a = root / "ref_a", ref_b = root / "ref_b";
    const fs::path a = root / "a", b = root / "b", c = root / "c";
    for (const auto& dir : {ref_a, ref_b, a, b, c}) fs::create_directories(dir);
    generate_reference("small", ref_a.string());
    generate_reference("small", ref_b.string());
    for (const char* name : {kGenomeFasta, kIndexRix}) {
        const std::string bytes = read_file(ref_a / name);
        EXPECT_FALSE(bytes.empty()) << name;
        EXPECT_EQ(bytes, read_file(ref_b / name)) << name;
    }
    generate_reads("small", 5, ref_a.string(), a.string());
    generate_reads("small", 5, ref_a.string(), b.string());
    generate_reads("small", 6, ref_a.string(), c.string());
    for (const char* name : {kReadsFastq, kTruth}) {
        const std::string bytes = read_file(a / name);
        EXPECT_FALSE(bytes.empty()) << name;
        EXPECT_EQ(bytes, read_file(b / name)) << name;
        EXPECT_NE(bytes, read_file(c / name)) << name;
    }
    EXPECT_EQ(read_truth((a / kTruth).string()).size(), family("small").reads);
    // The chr21 mate files go through the same compressor: its output
    // must depend on the input alone.
    const std::string text = read_file(a / kReadsFastq);
    EXPECT_EQ(repute::util::gzip_compress(text),
              repute::util::gzip_compress(text));
    fs::remove_all(root);
}

} // namespace
} // namespace perfbench
