#pragma once
// Measurement helpers shared by the workloads: the span log, the SAM
// digest sink, the timestamped input feed, median and the percentile
// picker, the recall scorer.

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "fixtures.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

inline Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

/// In-memory spans of a traced run: each phase and layer call the
/// benchmark times, with the span that caused it. Recorded from one
/// thread; written out as JSON when the run ends.
class SpanLog {
public:
    SpanLog() : origin_(Clock::now()) {}

    /// Opens a span under the innermost open one; returns its id.
    std::size_t open(std::string name);
    void close(std::size_t id);
    /// [{"name", "parent" (-1 = root), "start_s", "end_s"}, ...]
    std::string json() const;

private:
    struct Span {
        std::string name;
        std::int64_t parent = -1;
        double start_s = 0.0;
        double end_s = 0.0;
    };
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/// Records one span for its scope; inert when `log` is null.
class SpanScope {
public:
    SpanScope(SpanLog* log, std::string name)
        : log_(log), id_(log ? log->open(std::move(name)) : 0) {}
    ~SpanScope() {
        if (log_ != nullptr) log_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog* log_;
    std::size_t id_;
};

/// Order-sensitive 64-bit digest of a byte stream. Words are taken at
/// absolute stream offsets, so the value does not depend on how the
/// stream was split into writes (socket frames vs direct writes).
class Digest {
public:
    void update(const char* data, std::size_t bytes);
    /// Digest of everything so far (the stream may continue).
    std::uint64_t value() const;

private:
    std::uint64_t state_ = 0x243F6A8885A308D3ull;
    std::uint64_t carry_ = 0;
    std::size_t carry_bytes_ = 0;
    std::size_t total_ = 0;
};

std::string hex64(std::uint64_t value);

/// Output stream buffer standing in for the SAM file: digests every
/// byte, optionally keeps the text (for recall scoring), remembers when
/// the first byte arrived, and — when given a table — stamps the time
/// each read's last SAM line was written, keyed by the ordinal in its
/// name ("r<i>" / "p<i>").
class SamSink : public std::streambuf {
public:
    explicit SamSink(bool keep_text = false,
                     std::vector<Clock::time_point>* line_done = nullptr)
        : keep_(keep_text), line_done_(line_done) {}

    const Digest& digest() const noexcept { return digest_; }
    const std::string& text() const noexcept { return text_; }
    std::optional<Clock::time_point> first_byte() const noexcept {
        return first_byte_;
    }

protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override;
    int_type overflow(int_type ch) override;

private:
    void consume(const char* s, std::size_t n);

    bool keep_;
    std::vector<Clock::time_point>* line_done_;
    Digest digest_;
    std::string text_;
    std::optional<Clock::time_point> first_byte_;
    // Line-scanner state, carried across writes.
    bool at_line_start_ = true;
    bool in_name_ = false;
    bool name_valid_ = false;
    std::uint64_t ordinal_ = 0;
};

/// Input stream buffer over an in-memory payload, handed to the program
/// `chunk` bytes at a time, remembering when each chunk was first
/// requested. Zero-copy; supports the one-character putback the gzip
/// sniffer relies on.
class InputFeed : public std::streambuf {
public:
    static constexpr std::size_t kChunk = 16 * 1024;

    explicit InputFeed(std::string_view payload);

    /// Request time of chunk c (valid once the reader reached it).
    Clock::time_point chunk_time(std::size_t c) const {
        return times_[c];
    }

protected:
    int_type underflow() override;

private:
    std::string_view payload_;
    std::size_t next_ = 0;
    std::vector<Clock::time_point> times_;
};

/// For each FASTQ record of a payload (plain or gzip), the index of the
/// InputFeed chunk whose delivery made the record complete — i.e. the
/// earliest moment the program could have parsed it.
std::vector<std::uint32_t> record_ready_chunks(std::string_view payload);

/// Median (mean of the middle two for an even count; 0 when empty).
double median(std::vector<double> values);

/// Throughput of a load in windows of `per_window` consecutive
/// completions: window k's units over the time from the previous
/// window's last completion (0 for the first) to its own last one.
/// `done_s` holds the ascending completion times, seconds from the load
/// start. A remainder shorter than a window joins the last window.
std::vector<double> window_rates(std::span<const double> done_s,
                                 std::size_t per_window,
                                 double units_per_completion);

/// Median of each window of `per_window` consecutive samples, with the
/// same remainder rule as window_rates.
std::vector<double> window_medians(std::span<const double> samples,
                                   std::size_t per_window);

/// Nearest-rank percentile (0 < p <= 100) of ascending `sorted`.
double percentile(std::span<const double> sorted, double p);

/// Samples ranked strictly above the nearest-rank p-th percentile of n.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of `candidates` that has at least
/// `min_beyond` samples beyond it among n; nullopt when none does.
std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> candidates,
    std::size_t min_beyond = 10);

/// Recall of a SAM text against the simulated truth: the fraction of
/// reads (mates, for paired SAM) with a reported mapping on the origin's
/// strand whose 1-based POS lies within `delta` of the origin's start.
/// Secondary records count; unmapped records do not.
struct Recall {
    std::size_t reads = 0;
    std::size_t found = 0;
    double value() const {
        return reads == 0 ? 0.0
                          : static_cast<double>(found) /
                                static_cast<double>(reads);
    }
};
Recall score_recall(std::string_view sam, std::span<const Origin> truth,
                    std::uint32_t delta, bool paired);

/// Peak resident set of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();

} // namespace perfbench
