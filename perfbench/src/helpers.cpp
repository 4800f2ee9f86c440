#include "helpers.hpp"

#include <sys/resource.h>
#include <zlib.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

namespace {

constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;

std::uint64_t mix(std::uint64_t state, std::uint64_t word) {
    return std::rotl((state ^ word) * kMul, 27);
}

bool is_gzip(std::string_view payload) {
    return payload.size() >= 2 &&
           static_cast<unsigned char>(payload[0]) == 0x1f &&
           static_cast<unsigned char>(payload[1]) == 0x8b;
}

/// Byte offsets just past each FASTQ record (every fourth newline).
void record_ends(std::string_view text, std::size_t base,
                 std::size_t& newlines, std::vector<std::size_t>& ends) {
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n' && ++newlines % 4 == 0) {
            ends.push_back(base + i + 1);
        }
    }
}

/// 1-based nearest rank of the p-th percentile among n samples. The
/// epsilon keeps p/100*n from rounding up past an exact integer (99.9%
/// of 10000 is 9990, not 9991).
std::size_t nearest_rank(std::size_t n, double p) {
    const double exact = p / 100.0 * static_cast<double>(n);
    return static_cast<std::size_t>(std::ceil(exact - 1e-9));
}

} // namespace

std::size_t SpanLog::open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    span.start_s = seconds_between(origin_, Clock::now());
    spans_.push_back(std::move(span));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void SpanLog::close(std::size_t id) {
    spans_[id].end_s = seconds_between(origin_, Clock::now());
    open_.erase(std::find(open_.begin(), open_.end(), id));
}

std::string SpanLog::json() const {
    std::string out = "[";
    char line[160];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        std::snprintf(line, sizeof(line),
                      "%s\n {\"name\": \"%s\", \"parent\": %lld, "
                      "\"start_s\": %.6f, \"end_s\": %.6f}",
                      i == 0 ? "" : ",", s.name.c_str(),
                      static_cast<long long>(s.parent), s.start_s, s.end_s);
        out += line;
    }
    return out + "\n]\n";
}

void Digest::update(const char* data, std::size_t bytes) {
    total_ += bytes;
    std::size_t i = 0;
    while (carry_bytes_ != 0 && i < bytes) {
        carry_ |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(data[i++]))
                  << (8 * carry_bytes_);
        if (++carry_bytes_ == 8) {
            state_ = mix(state_, carry_);
            carry_ = 0;
            carry_bytes_ = 0;
        }
    }
    for (; i + 8 <= bytes; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, data + i, 8);
        state_ = mix(state_, word);
    }
    for (; i < bytes; ++i) {
        carry_ |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(data[i]))
                  << (8 * carry_bytes_);
        ++carry_bytes_;
    }
}

std::uint64_t Digest::value() const {
    std::uint64_t state = mix(state_, carry_);
    state = mix(state, total_);
    state ^= state >> 31;
    return state * kMul;
}

std::string hex64(std::uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(value));
    return buffer;
}

std::streamsize SamSink::xsputn(const char* s, std::streamsize n) {
    if (n > 0) consume(s, static_cast<std::size_t>(n));
    return n;
}

SamSink::int_type SamSink::overflow(int_type ch) {
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
        const char c = traits_type::to_char_type(ch);
        consume(&c, 1);
    }
    return traits_type::not_eof(ch);
}

void SamSink::consume(const char* s, std::size_t n) {
    if (!first_byte_) first_byte_ = Clock::now();
    digest_.update(s, n);
    if (keep_) text_.append(s, n);
    if (line_done_ == nullptr) return;
    std::optional<Clock::time_point> now;
    for (std::size_t i = 0; i < n; ++i) {
        const char c = s[i];
        if (at_line_start_) {
            at_line_start_ = false;
            // Header lines start with '@'; records with the read name,
            // one letter then the input ordinal.
            in_name_ = c != '@';
            name_valid_ = false;
            ordinal_ = 0;
            continue;
        }
        if (in_name_) {
            if (c >= '0' && c <= '9') {
                ordinal_ = ordinal_ * 10 + static_cast<unsigned>(c - '0');
                name_valid_ = true;
                continue;
            }
            in_name_ = false;
        }
        if (c == '\n') {
            at_line_start_ = true;
            if (name_valid_ && ordinal_ < line_done_->size()) {
                if (!now) now = Clock::now();
                (*line_done_)[ordinal_] = *now;
            }
            name_valid_ = false;
        }
    }
}

InputFeed::InputFeed(std::string_view payload) : payload_(payload) {
    times_.resize(payload.size() / kChunk + 1);
}

InputFeed::int_type InputFeed::underflow() {
    if (next_ >= payload_.size()) return traits_type::eof();
    const std::size_t c = next_ / kChunk;
    times_[c] = Clock::now();
    const std::size_t len = std::min(kChunk, payload_.size() - next_);
    char* base = const_cast<char*>(payload_.data()) + next_;
    setg(base, base, base + len);
    next_ += len;
    return traits_type::to_int_type(*base);
}

std::vector<std::uint32_t> record_ready_chunks(std::string_view payload) {
    std::vector<std::uint32_t> chunks;
    std::vector<std::size_t> ends;
    std::size_t newlines = 0;
    if (!is_gzip(payload)) {
        record_ends(payload, 0, newlines, ends);
        for (const auto end : ends) {
            chunks.push_back(
                static_cast<std::uint32_t>((end - 1) / InputFeed::kChunk));
        }
        return chunks;
    }
    // Inflate chunk by chunk; a record becomes ready with the chunk
    // after which its last byte has been decoded.
    z_stream zs{};
    if (inflateInit2(&zs, 15 + 32) != Z_OK) {
        throw std::runtime_error("record_ready_chunks: inflateInit2");
    }
    std::string out(1 << 20, '\0');
    std::size_t decoded = 0;
    std::size_t consumed_ends = 0;
    for (std::size_t c = 0; c * InputFeed::kChunk < payload.size(); ++c) {
        const std::size_t begin = c * InputFeed::kChunk;
        zs.next_in = reinterpret_cast<Bytef*>(
            const_cast<char*>(payload.data()) + begin);
        zs.avail_in = static_cast<uInt>(
            std::min(InputFeed::kChunk, payload.size() - begin));
        int rc = Z_OK;
        while (zs.avail_in > 0 && rc != Z_STREAM_END) {
            zs.next_out = reinterpret_cast<Bytef*>(out.data());
            zs.avail_out = static_cast<uInt>(out.size());
            rc = inflate(&zs, Z_NO_FLUSH);
            if (rc != Z_OK && rc != Z_STREAM_END && rc != Z_BUF_ERROR) {
                inflateEnd(&zs);
                throw std::runtime_error("record_ready_chunks: inflate");
            }
            const std::size_t got = out.size() - zs.avail_out;
            record_ends({out.data(), got}, decoded, newlines, ends);
            decoded += got;
            if (got == 0 && rc == Z_BUF_ERROR) break;
        }
        for (; consumed_ends < ends.size(); ++consumed_ends) {
            chunks.push_back(static_cast<std::uint32_t>(c));
        }
    }
    inflateEnd(&zs);
    return chunks;
}

double median(std::vector<double> values) {
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// [begin, end) of each window: `per_window` items each, the remainder
/// joining the last; one window when n < per_window.
std::vector<std::pair<std::size_t, std::size_t>> windows(
    std::size_t n, std::size_t per_window) {
    std::vector<std::pair<std::size_t, std::size_t>> out;
    if (n == 0 || per_window == 0) return out;
    const std::size_t count = std::max<std::size_t>(1, n / per_window);
    for (std::size_t k = 0; k < count; ++k) {
        out.emplace_back(k * per_window,
                         k + 1 == count ? n : (k + 1) * per_window);
    }
    return out;
}

} // namespace

std::vector<double> window_rates(std::span<const double> done_s,
                                 std::size_t per_window,
                                 double units_per_completion) {
    std::vector<double> rates;
    for (const auto [begin, end] : windows(done_s.size(), per_window)) {
        const double from = begin == 0 ? 0.0 : done_s[begin - 1];
        const double span = done_s[end - 1] - from;
        if (span <= 0.0) continue;
        rates.push_back(static_cast<double>(end - begin) *
                        units_per_completion / span);
    }
    return rates;
}

std::vector<double> window_medians(std::span<const double> samples,
                                   std::size_t per_window) {
    std::vector<double> medians;
    for (const auto [begin, end] : windows(samples.size(), per_window)) {
        medians.push_back(median(std::vector<double>(
            samples.begin() + static_cast<std::ptrdiff_t>(begin),
            samples.begin() + static_cast<std::ptrdiff_t>(end))));
    }
    return medians;
}

double percentile(std::span<const double> sorted, double p) {
    if (sorted.empty()) {
        throw std::invalid_argument("percentile of no samples");
    }
    const std::size_t rank = nearest_rank(sorted.size(), p);
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
    return n - std::min(nearest_rank(n, p), n);
}

std::optional<double> highest_supported_percentile(
    std::size_t n, std::span<const double> candidates,
    std::size_t min_beyond) {
    std::optional<double> best;
    for (const double p : candidates) {
        if (samples_beyond(n, p) >= min_beyond && (!best || p > *best)) {
            best = p;
        }
    }
    return best;
}

Recall score_recall(std::string_view sam, std::span<const Origin> truth,
                    std::uint32_t delta, bool paired) {
    std::vector<bool> found(truth.size(), false);
    std::size_t pos = 0;
    while (pos < sam.size()) {
        std::size_t end = sam.find('\n', pos);
        if (end == std::string_view::npos) end = sam.size();
        const std::string_view line = sam.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty() || line[0] == '@') continue;
        // QNAME FLAG RNAME POS ...
        std::string_view fields[4];
        std::size_t start = 0;
        for (auto& field : fields) {
            const std::size_t tab = line.find('\t', start);
            if (tab == std::string_view::npos) break;
            field = line.substr(start, tab - start);
            start = tab + 1;
        }
        if (fields[3].empty() || fields[0].size() < 2) continue;
        const auto flag = std::stoul(std::string(fields[1]));
        if ((flag & 0x4u) != 0) continue;
        std::size_t index = std::stoul(std::string(fields[0].substr(1)));
        if (paired) index = 2 * index + ((flag & 0x80u) != 0 ? 1 : 0);
        if (index >= truth.size()) continue;
        const long sam_start = std::stol(std::string(fields[3])) - 1;
        const Origin& origin = truth[index];
        const bool reverse = (flag & 0x10u) != 0;
        if (reverse == origin.reverse &&
            std::labs(sam_start - static_cast<long>(origin.position)) <=
                static_cast<long>(delta)) {
            found[index] = true;
        }
    }
    Recall recall;
    recall.reads = truth.size();
    recall.found = static_cast<std::size_t>(
        std::count(found.begin(), found.end(), true));
    return recall;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace perfbench
