#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <istream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "helpers.hpp"
#include "obs/trace.hpp"
#include "pipeline/mapping_api.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace perfbench {

using namespace repute;

namespace {

enum class Kind { OneShot, Serve };

struct WorkloadSpec {
    std::string_view name;
    std::string_view family;
    Kind kind;
    std::uint32_t delta;
    /// In-process index build from FASTA (`repute map --ref`) rather
    /// than the prebuilt .rix.
    bool build_index;
    /// Lowest acceptable recall (README.md records the measured values
    /// it sits under).
    double recall_floor;
};

constexpr std::array<WorkloadSpec, 3> kWorkloads = {{
    {"oneshot_se100", "small", Kind::OneShot, 4, true, 0.995},
    {"paired_gz_chr21", "chr21", Kind::OneShot, 5, false, 0.93},
    {"serve_small", "small", Kind::Serve, 4, false, 0.995},
}};

// `repute serve` defaults: 2 handlers, 8 pending, a mapper pool of one
// per handler; `repute client` defaults for the request knobs. The load
// has one client: with two, two requests' pipelines (reader, mapper and
// CIGAR writer each) share the 4 cores, and the run measures the host's
// load more than the program.
constexpr std::size_t kServeHandlers = 2;
constexpr std::size_t kServePending = 8;
constexpr std::size_t kReadsPerRequest = 256;
constexpr std::size_t kServePayloads = 64;
constexpr std::size_t kServeWarmupRequests = 8;
/// Requests per window of the serve load; reads_per_s and req_p50_ms
/// are medians over windows, so a burst of host load moves a few
/// windows rather than the whole figure.
constexpr std::size_t kServeWindow = 50;
constexpr std::size_t kMinPasses = 3;
/// The traced run alternates untraced and traced slices of the load so
/// machine drift cancels out of trace.overhead_frac.
constexpr std::size_t kTracedSlices = 6;
constexpr std::size_t kLayerSampleReads = 1000;

const WorkloadSpec& spec_of(std::string_view name) {
    for (const auto& spec : kWorkloads) {
        if (spec.name == name) return spec;
    }
    throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

double ms(Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
}

void add_stages(pipeline::PipelineStats& sum,
                const pipeline::PipelineStats& p) {
    sum.reader_seconds += p.reader_seconds;
    sum.map_seconds += p.map_seconds;
    sum.writer_seconds += p.writer_seconds;
    sum.reader_stall_seconds += p.reader_stall_seconds;
    sum.map_stall_seconds += p.map_stall_seconds;
    sum.writer_stall_seconds += p.writer_stall_seconds;
}

/// Installs the obs metrics registry for the scope (traced slices only).
class RegistryScope {
public:
    explicit RegistryScope(obs::MetricsRegistry* registry) {
        if (registry != nullptr) {
            obs::install(nullptr, registry);
            installed_ = true;
        }
    }
    ~RegistryScope() {
        if (installed_) obs::install(nullptr, nullptr);
    }
    RegistryScope(const RegistryScope&) = delete;
    RegistryScope& operator=(const RegistryScope&) = delete;

private:
    bool installed_ = false;
};

/// Everything a run measured, before it becomes metrics.
struct Measured {
    std::vector<double> setup_s;
    std::vector<double> index_s;
    double recall = 0.0;
    /// reads/s of each window: a pass (one-shot) or kServeWindow
    /// requests (serve)
    std::vector<double> untraced_rps;
    std::vector<double> traced_rps;
    /// latency p50 of each untraced window
    std::vector<double> window_p50_ms;
    /// every untraced latency sample, for the tail note
    std::vector<double> latency_ms;
    std::vector<double> first_chunk_ms;
    pipeline::PipelineStats stages;
    double stage_units = 0.0; ///< passes or requests summed in `stages`
    LayerSample sample;
};

pipeline::SessionConfig session_config(const WorkloadSpec& spec) {
    pipeline::SessionConfig config;
    config.mapper_pool = spec.kind == Kind::Serve ? kServeHandlers : 1;
    return config;
}

std::unique_ptr<pipeline::MappingSession> open_session(
    const WorkloadSpec& spec, const std::string& reference_dir) {
    const std::string& dir = reference_dir;
    return spec.build_index
               ? pipeline::MappingSession::from_fasta(
                     dir + "/" + kGenomeFasta, session_config(spec))
               : pipeline::MappingSession::from_rix(dir + "/" + kIndexRix,
                                                    session_config(spec));
}

pipeline::MapRequest base_request(const WorkloadSpec& spec,
                                  const pipeline::MappingSession& session) {
    pipeline::MapRequest request;
    request.delta = spec.delta;
    request.cigar = true;
    request.map_workers = session.config().mapper_pool;
    return request;
}

// ------------------------------------------------------------ one-shot

/// One-shot input: the payload bytes as stored in the fixture files,
/// and for each read (pair) the feed chunk that completes it.
struct Inputs {
    std::string payload1;
    std::string payload2; ///< empty for single-end
    std::vector<std::uint32_t> ready1;
    std::vector<std::uint32_t> ready2;
    std::size_t units() const noexcept { return ready1.size(); }
    bool paired() const noexcept { return !payload2.empty(); }
};

struct Pass {
    double reads_per_s = 0.0;
    std::uint64_t digest = 0;
    pipeline::PipelineStats stages;
    std::string sam; ///< kept only when asked for
    /// Per read (pair): its FASTQ record handed to the program to its
    /// last SAM line written.
    std::vector<double> latency_ms;
    /// Request start to the first read's SAM record (the header goes
    /// out before any mapping).
    double first_record_ms = 0.0;
};

/// Maps the whole input as one request, from the first request byte to
/// the last SAM byte.
Pass one_shot_pass(pipeline::MappingSession& session,
                   const WorkloadSpec& spec, const Inputs& in,
                   bool keep_text, Outcome& outcome) {
    InputFeed feed1(in.payload1);
    InputFeed feed2(in.payload2);
    std::istream stream1(&feed1);
    std::istream stream2(&feed2);
    std::vector<Clock::time_point> done(in.units());
    SamSink sink(keep_text, &done);
    std::ostream out(&sink);

    auto request = base_request(spec, session);
    request.reads = &stream1;
    request.reads2 = in.paired() ? &stream2 : nullptr;
    // A malformed record is a benchmark failure, not noise.
    request.reader.on_malformed = pipeline::OnMalformed::Fail;

    Pass pass;
    ++outcome.attempted;
    const auto start = Clock::now();
    const auto response = session.map(request, out);
    const auto end = Clock::now();
    pass.reads_per_s = static_cast<double>(response.reads_in) /
                       seconds_between(start, end);
    pass.digest = sink.digest().value();
    pass.stages = response.pipeline;
    if (keep_text) pass.sam = sink.text();
    const std::size_t expected =
        in.paired() ? 2 * in.units() : in.units();
    if (response.reads_in != expected || response.dropped != 0) {
        outcome.problems.push_back(
            "request read " + std::to_string(response.reads_in) +
            " reads (" + std::to_string(response.dropped) +
            " dropped), expected " + std::to_string(expected));
    }
    pass.latency_ms.reserve(in.units());
    for (std::size_t i = 0; i < in.units(); ++i) {
        auto ready = feed1.chunk_time(in.ready1[i]);
        if (in.paired()) {
            ready = std::max(ready, feed2.chunk_time(in.ready2[i]));
        }
        if (done[i] == Clock::time_point{}) {
            outcome.problems.push_back("read " + std::to_string(i) +
                                       " produced no SAM record");
            break;
        }
        pass.latency_ms.push_back(ms(done[i] - ready));
    }
    if (!done.empty()) {
        pass.first_record_ms =
            ms(*std::min_element(done.begin(), done.end()) - start);
    }
    return pass;
}

void run_one_shot(pipeline::MappingSession& session,
                  const WorkloadSpec& spec, const RunOptions& options,
                  std::span<const Origin> truth, SpanLog* spans,
                  obs::MetricsRegistry* registry, Measured& m,
                  Outcome& outcome) {
    const std::string& dir = options.reads_dir;
    Inputs in;
    if (family(spec.family).paired) {
        in.payload1 = slurp(dir + "/" + kMates1Gz);
        in.payload2 = slurp(dir + "/" + kMates2Gz);
        in.ready2 = record_ready_chunks(in.payload2);
    } else {
        in.payload1 = slurp(dir + "/" + kReadsFastq);
    }
    in.ready1 = record_ready_chunks(in.payload1);

    // Warm-up pass: fills caches, gives the reference digest and the
    // SAM the recall is scored on.
    Pass warm;
    {
        const SpanScope span(spans, "warmup");
        warm = one_shot_pass(session, spec, in, true, outcome);
    }
    m.recall = score_recall(warm.sam, truth, spec.delta, in.paired()).value();
    std::string().swap(warm.sam); // not part of the measured footprint
    const std::size_t units =
        in.paired() ? kLayerSampleReads / 2 : kLayerSampleReads;
    m.sample.first = parse_reads(in.payload1, units);
    if (in.paired()) m.sample.second = parse_reads(in.payload2, units);

    // Passes over the whole input until the time is up; traced runs
    // alternate untraced and traced passes.
    const auto deadline = Clock::now() + to_duration(options.seconds);
    for (std::size_t i = 0; outcome.problems.empty() &&
                            (i < kMinPasses * (options.trace ? 2 : 1) ||
                             Clock::now() < deadline);
         ++i) {
        const bool traced = options.trace && i % 2 == 1;
        const SpanScope span(spans, traced ? "pass.traced" : "pass");
        const RegistryScope scope(traced ? registry : nullptr);
        Pass pass = one_shot_pass(session, spec, in, false, outcome);
        if (pass.digest != warm.digest) {
            outcome.problems.push_back(
                std::string("SAM digest of a repeated ") +
                (traced ? "traced " : "") + "pass " + hex64(pass.digest) +
                " differs from " + hex64(warm.digest));
        }
        (traced ? m.traced_rps : m.untraced_rps).push_back(pass.reads_per_s);
        if (!options.trace) {
            m.window_p50_ms.push_back(median(pass.latency_ms));
            m.latency_ms.insert(m.latency_ms.end(), pass.latency_ms.begin(),
                                pass.latency_ms.end());
        }
        m.first_chunk_ms.push_back(pass.first_record_ms);
        add_stages(m.stages, pass.stages);
        m.stage_units += 1.0;
    }
}

// --------------------------------------------------------------- serve

/// Per completed request, in completion order.
struct ServeStats {
    std::vector<double> latency_ms;
    std::vector<double> first_chunk_ms;
    std::vector<double> done_s; ///< seconds from the load start
};

/// Closed loop of one client, on the calling thread: each request is
/// sent only after the previous one was read through to Done. Runs for
/// `seconds` and until `min_requests` completed. Every response must
/// match the in-process digest of its payload.
ServeStats serve_load(const std::string& socket,
                      const std::vector<std::string>& payloads,
                      const std::vector<std::uint64_t>& reference,
                      std::uint32_t delta, double seconds,
                      std::size_t min_requests, Outcome& outcome) {
    ServeStats stats;
    const auto start = Clock::now();
    for (std::size_t j = 0;; ++j) {
        const std::size_t p = j % payloads.size();
        serve::WireRequest request;
        request.delta = delta;
        request.cigar = 1;
        request.reads = payloads[p];
        SamSink sink;
        std::ostream out(&sink);
        const auto t0 = Clock::now();
        ++outcome.attempted;
        try {
            serve::run_client(socket, request, out);
        } catch (const std::exception& e) {
            ++outcome.failed;
            outcome.problems.push_back(std::string("request: ") + e.what());
            break;
        }
        const auto t1 = Clock::now();
        const double elapsed = seconds_between(start, t1);
        stats.latency_ms.push_back(ms(t1 - t0));
        stats.first_chunk_ms.push_back(
            ms(sink.first_byte().value_or(t1) - t0));
        stats.done_s.push_back(elapsed);
        if (sink.digest().value() != reference[p]) {
            outcome.problems.push_back(
                "serve response for payload " + std::to_string(p) +
                " differs from MappingSession::map");
            break;
        }
        if (elapsed >= seconds && stats.done_s.size() >= min_requests) {
            break;
        }
    }
    return stats;
}

/// Runs the server on its own thread for the lifetime of the scope;
/// stop() drains in-flight requests before the join.
class ServerThread {
public:
    explicit ServerThread(serve::Server& server)
        : server_(server), thread_([this] {
              try {
                  server_.run();
              } catch (const std::exception& e) {
                  error_ = e.what();
              }
          }) {}
    ~ServerThread() { join(); }
    ServerThread(const ServerThread&) = delete;
    ServerThread& operator=(const ServerThread&) = delete;

    /// Stops the server, waits for run() to drain, and returns the
    /// error it ended with, if any.
    std::optional<std::string> join() {
        if (thread_.joinable()) {
            server_.stop();
            thread_.join();
        }
        return error_;
    }

private:
    serve::Server& server_;
    std::optional<std::string> error_;
    std::thread thread_;
};

/// Splits a FASTQ payload into requests of kReadsPerRequest records.
std::vector<std::string> split_requests(const std::string& payload,
                                        std::size_t count) {
    std::vector<std::string> requests;
    std::size_t pos = 0;
    while (requests.size() < count && pos < payload.size()) {
        std::size_t end = pos;
        for (std::size_t lines = 0;
             lines < 4 * kReadsPerRequest && end < payload.size();
             ++lines) {
            end = payload.find('\n', end);
            end = end == std::string::npos ? payload.size() : end + 1;
        }
        requests.push_back(payload.substr(pos, end - pos));
        pos = end;
    }
    return requests;
}

void run_serve(pipeline::MappingSession& session, serve::Server& server,
               const WorkloadSpec& spec, const RunOptions& options,
               std::span<const Origin> truth, SpanLog* spans,
               obs::MetricsRegistry* registry, Measured& m,
               Outcome& outcome) {
    const std::string reads = slurp(options.reads_dir + "/" + kReadsFastq);
    const auto payloads = split_requests(reads, kServePayloads);

    // In-process reference: the same payloads through
    // MappingSession::map with the knobs the server applies to a
    // default wire request.
    std::vector<std::uint64_t> reference;
    {
        const SpanScope span(spans, "reference");
        std::string sam;
        for (const auto& payload : payloads) {
            std::istringstream in(payload);
            SamSink sink(true);
            std::ostream out(&sink);
            auto request = base_request(spec, session);
            request.map_workers = 1;
            request.reads = &in;
            ++outcome.attempted;
            const auto response = session.map(request, out);
            reference.push_back(sink.digest().value());
            sam += sink.text();
            add_stages(m.stages, response.pipeline);
            m.stage_units += 1.0;
        }
        const std::size_t served = payloads.size() * kReadsPerRequest;
        m.recall = score_recall(sam,
                                truth.first(std::min(truth.size(), served)),
                                spec.delta, false)
                       .value();
    }
    m.sample.first = parse_reads(reads, kLayerSampleReads);

    ServerThread running(server);
    {
        // The handlers' first requests, unrecorded.
        const SpanScope span(spans, "warmup");
        serve_load(options.socket_path, payloads, reference, spec.delta,
                   0.0, kServeWarmupRequests, outcome);
    }
    const std::size_t slices = options.trace ? kTracedSlices : 1;
    for (std::size_t s = 0; s < slices && outcome.problems.empty(); ++s) {
        const bool traced = options.trace && s % 2 == 1;
        const SpanScope span(spans, traced ? "load.traced" : "load");
        const RegistryScope scope(traced ? registry : nullptr);
        auto load = serve_load(
            options.socket_path, payloads, reference, spec.delta,
            options.seconds / static_cast<double>(slices), 1, outcome);
        const auto rates = window_rates(load.done_s, kServeWindow,
                                        kReadsPerRequest);
        auto& rps = traced ? m.traced_rps : m.untraced_rps;
        rps.insert(rps.end(), rates.begin(), rates.end());
        if (!traced) {
            const auto p50s = window_medians(load.latency_ms, kServeWindow);
            m.window_p50_ms.insert(m.window_p50_ms.end(), p50s.begin(),
                                   p50s.end());
            m.latency_ms.insert(m.latency_ms.end(), load.latency_ms.begin(),
                                load.latency_ms.end());
        }
        m.first_chunk_ms.insert(m.first_chunk_ms.end(),
                                load.first_chunk_ms.begin(),
                                load.first_chunk_ms.end());
    }
    if (const auto error = running.join()) {
        outcome.problems.push_back("server: " + *error);
    }
}

void add(std::vector<Metric>& metrics, std::string name, double value,
         std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
}

} // namespace

std::vector<std::string_view> workload_names() {
    std::vector<std::string_view> names;
    for (const auto& spec : kWorkloads) names.push_back(spec.name);
    return names;
}

std::string_view workload_family(std::string_view workload) {
    return spec_of(workload).family;
}

Outcome run_workload(const RunOptions& options, SpanLog* spans) {
    const WorkloadSpec& spec = spec_of(options.workload);
    const auto truth = read_truth(options.reads_dir + "/" + kTruth);
    Outcome outcome;
    Measured m;

    // Set-up: session construction (index build or .rix open, mapper
    // pool), plus the server bind for serve_small. Repeated; the last
    // session is the one measured.
    const std::size_t setup_repeats = spec.build_index ? 3 : 7;
    std::unique_ptr<pipeline::MappingSession> session;
    std::unique_ptr<serve::Server> server;
    for (std::size_t r = 0; r < setup_repeats; ++r) {
        server.reset();
        session.reset();
        const SpanScope span(spans, "setup");
        const auto t0 = Clock::now();
        session = open_session(spec, options.reference_dir);
        if (spec.kind == Kind::Serve) {
            server = std::make_unique<serve::Server>(
                *session, serve::ServerConfig{options.socket_path,
                                              kServeHandlers, kServePending});
        }
        m.setup_s.push_back(seconds_between(t0, Clock::now()));
        m.index_s.push_back(session->index_seconds());
    }

    obs::MetricsRegistry registry;
    if (spec.kind == Kind::OneShot) {
        run_one_shot(*session, spec, options, truth, spans, &registry, m,
                     outcome);
    } else {
        run_serve(*session, *server, spec, options, truth, spans, &registry,
                  m, outcome);
    }
    if (m.recall < spec.recall_floor) {
        outcome.problems.push_back("recall " + std::to_string(m.recall) +
                                   " below floor " +
                                   std::to_string(spec.recall_floor));
    }

    if (!options.trace) {
        add(outcome.metrics, "reads_per_s", median(m.untraced_rps),
            "reads/s");
        add(outcome.metrics, "setup_s", median(m.setup_s), "s");
        add(outcome.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
        add(outcome.metrics, "recall", m.recall, "ratio");
        add(outcome.metrics, "req_p50_ms", median(m.window_p50_ms), "ms");
        // The tail is printed, not gated: on a shared host it follows
        // the neighbours' bursts more than the program.
        static constexpr double kTails[] = {50, 90, 99, 99.9, 99.99};
        if (const auto tail =
                highest_supported_percentile(m.latency_ms.size(), kTails)) {
            std::sort(m.latency_ms.begin(), m.latency_ms.end());
            char note[160];
            std::snprintf(note, sizeof(note),
                          "latency over %zu samples (%zu windows): "
                          "p50 = %.3f ms, p%g = %.3f ms",
                          m.latency_ms.size(), m.window_p50_ms.size(),
                          percentile(m.latency_ms, 50), *tail,
                          percentile(m.latency_ms, *tail));
            outcome.notes.push_back(note);
        } else {
            outcome.problems.push_back("too few latency samples (" +
                                       std::to_string(m.latency_ms.size()) +
                                       ")");
        }
        return outcome;
    }

    std::vector<Metric>& out = outcome.metrics;
    const double units = std::max(m.stage_units, 1.0);
    add(out, "pipeline.reader_busy_s", m.stages.reader_seconds / units, "s");
    add(out, "pipeline.map_busy_s", m.stages.map_seconds / units, "s");
    add(out, "pipeline.writer_busy_s", m.stages.writer_seconds / units, "s");
    add(out, "pipeline.reader_stall_s",
        m.stages.reader_stall_seconds / units, "s");
    add(out, "pipeline.map_stall_s", m.stages.map_stall_seconds / units,
        "s");
    add(out, "pipeline.writer_stall_s",
        m.stages.writer_stall_seconds / units, "s");
    if (outcome.problems.empty()) {
        const auto layers = layer_metrics(*session, m.sample, spec.delta, spans);
        out.insert(out.end(), layers.begin(), layers.end());
    }
    add(out, "index.load_s", median(m.index_s), "s");
    add(out, "index.mapped_mb",
        static_cast<double>(session->mapped_bytes()) / 1e6, "MB");
    add(out, "index.resident_mb",
        static_cast<double>(session->resident_bytes()) / 1e6, "MB");
    add(out, "serve.first_chunk_ms", median(m.first_chunk_ms), "ms");
    add(out, "serve.server_request_p50_ms",
        1e3 * registry.histogram("session.request_seconds")
                  .snapshot()
                  .quantile(0.5),
        "ms");
    const double untraced = median(m.untraced_rps);
    add(out, "trace.overhead_frac",
        untraced > 0 ? 1.0 - median(m.traced_rps) / untraced : 0.0,
        "ratio");
    return outcome;
}

} // namespace perfbench
