#pragma once
// The benchmark's workloads, run in-process against the public API
// (pipeline::MappingSession::map, serve::Server + serve::run_client).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "helpers.hpp"
#include "layers.hpp"

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    /// false: the end-to-end metrics, nothing instrumented. true: an
    /// untraced and a traced half (obs registry installed) plus the
    /// per-layer pass, reporting the per-layer metrics.
    bool trace = false;
    /// Fixture directories: the family's reference (genome FASTA,
    /// .rix) and the seed's read set (reads, truth).
    std::string reference_dir;
    std::string reads_dir;
    /// Unix socket for serve_small (keep it short: sun_path is ~108
    /// bytes).
    std::string socket_path;
};

struct Outcome {
    std::size_t attempted = 0; ///< requests (map calls) issued
    std::size_t failed = 0;    ///< of those, errored or refused
    std::vector<Metric> metrics;
    /// Correctness failures; any entry makes the run fail.
    std::vector<std::string> problems;
    /// Context printed with the metric table.
    std::vector<std::string> notes;

    bool correct() const noexcept { return problems.empty() && failed == 0; }
};

/// Names of the workloads, in their canonical order.
std::vector<std::string_view> workload_names();

/// The fixture family a workload reads (see fixtures.hpp).
std::string_view workload_family(std::string_view workload);

/// Runs one workload against fixtures already generated for its
/// family and seed. `spans`, when given, records the run's phases and
/// layer passes.
Outcome run_workload(const RunOptions& options, SpanLog* spans = nullptr);

} // namespace perfbench
