#pragma once
// The traced run's per-layer pass: single-thread timing of each layer's
// public entry point over a read sample.

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/sequence.hpp"
#include "helpers.hpp"
#include "pipeline/mapping_api.hpp"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Reads to time the layers on. For paired workloads `first[i]` pairs
/// with `second[i]`; single-end samples leave `second` empty.
struct LayerSample {
    repute::genomics::ReadBatch first;
    repute::genomics::ReadBatch second;
};

/// Times seed selection (filter::Seeder::select, both strands),
/// candidate gathering (filter::gather_candidates), the whole map
/// kernel (core::map_read_workitem) and CIGAR annotation
/// (core::annotate_mapping) in separate passes — one shared loop would
/// let the seed call warm the FM cache for the kernel call — with the
/// session's index, seeder and kernel configuration, then maps the
/// sample through a mapper built like the session's for the modeled
/// device seconds and, for pairs, the rescue rate. Per-read figures
/// count mates as reads.
std::vector<Metric> layer_metrics(const repute::pipeline::MappingSession& session,
                                  const LayerSample& sample,
                                  std::uint32_t delta, SpanLog* spans);

/// The first `limit` records of a FASTQ payload (plain or gzip) as
/// reads.
repute::genomics::ReadBatch parse_reads(const std::string& payload,
                                        std::size_t limit);

} // namespace perfbench
