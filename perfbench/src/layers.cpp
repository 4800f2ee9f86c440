#include "layers.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "core/cigar.hpp"
#include "core/kernels.hpp"
#include "core/paired.hpp"
#include "core/repute_mapper.hpp"
#include "filter/candidates.hpp"
#include "filter/memopt_seeder.hpp"
#include "genomics/fastx.hpp"
#include "helpers.hpp"
#include "ocl/platform.hpp"
#include "util/packed_dna.hpp"

namespace perfbench {

using namespace repute;

namespace {

/// The kernel configuration MappingSession::build_pool gives its
/// mappers.
core::KernelConfig session_kernel(const pipeline::SessionConfig& config) {
    core::KernelConfig kernel;
    kernel.s_min = config.s_min;
    kernel.max_locations_per_read = config.max_locations;
    kernel.simd_verification = config.simd_verification;
    return kernel;
}

constexpr std::size_t kRounds = 3;
constexpr std::size_t kBlock = 20;

/// Sweeps a buffer twice the size of a core's L2, so every timed pass
/// starts from the same cache state: the previous pass's lines evicted
/// from L1/L2, the shared L3 still warm. Without it the pass that runs
/// second inherits the first one's lines and reads faster.
void evict_private_caches() {
    static std::vector<std::uint64_t> buffer(std::size_t{1} << 19);
    for (std::size_t i = 0; i < buffer.size(); i += 8) buffer[i] += 1;
}

/// Runs `pass` from evicted private caches inside a span; returns its
/// seconds.
template <typename Pass>
double timed_pass(SpanLog* spans, const char* name, Pass&& pass) {
    evict_private_caches();
    const SpanScope span(spans, name);
    const auto t0 = Clock::now();
    pass();
    return seconds_between(t0, Clock::now());
}

double per(double total, std::size_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

} // namespace

std::vector<Metric> layer_metrics(const pipeline::MappingSession& session,
                                  const LayerSample& sample,
                                  std::uint32_t delta, SpanLog* spans) {
    const auto& fm = session.fm();
    const auto& reference = session.multi().concatenated();
    const core::KernelConfig kernel = session_kernel(session.config());
    const filter::MemoryOptimizedSeeder seeder(kernel.s_min);

    std::vector<const genomics::Read*> reads;
    for (const auto& read : sample.first.reads) reads.push_back(&read);
    for (const auto& read : sample.second.reads) reads.push_back(&read);
    const std::size_t n = reads.size();
    std::vector<std::vector<std::uint8_t>> rc(n);
    std::vector<std::uint32_t> lengths(2 * n);
    for (std::size_t i = 0; i < n; ++i) {
        reads[i]->reverse_complement(rc[i]);
        lengths[2 * i] = lengths[2 * i + 1] =
            static_cast<std::uint32_t>(reads[i]->length());
    }

    filter::CandidateConfig cand_config; // as map_read_workitem sets it
    cand_config.max_hits_per_seed = kernel.max_hits_per_seed;
    cand_config.collapse_diagonals = kernel.collapse_candidates;
    cand_config.coalesce_windows = kernel.coalesce_windows;

    // The sample is timed in blocks: per block, a separate pass of each
    // layer over the block's reads, back to back, so a drift in machine
    // speed hits every layer alike. Rounds repeat the sweep; each layer
    // reports its median round.
    std::vector<double> seed_s, gather_s, kernel_s, cigar_s, verify_s;
    std::vector<filter::SeedPlan> plans(2 * n);
    filter::SeedScratch seed_scratch;
    filter::CandidateSet candidates;
    std::vector<std::uint32_t> hits;
    core::KernelScratch scratch;
    std::vector<std::vector<core::ReadMapping>> mappings(n);
    std::uint64_t dp_cells = 0, fm_extends = 0, locates = 0, windows = 0;
    std::uint64_t occ_words = 0;
    core::StageTotals stages;
    std::size_t annotated = 0;
    for (std::size_t round = 0; round < kRounds; ++round) {
        const SpanScope round_span(spans, "layers.round");
        const bool count = round == 0; // counts repeat exactly
        double seed = 0, gather = 0, kernel_time = 0, cigar = 0;
        for (std::size_t begin = 0; begin < n; begin += kBlock) {
            const std::size_t end = std::min(n, begin + kBlock);
            seed += timed_pass(spans, "filter.seed", [&] {
                for (std::size_t i = begin; i < end; ++i) {
                    seeder.select(fm, reads[i]->codes, delta, plans[2 * i],
                                  seed_scratch);
                    seeder.select(fm, rc[i], delta, plans[2 * i + 1],
                                  seed_scratch);
                }
            });
            gather += timed_pass(spans, "filter.gather", [&] {
                for (std::size_t i = 2 * begin; i < 2 * end; ++i) {
                    filter::gather_candidates(fm, plans[i], lengths[i], delta,
                                              cand_config, candidates, hits);
                    if (count) {
                        locates += candidates.located_hits;
                        windows += candidates.positions.size();
                    }
                }
            });
            const std::uint64_t occ_before =
                index::FmIndex::thread_occ_words();
            kernel_time += timed_pass(spans, "core.kernel", [&] {
                for (std::size_t i = begin; i < end; ++i) {
                    core::map_read_workitem(fm, reference, seeder, *reads[i],
                                            delta, kernel, mappings[i],
                                            scratch, count ? &stages : nullptr);
                }
            });
            if (count) {
                occ_words += index::FmIndex::thread_occ_words() - occ_before;
            }
            cigar += timed_pass(spans, "core.cigar", [&] {
                for (std::size_t i = begin; i < end; ++i) {
                    for (const auto& mapping : mappings[i]) {
                        const bool ok = core::annotate_mapping(
                                            reference, *reads[i], mapping,
                                            delta)
                                            .has_value();
                        if (count) annotated += ok ? 1 : 0;
                    }
                }
            });
        }
        seed_s.push_back(seed);
        gather_s.push_back(gather);
        kernel_s.push_back(kernel_time);
        cigar_s.push_back(cigar);
        verify_s.push_back(kernel_time - seed - gather);
    }
    for (const auto& plan : plans) {
        dp_cells += plan.dp_cells;
        fm_extends += plan.fm_extends;
    }

    // Modeled device time (and, for pairs, rescue) from a mapper built
    // like the session's, mapping the sample in per-length batches.
    auto platform = ocl::Platform::system1();
    std::vector<core::DeviceShare> shares;
    for (const auto& name : session.config().devices) {
        shares.push_back({&platform.device(name), 1.0});
    }
    core::HeterogeneousMapperConfig mapper_config;
    mapper_config.kernel = kernel;
    mapper_config.schedule = session.config().schedule;
    mapper_config.scheduler = session.config().scheduler;
    mapper_config.double_buffer = session.config().double_buffer;
    const auto mapper =
        core::make_repute(reference, fm, shares, mapper_config);
    double modeled_s = 0.0;
    std::size_t rescued = 0;
    const bool paired = !sample.second.empty();
    std::map<std::size_t, std::pair<genomics::ReadBatch, genomics::ReadBatch>>
        by_length;
    for (std::size_t i = 0; i < sample.first.size(); ++i) {
        auto& [first, second] = by_length[sample.first.reads[i].length()];
        first.read_length = second.read_length =
            sample.first.reads[i].length();
        first.reads.push_back(sample.first.reads[i]);
        first.reads.back().id = static_cast<std::uint32_t>(first.size() - 1);
        if (paired) {
            second.reads.push_back(sample.second.reads[i]);
            second.reads.back().id = first.reads.back().id;
        }
    }
    for (const auto& [length, batches] : by_length) {
        if (paired) {
            core::PairedMapper pairs(*mapper, reference);
            const auto result =
                pairs.map_pairs(batches.first, batches.second, delta);
            modeled_s += result.mapping_seconds;
            rescued += result.count(core::PairClass::Rescued);
        } else {
            modeled_s += mapper->map(batches.first, delta).mapping_seconds;
        }
    }

    const double us = 1e6;
    const double all_windows = static_cast<double>(stages.candidates);
    const double verified =
        static_cast<double>(stages.simd_lanes + stages.simd_tail);
    return {
        {"filter.seed_us_per_read", per(median(seed_s) * us, n), "us"},
        {"filter.dp_cells_per_read", per(static_cast<double>(dp_cells), n),
         "count"},
        {"filter.fm_extends_per_read",
         per(static_cast<double>(fm_extends), n), "count"},
        {"filter.candidates_per_read", per(static_cast<double>(windows), n),
         "count"},
        {"index.occ_words_per_read", per(static_cast<double>(occ_words), n),
         "count"},
        {"filter.gather_us_per_read", per(median(gather_s) * us, n), "us"},
        {"index.locates_per_read", per(static_cast<double>(locates), n),
         "count"},
        {"core.kernel_us_per_read", per(median(kernel_s) * us, n), "us"},
        // Derived, not timed: the kernel pass beyond the seed and gather
        // passes of its round, i.e. the verification funnel.
        {"align.verify_us_per_read", per(median(verify_s) * us, n), "us"},
        {"align.prefilter_reject_ratio",
         all_windows > 0
             ? static_cast<double>(stages.prefilter_rejects) / all_windows
             : 0.0,
         "ratio"},
        {"align.accept_ratio",
         all_windows > 0 ? static_cast<double>(stages.accepted) / all_windows
                         : 0.0,
         "ratio"},
        {"align.simd_lane_occupancy",
         verified > 0 ? static_cast<double>(stages.simd_lanes) / verified
                      : 0.0,
         "ratio"},
        {"core.cigar_us_per_mapping", per(median(cigar_s) * us, annotated),
         "us"},
        {"core.mappings_per_read", per(static_cast<double>(annotated), n),
         "count"},
        {"core.rescued_pair_frac",
         per(static_cast<double>(rescued), sample.second.size()), "ratio"},
        {"ocl.modeled_device_s", modeled_s, "s"},
    };
}

genomics::ReadBatch parse_reads(const std::string& payload,
                                std::size_t limit) {
    std::istringstream in(payload);
    genomics::FastxRecordStream records(in, genomics::FastxFormat::Fastq);
    genomics::ReadBatch batch;
    genomics::FastqRecord record;
    while (batch.size() < limit &&
           records.next(record) == genomics::FastxRecordStream::Status::Record) {
        genomics::Read read;
        read.id = static_cast<std::uint32_t>(batch.size());
        read.name = record.name;
        read.codes.resize(record.sequence.size());
        for (std::size_t i = 0; i < record.sequence.size(); ++i) {
            read.codes[i] = util::base_to_code(record.sequence[i]);
        }
        batch.reads.push_back(std::move(read));
    }
    if (!batch.empty()) batch.read_length = batch.reads.front().length();
    return batch;
}

} // namespace perfbench
