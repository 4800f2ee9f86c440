#include "fixtures.hpp"

#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "genomics/pair_sim.hpp"
#include "genomics/read_sim.hpp"
#include "index/fm_index.hpp"
#include "index/rix.hpp"
#include "util/gzip_stream.hpp"

namespace perfbench {

using namespace repute;

namespace {

// Read counts are sized so one mapping pass over the input takes two to
// three seconds on a 4-core host and spans several 4096-read batches
// per length class: a run then holds several passes and reports their
// median.
constexpr std::array<FamilySpec, 2> kFamilies = {{
    {"small", 4'000'000, 4, 40'000, 4, false},
    // Mates carry up to delta + 2 errors (the workload maps at delta
    // 5), so some fail on their own and pair rescue recovers them.
    {"chr21", 48'000'000, 21, 12'000, 7, true},
}};

/// Distinct read streams per seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
    return seed * 1'000'003ull + stream;
}

void write_file(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) throw std::runtime_error("fixtures: cannot write " + path);
}

genomics::FastqRecord to_record(const genomics::Read& read,
                                std::string name) {
    return {std::move(name), read.to_string(),
            std::string(read.length(), 'I')};
}

std::string fastq_text(const std::vector<genomics::FastqRecord>& records) {
    std::ostringstream out;
    genomics::write_fastq(out, records);
    return out.str();
}

void append_truth(std::ostringstream& truth, std::uint32_t position,
                  bool reverse) {
    truth << position << '\t' << (reverse ? '-' : '+') << '\n';
}

void write_single(const FamilySpec& spec, std::uint64_t seed,
                     const genomics::Reference& genome,
                     const std::string& dir) {
    genomics::ReadSimConfig config;
    config.n_reads = spec.reads;
    config.read_length = 100;
    config.max_errors = spec.max_errors;
    config.seed = stream_seed(seed, 2);
    const auto sim = genomics::simulate_reads(genome, config);

    std::vector<genomics::FastqRecord> records;
    std::ostringstream truth;
    for (std::size_t i = 0; i < sim.batch.size(); ++i) {
        records.push_back(
            to_record(sim.batch.reads[i], "r" + std::to_string(i)));
        append_truth(truth, sim.origins[i].position,
                     sim.origins[i].strand == genomics::Strand::Reverse);
    }
    write_file(dir + "/" + kReadsFastq, fastq_text(records));
    write_file(dir + "/" + kTruth, truth.str());
}

/// Mate pairs alternate 100 bp and 150 bp, so the bucketed pipeline
/// sees two length classes interleaved and must restore input order.
void write_paired(const FamilySpec& spec, std::uint64_t seed,
                     const genomics::Reference& genome,
                     const std::string& dir) {
    std::array<genomics::SimulatedPairs, 2> sims;
    const std::array<std::size_t, 2> lengths = {100, 150};
    for (std::size_t k = 0; k < 2; ++k) {
        genomics::PairSimConfig config;
        config.n_pairs = (spec.reads + 1 - k) / 2;
        config.read_length = lengths[k];
        config.max_errors = spec.max_errors;
        config.seed = stream_seed(seed, 3 + k);
        sims[k] = genomics::simulate_pairs(genome, config);
    }
    std::vector<genomics::FastqRecord> mates1;
    std::vector<genomics::FastqRecord> mates2;
    std::ostringstream truth;
    for (std::size_t i = 0; i < spec.reads; ++i) {
        const auto& sim = sims[i % 2];
        const std::size_t j = i / 2;
        const std::string name = "p" + std::to_string(i);
        mates1.push_back(to_record(sim.first.reads[j], name));
        mates2.push_back(to_record(sim.second.reads[j], name));
        const auto& origin = sim.origins[j];
        append_truth(truth, origin.fragment_start, false);
        append_truth(truth,
                     origin.fragment_start + origin.fragment_length -
                         static_cast<std::uint32_t>(lengths[i % 2]),
                     true);
    }
    // zlib's gzip wrapper stamps mtime 0, so the bytes depend on the
    // input alone.
    write_file(dir + "/" + kMates1Gz, util::gzip_compress(fastq_text(mates1)));
    write_file(dir + "/" + kMates2Gz, util::gzip_compress(fastq_text(mates2)));
    write_file(dir + "/" + kTruth, truth.str());
}

} // namespace

const FamilySpec& family(std::string_view name) {
    for (const auto& spec : kFamilies) {
        if (spec.name == name) return spec;
    }
    throw std::invalid_argument("unknown fixture family: " +
                                std::string(name));
}

void generate_reference(std::string_view family_name,
                        const std::string& dir) {
    const FamilySpec& spec = family(family_name);
    genomics::GenomeSimConfig config;
    config.length = spec.genome_bp;
    config.seed = spec.genome_seed;
    const auto genome = genomics::simulate_genome(config, "chr21-sim");
    const std::string fasta_path = dir + "/" + kGenomeFasta;
    {
        std::ostringstream fasta;
        genomics::write_fasta(fasta,
                              {{genome.name(), genome.sequence().to_string()}});
        write_file(fasta_path, fasta.str());
    }
    // The `repute index build` path: FASTA in, .rix out, default index
    // geometry.
    const genomics::MultiReference multi(
        genomics::read_fasta_file(fasta_path));
    const index::FmIndex fm(multi.concatenated());
    index::write_rix(dir + "/" + kIndexRix, multi, fm);
}

void generate_reads(std::string_view family_name, std::uint64_t seed,
                    const std::string& reference_dir,
                    const std::string& dir) {
    const FamilySpec& spec = family(family_name);
    const genomics::MultiReference multi(
        genomics::read_fasta_file(reference_dir + "/" + kGenomeFasta));
    if (spec.paired) {
        write_paired(spec, seed, multi.concatenated(), dir);
    } else {
        write_single(spec, seed, multi.concatenated(), dir);
    }
}

std::vector<Origin> read_truth(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("fixtures: cannot read " + path);
    std::vector<Origin> truth;
    std::uint32_t position = 0;
    char strand = '+';
    while (in >> position >> strand) {
        truth.push_back({position, strand == '-'});
    }
    return truth;
}

} // namespace perfbench
