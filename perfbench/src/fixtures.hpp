#pragma once
// Seeded fixture generator for the benchmark's workloads.
//
// Every input the program sees is generated and written to files. A
// family's reference (genome FASTA and its prebuilt .rix) comes from a
// fixed genome seed, like a real reference shared by every read set;
// its reads (plain FASTQ or gzip mate files) come from the run's seed.
// Ground truth (each read's simulated origin) goes to a separate file
// the program never reads. The same arguments give identical bytes;
// run.py caches references by a hash of the generator sources and read
// sets by seed plus that hash, because the chr21-scale index takes tens
// of seconds to build.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Two fixture families back the three workloads: `small` (4 Mbp
/// genome, 100 bp single-end reads, .rix) serves oneshot_se100 and
/// serve_small; `chr21` (48 Mbp genome, gzip mate files of alternating
/// 100/150 bp pairs, .rix) serves paired_gz_chr21.
struct FamilySpec {
    std::string_view name;
    std::size_t genome_bp = 0;
    std::uint64_t genome_seed = 0;
    /// Single-end reads (small) or mate pairs (chr21).
    std::size_t reads = 0;
    std::uint32_t max_errors = 0;
    bool paired = false;
};

const FamilySpec& family(std::string_view name);

/// File names inside a family's reference and read-set directories.
inline constexpr const char* kGenomeFasta = "genome.fa";
inline constexpr const char* kReadsFastq = "reads.fq";
inline constexpr const char* kMates1Gz = "mates_1.fq.gz";
inline constexpr const char* kMates2Gz = "mates_2.fq.gz";
inline constexpr const char* kIndexRix = "index.rix";
inline constexpr const char* kTruth = "truth.tsv";

/// Simulated origin of one read (or mate): 0-based forward-strand start
/// within its sequence, and strand.
struct Origin {
    std::uint32_t position = 0;
    bool reverse = false;
};

/// Writes the family's genome FASTA and .rix into `dir` (which must
/// exist). Deterministic: same family, same bytes.
void generate_reference(std::string_view family_name,
                        const std::string& dir);

/// Writes the family's reads for `seed` and their truth file into `dir`
/// (which must exist), sampled from the genome in `reference_dir`.
/// Deterministic: same arguments, same bytes.
void generate_reads(std::string_view family_name, std::uint64_t seed,
                    const std::string& reference_dir,
                    const std::string& dir);

/// Reads the truth file: one origin per read in input order; for pairs,
/// mate 1 then mate 2 of each pair.
std::vector<Origin> read_truth(const std::string& path);

} // namespace perfbench
