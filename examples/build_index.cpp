// build_index — build the FM-index for a FASTA reference once and save
// it to disk (binary), so repeated mapping runs skip construction.
//
//   build_index --reference ref.fa --out ref.fmi [--sa-sample 4]
//
// Without --reference a demo genome is generated, indexed, saved,
// reloaded and sanity-checked, so the example runs standalone.

#include <cstdio>
#include <fstream>

#include "genomics/fastx.hpp"
#include "genomics/genome_sim.hpp"
#include "genomics/multi_reference.hpp"
#include "index/fm_index.hpp"
#include "util/args.hpp"
#include "util/timer.hpp"

using namespace repute;

int main(int argc, char** argv) {
    const util::Args args(argc, argv);
    const std::string fasta = args.get_string("reference", "");
    const std::string out_path = args.get_string("out", "reference.fmi");
    const auto sa_sample =
        static_cast<std::uint32_t>(args.get_int("sa-sample", 4));

    genomics::Reference reference;
    if (fasta.empty()) {
        genomics::GenomeSimConfig config;
        config.length = 2'000'000;
        reference = genomics::simulate_genome(config);
        std::printf("no --reference given; using a %zu bp demo genome\n",
                    reference.size());
    } else {
        const genomics::MultiReference multi(
            genomics::read_fasta_file(fasta));
        reference = multi.concatenated();
    }

    util::Stopwatch timer;
    const index::FmIndex fm(reference, sa_sample);
    std::printf("index built in %.1f s: %.1f MB (sa_sample=%u)\n",
                timer.seconds(),
                static_cast<double>(fm.memory_bytes()) / 1e6, sa_sample);

    {
        std::ofstream out(out_path, std::ios::binary);
        fm.save(out);
        reference.sequence().save(out); // text travels with the index
    }
    std::printf("saved to %s\n", out_path.c_str());

    // Round-trip sanity check.
    timer.reset();
    std::ifstream in(out_path, std::ios::binary);
    const auto loaded = index::FmIndex::load(in);
    const auto text = util::PackedDna::load(in);
    const auto probe = reference.sequence().extract(1234, 20);
    if (loaded.search(probe).count() != fm.search(probe).count() ||
        text.size() != reference.size()) {
        std::fprintf(stderr, "round-trip mismatch!\n");
        return 1;
    }
    std::printf("reloaded and verified in %.2f s\n", timer.seconds());
    return 0;
}
