// perfbench: the benchmark's runner binary. perfbench/run.py builds it,
// generates fixtures through it and runs one workload per invocation.
//
//   perfbench workloads
//       prints "<workload> <fixture family>" per line
//   perfbench reference --family F --out DIR
//       writes the family's genome FASTA and .rix into DIR (must exist)
//   perfbench reads --family F --seed S --reference DIR --out DIR
//       writes the family's reads for seed S and their truth into DIR
//   perfbench run --workload W --seed S --seconds N --trace 0|1
//                 --reference DIR --reads DIR [--socket PATH]
//                 [--spans PATH]
//       runs W, prints a metric table and, as the last line, the JSON
//       result; exits 1 when any output check failed. With --spans the
//       run's spans (phases, layer passes) are written there as JSON.

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fixtures.hpp"
#include "util/args.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void print_json(const Outcome& outcome) {
    std::string json = "{\"correct\": ";
    json += outcome.correct() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(outcome.attempted);
    json += ", \"failed\": " + std::to_string(outcome.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
        const Metric& m = outcome.metrics[i];
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
                value + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int run(const repute::util::Args& args) {
    RunOptions options;
    options.workload = args.get_string("workload", "");
    options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    options.seconds = args.get_double("seconds", 10.0);
    options.trace = args.get_int("trace", 0) != 0;
    options.reference_dir = args.get_string("reference", "");
    options.reads_dir = args.get_string("reads", "");
    options.socket_path = args.get_string("socket", "perfbench.sock");

    const std::string spans_path = args.get_string("spans", "");
    SpanLog spans;
    const Outcome outcome =
        run_workload(options, spans_path.empty() ? nullptr : &spans);
    if (!spans_path.empty()) {
        std::ofstream out(spans_path);
        out << spans.json();
        if (!out) throw std::runtime_error("cannot write " + spans_path);
    }
    std::printf("# %s seed %" PRIu64 " (%s)\n", options.workload.c_str(),
                options.seed, options.trace ? "traced" : "untraced");
    for (const Metric& m : outcome.metrics) {
        std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("  %-32s %16zu / %zu\n", "failed / attempted",
                outcome.failed, outcome.attempted);
    for (const auto& note : outcome.notes) {
        std::printf("  %s\n", note.c_str());
    }
    for (const auto& problem : outcome.problems) {
        std::printf("  CHECK FAILED: %s\n", problem.c_str());
    }
    std::fflush(stdout);
    print_json(outcome);
    return outcome.correct() ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfbench workloads | reference ... | reads ... "
                     "| run ...\n");
        return 2;
    }
    try {
        const std::string command = argv[1];
        const repute::util::Args args(argc - 1, argv + 1);
        if (command == "workloads") {
            for (const auto name : workload_names()) {
                std::printf("%.*s %.*s\n", static_cast<int>(name.size()),
                            name.data(),
                            static_cast<int>(workload_family(name).size()),
                            workload_family(name).data());
            }
            return 0;
        }
        if (command == "reference") {
            generate_reference(args.get_string("family", ""),
                               args.get_string("out", ""));
            return 0;
        }
        if (command == "reads") {
            generate_reads(args.get_string("family", ""),
                           static_cast<std::uint64_t>(args.get_int("seed", 1)),
                           args.get_string("reference", ""),
                           args.get_string("out", ""));
            return 0;
        }
        if (command == "run") return run(args);
        std::fprintf(stderr, "perfbench: unknown command %s\n",
                     command.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
