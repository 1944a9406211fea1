// perfbench: one workload per process, inputs made from --seed, outputs
// checked, and one JSON result as the last line of standard output.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//             [--setup-t0 T] [--input-dir DIR]
//   perfbench --generate census --seed N --input-dir DIR
//
// An untraced run measures the named workload and reports the end-to-end
// metrics. A traced run measures every workload, each for its share of
// the seconds, so that it reports every layer's metrics whichever
// workload is named; its operation counts are the named workload's.
//
// Exit codes: 0 result printed and every check held; 1 result printed
// but a check failed; 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "rfc6962.h"
#include "workloads.h"

namespace {

struct Section {
    const char* workload;
    void (*run)(const perfbench::Args&, perfbench::Result&);
    double traced_share;  // of --seconds, in the traced run
};

// Census gets the largest share: one round of its traced section (a
// layer pass and three pipeline passes) takes about 3.5 s.
constexpr Section kSections[] = {
    {"census", perfbench::run_census, 0.4},
    {"monitor-query", perfbench::run_monitor_query, 0.2},
    {"monitor-ingest", perfbench::run_monitor_ingest, 0.2},
    {"differential", perfbench::run_differential, 0.2},
};

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload census|monitor-query|monitor-ingest|differential"
                 " --seed N --seconds S --trace 0|1 [--setup-t0 T] [--input-dir DIR]\n"
                 "       perfbench --generate census --seed N --input-dir DIR\n");
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Args args;
    args.setup_t0 = perfbench::mono_s();
    std::string generate;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) return usage();
        const char* value = argv[++i];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--generate") {
            generate = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, nullptr, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::atof(value);
        } else if (flag == "--trace") {
            args.trace = std::strcmp(value, "0") != 0;
        } else if (flag == "--setup-t0") {
            args.setup_t0 = std::atof(value);
        } else if (flag == "--input-dir") {
            args.input_dir = value;
        } else {
            return usage();
        }
    }

    // The census set-up starts in the generator process: it records the
    // mean machine speed over its run for the measuring process to scale
    // by.
    const std::string speed_file = args.input_dir + "/setup_speed";
    args.setup_speed = perfbench::SpeedProbe::read();
    if (!generate.empty()) {
        if (generate != "census" || args.input_dir.empty()) return usage();
        if (int rc = perfbench::generate_census_inputs(args); rc != 0) return rc;
        const double speed = 0.5 * (args.setup_speed + perfbench::SpeedProbe::read());
        std::FILE* f = std::fopen(speed_file.c_str(), "w");
        if (f == nullptr) return 1;
        std::fprintf(f, "%.17g\n", speed);
        return std::fclose(f) == 0 ? 0 : 1;
    }
    const Section* named = nullptr;
    for (const Section& section : kSections) {
        if (args.workload == section.workload) named = &section;
    }
    if (named == nullptr) return usage();
    const bool needs_corpus = args.workload == "census" || args.trace;
    if (needs_corpus && args.input_dir.empty()) return usage();
    if (args.workload == "census") {
        if (std::FILE* f = std::fopen(speed_file.c_str(), "r")) {
            if (std::fscanf(f, "%lf", &args.setup_speed) != 1) args.setup_speed = 0;
            std::fclose(f);
        }
        if (args.setup_speed <= 0) return usage();
    }
    perfbench::Result result;
    if (auto e = perfbench::ref_self_check()) result.fail_check("RFC 6962 reference: " + *e);
    if (!args.trace) {
        named->run(args, result);
    } else {
        if (!perfbench::alloc_counting()) {
            result.fail_check("the traced run needs the allocation-counting binary");
        }
        for (const Section& section : kSections) {
            perfbench::Args part_args = args;
            part_args.workload = section.workload;
            part_args.seconds = args.seconds * section.traced_share;
            perfbench::Result part;
            section.run(part_args, part);
            result.metrics.insert(part.metrics.begin(), part.metrics.end());
            result.notes.insert(result.notes.end(), part.notes.begin(), part.notes.end());
            for (const std::string& error : part.errors) result.fail_check(error);
            if (!part.correct) result.correct = false;
            if (&section == named) {
                result.attempted = part.attempted;
                result.failed = part.failed;
            }
        }
    }

    for (const std::string& note : result.notes) {
        std::fprintf(stderr, "perfbench: %s\n", note.c_str());
    }
    for (const auto& [name, value] : result.unscaled) {
        std::fprintf(stderr, "perfbench: unscaled %s %.17g\n", name.c_str(), value);
    }
    for (const std::string& error : result.errors) {
        std::fprintf(stderr, "perfbench: check failed: %s\n", error.c_str());
    }
    std::printf("%s\n", result.to_json().c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
