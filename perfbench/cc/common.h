// Shared plumbing for the workloads: clocks, sample sets, the result
// record every workload fills, process memory readings, the allocation
// counter and the counting core::Fs decorator used by the traced run.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/fs.h"

namespace perfbench {

// CLOCK_MONOTONIC seconds, the same clock Python's time.monotonic()
// reads, so a set-up start taken by the launcher can be compared.
double mono_s();

// Machine speed, read by a fixed reference kernel in the benchmark's own
// code: SHA-256 over 8 KiB, median of three runs, in seconds per 64 KiB.
// On the shared host the benchmark was written on, the same work ran up
// to a quarter slower for minutes at a stretch, longer than a run, and
// single cores were slowed apart from the others. Every
// end-to-end time is therefore multiplied by
// kNominal / mean(reading before, reading after), taken on the CPU that
// did the work: it is reported at the speed of a core that runs the
// kernel in kNominal seconds. The kernel shares no code with unicert, so
// a change to the program never moves it.
class SpeedProbe {
public:
    // The kernel's time on an idle core of the machine the benchmark was
    // written on (x86-64 at 2.1 GHz); only a unit.
    static constexpr double kNominal = 0.00032;
    // One reading on the CPU the calling thread runs on (about 0.1 ms).
    static double read();
    // Factor that converts a time measured between readings `before` and
    // `after` to reference speed.
    static double scale(double before, double after);
    // The same for a time over which the mean reading was `mean`.
    static double scale(double mean) { return kNominal / mean; }
};

// Timing samples; percentiles by the nearest-rank rule.
class Samples {
public:
    void add(double v) { values_.push_back(v); }
    size_t size() const noexcept { return values_.size(); }
    double sum() const;
    double mean() const;
    double median() const { return percentile(50.0); }
    double percentile(double p) const;

private:
    std::vector<double> values_;
};

struct Args {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double setup_t0 = 0;     // mono_s() when set-up began (default: process start)
    double setup_speed = 0;  // SpeedProbe::read() when set-up began
    std::string input_dir;  // census: generated corpus files
};

struct Result {
    bool correct = true;
    std::vector<std::string> errors;  // failed checks, for stderr
    uint64_t attempted = 0;
    uint64_t failed = 0;
    struct Metric {
        double value;
        std::string unit;
    };
    std::map<std::string, Metric> metrics;
    std::map<std::string, double> unscaled;  // speed-scaled metrics before scaling, for stderr
    std::vector<std::string> notes;          // extra lines for stderr

    void fail_check(const std::string& what);
    void metric(const std::string& name, double value, const std::string& unit) {
        metrics[name] = {value, unit};
    }
    void metric(const std::string& name, double value, const std::string& unit, double raw) {
        metrics[name] = {value, unit};
        unscaled[name] = raw;
    }
    std::string to_json() const;
};

// Ends the set-up: an untraced run records setup_s, the seconds since
// Args::setup_t0 scaled by SpeedProbe between Args::setup_speed and now.
void end_setup(const Args& args, Result& result);

// The end-to-end metrics every workload reports besides setup_s:
// ops_per_s (the workload's throughput, speed-scaled and raw),
// latency_p50_ms and latency_p90_ms over its timed requests, and
// peak_rss_mb of the measuring process.
void report_end_to_end(Result& result, double ops_per_s, double raw_ops_per_s,
                       const Samples& latency_ms, const Samples& raw_latency_ms);

// Resident set now / at its peak, in bytes (/proc/self/status).
size_t rss_bytes();
size_t peak_rss_bytes();
// Return freed heap to the OS so RSS deltas measure live data.
void trim_heap();

// Allocations made so far by the calling thread. Live only in the
// traced binary (alloc_hook.cc); the untraced binary links alloc_off.cc
// and reads zeros.
struct AllocCounts {
    uint64_t count = 0;
    uint64_t bytes = 0;
};
AllocCounts alloc_counts() noexcept;
bool alloc_counting() noexcept;

// A core::Fs decorator that counts what the layers above it write:
// write calls, bytes, and fsyncs (file syncs plus directory syncs).
class CountingFs final : public unicert::core::Fs {
public:
    explicit CountingFs(unicert::core::Fs& inner) : inner_(&inner) {}

    struct Counts {
        uint64_t writes = 0;
        uint64_t bytes = 0;
        uint64_t fsyncs = 0;
    };
    Counts counts() const;

    unicert::Expected<unicert::core::FilePtr> open_append(const std::string& path) override;
    unicert::Expected<unicert::core::FilePtr> create(const std::string& path) override;
    unicert::Expected<unicert::Bytes> read_file(const std::string& path) override;
    unicert::Expected<bool> exists(const std::string& path) override;
    unicert::Status rename(const std::string& from, const std::string& to) override;
    unicert::Status remove(const std::string& path) override;
    unicert::Status make_dirs(const std::string& path) override;
    unicert::Expected<std::vector<std::string>> list_dir(const std::string& path) override;
    unicert::Status sync_dir(const std::string& path) override;
    unicert::Expected<unicert::core::MappedPtr> map_readonly(const std::string& path) override;

private:
    friend class CountingFile;
    unicert::core::Fs* inner_;
    std::atomic<uint64_t> writes_{0};
    std::atomic<uint64_t> bytes_{0};
    std::atomic<uint64_t> fsyncs_{0};
};

// Independent 64-bit stream `stream` of a workload seed (splitmix64).
uint64_t mix_seed(uint64_t seed, uint64_t stream);

// Lower-case alphanumeric slug usable in a metric name ("Golang Crypto" -> "golangcrypto").
std::string slug(const std::string& name);

}  // namespace perfbench
