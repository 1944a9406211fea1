#include "common.h"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "ref_sha256.h"

namespace perfbench {

using unicert::Bytes;
using unicert::BytesView;
using unicert::Expected;
using unicert::Status;
using unicert::core::FilePtr;
using unicert::core::MappedPtr;

double mono_s() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

namespace {

constexpr size_t kKernelBytes = 8 * 1024;
constexpr double kPer64KiB = 64.0 * 1024.0 / double(kKernelBytes);

}  // namespace

double SpeedProbe::read() {
    static const std::vector<uint8_t> buffer(kKernelBytes, 0x5a);
    std::array<double, 3> times{};
    for (double& t : times) {
        double t0 = mono_s();
        (void)ref_sha256(buffer.data(), buffer.size());
        t = mono_s() - t0;
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2] * kPer64KiB;
}

double SpeedProbe::scale(double before, double after) { return scale(0.5 * (before + after)); }

double Samples::sum() const {
    double s = 0;
    for (double v : values_) s += v;
    return s;
}

double Samples::mean() const { return values_.empty() ? 0.0 : sum() / double(values_.size()); }

double Samples::percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = size_t(std::ceil(p / 100.0 * double(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

void Result::fail_check(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
}

std::string Result::to_json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto& [name, m] : metrics) {
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

void end_setup(const Args& args, Result& result) {
    const double elapsed = mono_s() - args.setup_t0;
    if (args.trace) return;
    result.metric("setup_s", elapsed * SpeedProbe::scale(args.setup_speed, SpeedProbe::read()), "s",
                  elapsed);
}

void report_end_to_end(Result& result, double ops_per_s, double raw_ops_per_s,
                       const Samples& latency_ms, const Samples& raw_latency_ms) {
    result.metric("ops_per_s", ops_per_s, "ops/s", raw_ops_per_s);
    result.metric("latency_p50_ms", latency_ms.median(), "ms", raw_latency_ms.median());
    result.metric("latency_p90_ms", latency_ms.percentile(90.0), "ms",
                  raw_latency_ms.percentile(90.0));
    result.metric("peak_rss_mb", double(peak_rss_bytes()) / (1024.0 * 1024.0), "MiB");
}

namespace {

size_t status_kb(const char* key) {
    std::ifstream in("/proc/self/status");
    std::string line;
    size_t key_len = std::char_traits<char>::length(key);
    while (std::getline(in, line)) {
        if (line.compare(0, key_len, key) == 0) {
            return size_t(std::strtoull(line.c_str() + key_len, nullptr, 10));
        }
    }
    return 0;
}

}  // namespace

size_t rss_bytes() { return status_kb("VmRSS:") * 1024; }
size_t peak_rss_bytes() { return status_kb("VmHWM:") * 1024; }
void trim_heap() { malloc_trim(0); }

// ---- CountingFs ------------------------------------------------------------

class CountingFile final : public unicert::core::File {
public:
    CountingFile(FilePtr inner, CountingFs& fs) : inner_(std::move(inner)), fs_(&fs) {}

    Expected<size_t> write(BytesView data) override {
        auto n = inner_->write(data);
        fs_->writes_.fetch_add(1, std::memory_order_relaxed);
        if (n.ok()) fs_->bytes_.fetch_add(*n, std::memory_order_relaxed);
        return n;
    }
    Status sync() override {
        fs_->fsyncs_.fetch_add(1, std::memory_order_relaxed);
        return inner_->sync();
    }
    Status close() override { return inner_->close(); }

private:
    FilePtr inner_;
    CountingFs* fs_;
};

CountingFs::Counts CountingFs::counts() const {
    return {writes_.load(std::memory_order_relaxed), bytes_.load(std::memory_order_relaxed),
            fsyncs_.load(std::memory_order_relaxed)};
}

Expected<FilePtr> CountingFs::open_append(const std::string& path) {
    auto f = inner_->open_append(path);
    if (!f.ok()) return f.error();
    return FilePtr(std::make_unique<CountingFile>(std::move(*f), *this));
}

Expected<FilePtr> CountingFs::create(const std::string& path) {
    auto f = inner_->create(path);
    if (!f.ok()) return f.error();
    return FilePtr(std::make_unique<CountingFile>(std::move(*f), *this));
}

Expected<Bytes> CountingFs::read_file(const std::string& path) { return inner_->read_file(path); }
Expected<bool> CountingFs::exists(const std::string& path) { return inner_->exists(path); }
Status CountingFs::rename(const std::string& from, const std::string& to) {
    return inner_->rename(from, to);
}
Status CountingFs::remove(const std::string& path) { return inner_->remove(path); }
Status CountingFs::make_dirs(const std::string& path) { return inner_->make_dirs(path); }
Expected<std::vector<std::string>> CountingFs::list_dir(const std::string& path) {
    return inner_->list_dir(path);
}
Status CountingFs::sync_dir(const std::string& path) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    return inner_->sync_dir(path);
}
Expected<MappedPtr> CountingFs::map_readonly(const std::string& path) {
    return inner_->map_readonly(path);
}

uint64_t mix_seed(uint64_t seed, uint64_t stream) {
    uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

std::string slug(const std::string& name) {
    std::string out;
    for (char c : name) {
        if (std::isalnum(static_cast<unsigned char>(c))) {
            out += char(std::tolower(static_cast<unsigned char>(c)));
        }
    }
    return out;
}

}  // namespace perfbench
