// monitor-query and monitor-ingest: the Table 6 monitor queries over a
// durable CT store on a MemFs, checked against the RFC 6962 reference.
//
// monitor-query: a static store of signed leaves with a fresh index; one
// closed-loop client cycles through all five profiles with a fixed mix of
// exact hits, fuzzy substrings, guaranteed misses, refused patterns and
// special-Unicode retrievals. Merkle validity and index lookup do the work.
//
// monitor-ingest: the same layers used by a writer. Each cycle grows a
// store from kBaseEntries to kBaseEntries + kBatches * kBatchEntries,
// querying the entries each batch just added (only the tail scan can
// answer them), refreshing the index every kRefreshEvery batches, and
// ends by reopening the store image.
#include <algorithm>
#include <memory>
#include <set>

#include "checks.h"
#include "core/fs.h"
#include "ctlog/corpus.h"
#include "ctlog/index/index.h"
#include "ctlog/index/matcher.h"
#include "ctlog/index/query.h"
#include "ctlog/store/store.h"
#include "workloads.h"
#include "x509/parser.h"

namespace perfbench {

using namespace unicert;
using ctlog::MonitorProfile;
using ctlog::index::QueryService;
using ctlog::index::ServedQuery;
using ctlog::store::PendingEntry;
using ctlog::store::Store;

namespace {

constexpr const char* kStoreDir = "ct";

// monitor-query
constexpr size_t kQueryEntries = 4096;
constexpr double kQueryScale = 8000.0;  // ~4.3k signed certificates
constexpr size_t kAppendBatch = 512;
// The query mix per profile and round follows make_queries in
// bench/bench_monitor_qps.cc: six keys harvested from entries, each
// asked exactly and as its inner substring, and one absent host. The
// refused patterns and the special-Unicode retrieval, which that mix
// lacks, are asked once each (see README).
constexpr size_t kExactPerRound = 6;
constexpr size_t kQueryRounds = 10;  // distinct rounds, asked in turn
constexpr size_t kPoolPerProfile = kExactPerRound * kQueryRounds;
constexpr size_t kMinFuzzyKey = 9;  // keys long enough to trim two bytes each side
constexpr size_t kAuditsPerBatch = 2;

// monitor-ingest. No traffic in the repo gives an ingest cadence; these
// are assumptions, with their reasons in the README.
constexpr size_t kBaseEntries = 2048;
constexpr size_t kBatchEntries = 128;
constexpr size_t kBatches = 32;
constexpr size_t kRefreshEvery = 4;
constexpr size_t kQueriesPerBatch = 32;
constexpr size_t kReopens = 3;
constexpr double kIngestScale = 5000.0;  // ~7k signed certificates

// A pattern no generated host name or subject attribute contains: the
// generator draws lower-case words and never emits "zqx" runs or the
// .invalid TLD, and every run verifies this against all derived keys.
std::string miss_pattern(uint64_t seed, size_t j) {
    return "zqxzqx" + std::to_string(seed % 100000) + "-" + std::to_string(j) +
           ".absent.invalid";
}

// A host whose A-label is not a valid U-label: "xn--ls8h" decodes to an
// emoji, a code point IDNA2008 disallows.
std::string bad_ulabel_pattern(size_t j) {
    return "xn--ls8h.zqx" + std::to_string(j) + ".invalid";
}

std::string unicode_pattern(size_t j) {
    return "b\xc3\xbc" "cher" + std::to_string(j) + ".example";
}

std::vector<Bytes> signed_leaves(uint64_t seed, double scale, size_t count, Result& result) {
    ctlog::CorpusOptions options;
    options.seed = seed;
    options.scale = scale;
    options.sign_certificates = true;
    std::vector<ctlog::CorpusCert> corpus = ctlog::CorpusGenerator(options).generate();
    std::vector<Bytes> leaves;
    for (ctlog::CorpusCert& c : corpus) {
        if (leaves.size() == count) break;
        if (!c.cert.der.empty()) leaves.push_back(std::move(c.cert.der));
    }
    if (leaves.size() < count) {
        result.fail_check("signed corpus gave " + std::to_string(leaves.size()) + " leaves, need " +
                          std::to_string(count));
    }
    return leaves;
}

// One store on a MemFs, optionally seen through the counting decorator,
// with the query service over it and the reference tree beside it.
struct Rig {
    explicit Rig(bool counting) {
        if (counting) counter = std::make_unique<CountingFs>(memfs);
        fs = counter ? static_cast<core::Fs*>(counter.get()) : &memfs;
    }

    bool open(Result& result) {
        ctlog::store::StoreOptions options;
        options.create_if_missing = true;
        auto opened = Store::open(*fs, kStoreDir, options);
        if (!opened.ok()) {
            result.fail_check("store open: " + opened.error().code);
            return false;
        }
        store = std::move(*opened);
        service = std::make_unique<QueryService>(*fs, *store);
        return true;
    }

    // Appends leaves [from, to) through the service, feeding the
    // reference too. False (and one failed operation) on an ingest error.
    bool ingest(const std::vector<Bytes>& leaves, size_t from, size_t to, Result& result,
                double* seconds = nullptr) {
        std::vector<PendingEntry> batch;
        for (size_t i = from; i < to; ++i) {
            PendingEntry e;
            e.leaf_der = leaves[i];
            e.timestamp = static_cast<int64_t>(i);
            batch.push_back(std::move(e));
        }
        double t0 = mono_s();
        Status st = service->ingest(batch);
        if (seconds != nullptr) *seconds = mono_s() - t0;
        ++result.attempted;
        if (!st.ok()) {
            ++result.failed;
            result.notes.push_back("ingest failed: " + st.error().code);
            return false;
        }
        for (size_t i = from; i < to; ++i) reference.add_leaf(leaves[i].data(), leaves[i].size());
        return true;
    }

    core::MemFs memfs;
    std::unique_ptr<CountingFs> counter;
    core::Fs* fs = nullptr;
    std::unique_ptr<Store> store;
    std::unique_ptr<QueryService> service;
    RefTree reference;
};

// Store head, one consistency proof from the previous head, and sampled
// audit proofs, all against the reference.
void check_against_reference(Rig& rig, size_t prev_size, const RefDigest& prev_head,
                             ctlog::Rng& rng, size_t audits, Result& result) {
    const size_t size = rig.store->size();
    const RefDigest head = rig.reference.root();
    if (auto e = check_head(rig.store->tree_head(), head)) result.fail_check(*e);
    if (prev_size > 0 && prev_size < size) {
        auto proof = rig.store->tree().consistency_proof(prev_size, size);
        if (!proof.ok()) {
            result.fail_check("consistency proof refused: " + proof.error().code);
        } else if (auto e = check_consistency(prev_size, size, prev_head, head, *proof)) {
            result.fail_check(*e);
        }
    }
    for (size_t k = 0; k < audits; ++k) {
        size_t index = prev_size + rng.below(size - prev_size);
        auto proof = rig.store->tree().audit_proof(index, size);
        if (!proof.ok()) {
            result.fail_check("audit proof refused: " + proof.error().code);
        } else if (auto e = check_inclusion(rig.reference.leaf(index), index, size, *proof, head)) {
            result.fail_check(*e);
        }
    }
}

// The first key `profile` derives from `leaf` that the profile accepts
// as a query; empty when there is none.
std::string accepted_key(const MonitorProfile& profile, const Bytes& leaf, ctlog::Rng& rng) {
    auto cert = x509::parse_certificate(leaf);
    if (!cert.ok() || cert->is_precertificate()) return {};
    ctlog::index::DerivedRecord record = ctlog::index::derive_record(profile.caps, *cert);
    if (record.hidden || record.keys.empty()) return {};
    size_t start = rng.below(record.keys.size());
    for (size_t k = 0; k < record.keys.size(); ++k) {
        const std::string& key = record.keys[(start + k) % record.keys.size()];
        if (!ctlog::index::validate_query(profile.caps, key)) return key;
    }
    return {};
}

// Per-layer spans around the calls QueryService::query makes, taken by
// the traced run before each query.
struct LayerSpans {
    Samples validate_us, fold_us, validity_us, root_at_us;

    void pattern(const MonitorProfile& profile, const std::string& pattern) {
        double t0 = mono_s();
        auto rejection = ctlog::index::validate_query(profile.caps, pattern);
        double t1 = mono_s();
        validate_us.add((t1 - t0) * 1e6);
        if (rejection) return;
        (void)ctlog::index::fold(profile.caps, pattern);
        fold_us.add((mono_s() - t1) * 1e6);
    }

    void validity(const Rig& rig) {
        auto generation = rig.service->pin();
        if (!generation) return;
        double t0 = mono_s();
        (void)ctlog::index::generation_valid_for(*rig.store, *generation);
        double t1 = mono_s();
        (void)rig.store->tree().root_at(generation->basis_size);
        double t2 = mono_s();
        validity_us.add((t1 - t0) * 1e6);
        root_at_us.add((t2 - t1) * 1e6);
    }
};

enum class Kind { kExact, kFuzzy, kMiss, kRejected, kSpecial };

struct PlannedQuery {
    const MonitorProfile* profile;
    Kind kind;
    std::string pattern;
    size_t id = 0;          // entry the key came from (exact / fuzzy)
    bool must_hit = false;  // the answer must contain `id`
    bool expect_rejected = false;
    uint8_t mask = 0;       // special_unicode field mask
};

ServedQuery serve(Rig& rig, const PlannedQuery& q, bool use_index) {
    QueryService::Options options;
    options.use_index = use_index;
    if (q.kind == Kind::kSpecial) return rig.service->special_unicode(*q.profile, q.mask, options);
    return rig.service->query(*q.profile, q.pattern, options);
}

Check check_answer(const PlannedQuery& q, const ServedQuery& served) {
    if (q.expect_rejected) return check_rejected(served);
    switch (q.kind) {
        case Kind::kExact:
        case Kind::kFuzzy:
            return q.must_hit ? check_exact_hit(served, q.id) : std::nullopt;
        case Kind::kMiss:
        case Kind::kRejected:
            return check_miss(served);
        case Kind::kSpecial:
            return std::nullopt;
    }
    return std::nullopt;
}

// The five profiles' query rounds for monitor-query. Pools of exact keys
// are harvested from seeded positions; each key is also asked as its
// inner substring (the fuzzy path); misses, refused patterns and masks
// are fixed per slot.
std::vector<std::vector<PlannedQuery>> plan_rounds(const std::vector<Bytes>& leaves, uint64_t seed,
                                                   Result& result) {
    auto profiles = ctlog::monitor_profiles();
    ctlog::Rng rng(mix_seed(seed, 20));
    struct Pooled {
        std::string key;
        size_t id;
    };
    std::vector<std::vector<Pooled>> pools(profiles.size());
    for (size_t p = 0; p < profiles.size(); ++p) {
        for (size_t tries = 0; pools[p].size() < kPoolPerProfile && tries < 50 * kPoolPerProfile;
             ++tries) {
            size_t id = rng.below(leaves.size());
            std::string key = accepted_key(profiles[p], leaves[id], rng);
            if (key.size() >= kMinFuzzyKey) pools[p].push_back({key, id});
        }
        if (pools[p].size() < kPoolPerProfile) {
            result.fail_check("could not harvest exact keys for " + profiles[p].name);
            return {};
        }
    }

    // Every miss pattern must be absent from every derived key.
    std::vector<std::string> misses;
    for (size_t j = 0; j < kPoolPerProfile; ++j) misses.push_back(miss_pattern(seed, j));
    misses.push_back("zqxzqx");
    for (size_t j = 0; j < kPoolPerProfile; ++j) misses.push_back(bad_ulabel_pattern(j));
    for (const Bytes& leaf : leaves) {
        auto cert = x509::parse_certificate(leaf);
        if (!cert.ok()) continue;
        for (const MonitorProfile& profile : profiles) {
            for (const std::string& key : ctlog::index::derive_record(profile.caps, *cert).keys) {
                for (const std::string& miss : misses) {
                    if (key.find(ctlog::index::fold(profile.caps, miss)) != std::string::npos) {
                        result.fail_check("miss pattern " + miss + " occurs in key " + key);
                        return {};
                    }
                }
            }
        }
    }
    std::vector<std::vector<PlannedQuery>> rounds;
    for (size_t r = 0; r < kQueryRounds; ++r) {
        std::vector<PlannedQuery> round;
        for (size_t p = 0; p < profiles.size(); ++p) {
            const MonitorProfile& profile = profiles[p];
            const auto& pool = pools[p];
            for (size_t j = 0; j < kExactPerRound; ++j) {
                const Pooled& e = pool[r * kExactPerRound + j];
                round.push_back({&profile, Kind::kExact, e.key, e.id, true, false, 0});
                std::string needle = e.key.substr(2, e.key.size() - 4);
                // Only a fuzzy profile must find the entry by a substring.
                bool hit = profile.caps.fuzzy_search &&
                           !ctlog::index::validate_query(profile.caps, needle);
                round.push_back({&profile, Kind::kFuzzy, needle, e.id, hit, false, 0});
            }
            round.push_back({&profile, Kind::kMiss, miss_pattern(seed, r), 0, false, false, 0});
            round.push_back({&profile, Kind::kRejected, unicode_pattern(r), 0, false,
                             !profile.caps.unicode_search, 0});
            round.push_back({&profile, Kind::kRejected, bad_ulabel_pattern(r), 0, false,
                             !profile.caps.punycode_idn || profile.caps.ulabel_check, 0});
            round.push_back({&profile, Kind::kSpecial, "", 0, false, false,
                             uint8_t(1u << (r % 4))});
        }
        rounds.push_back(std::move(round));
    }
    return rounds;
}

const char* kind_metric(Kind kind, bool rejected) {
    if (rejected) return "query.rejected_us";
    switch (kind) {
        case Kind::kExact: return "query.exact_us";
        case Kind::kFuzzy: return "query.fuzzy_us";
        case Kind::kMiss: return "query.miss_us";
        case Kind::kRejected: return "query.miss_us";
        case Kind::kSpecial: return "query.special_unicode_us";
    }
    return "query.exact_us";
}

}  // namespace

void run_monitor_query(const Args& args, Result& result) {
    std::vector<Bytes> leaves =
        signed_leaves(mix_seed(args.seed, 2), kQueryScale, kQueryEntries, result);
    if (!result.correct) return;

    Rig rig(args.trace);
    if (!rig.open(result)) return;
    ctlog::Rng rng(mix_seed(args.seed, 21));
    size_t prev_size = 0;
    RefDigest prev_head{};
    for (size_t from = 0; from < leaves.size(); from += kAppendBatch) {
        if (!rig.ingest(leaves, from, std::min(from + kAppendBatch, leaves.size()), result)) return;
        check_against_reference(rig, prev_size, prev_head, rng, kAuditsPerBatch, result);
        prev_size = rig.store->size();
        prev_head = rig.reference.root();
    }

    if (!rig.service->refresh().ok()) result.fail_check("index refresh failed");

    auto rounds = plan_rounds(leaves, args.seed, result);
    if (!result.correct) return;
    end_setup(args, result);

    Samples latency_ms, raw_latency_ms;
    std::map<std::string, Samples> by_kind_us;
    LayerSpans spans;
    size_t round = 0;
    const double start = mono_s();
    double speed = SpeedProbe::read();
    do {
        for (const PlannedQuery& q : rounds[round % rounds.size()]) {
            if (args.trace) {
                if (q.kind != Kind::kSpecial) spans.pattern(*q.profile, q.pattern);
                if (!q.expect_rejected) spans.validity(rig);
            }
            double t0 = mono_s();
            ServedQuery served = serve(rig, q, true);
            double elapsed = mono_s() - t0;
            const double speed_after = SpeedProbe::read();
            latency_ms.add(elapsed * SpeedProbe::scale(speed, speed_after) * 1e3);
            raw_latency_ms.add(elapsed * 1e3);
            speed = speed_after;
            by_kind_us[kind_metric(q.kind, q.expect_rejected)].add(elapsed * 1e6);
            ++result.attempted;
            if (auto e = check_answer(q, served)) {
                ++result.failed;
                result.fail_check(q.profile->name + " '" + q.pattern + "': " + *e);
            }
        }
        ++round;
    } while (mono_s() - start < args.seconds);

    // Index and scan rungs agree on a sample: per profile, the first
    // exact, fuzzy and special-Unicode query of the first round.
    std::set<std::pair<const MonitorProfile*, Kind>> sampled;
    for (const PlannedQuery& q : rounds[0]) {
        if (q.kind == Kind::kMiss || q.kind == Kind::kRejected) continue;
        if (!sampled.insert({q.profile, q.kind}).second) continue;
        if (auto e = check_rungs_agree(serve(rig, q, true), serve(rig, q, false))) {
            result.fail_check(q.profile->name + " '" + q.pattern + "': " + *e);
        }
    }

    result.notes.push_back(std::string(args.trace ? "traced: " : "") + "monitor-query: " +
                           std::to_string(latency_ms.size()) + " queries in " +
                           std::to_string(round) + " rounds, ops_per_s " +
                           std::to_string(double(latency_ms.size()) / (latency_ms.sum() / 1e3)));
    if (!args.trace) {
        // An operation and a request are both one query.
        report_end_to_end(result, double(latency_ms.size()) / (latency_ms.sum() / 1e3),
                          double(raw_latency_ms.size()) / (raw_latency_ms.sum() / 1e3), latency_ms,
                          raw_latency_ms);
        return;
    }
    result.metric("index.validate_us", spans.validate_us.median(), "us");
    result.metric("index.fold_us", spans.fold_us.median(), "us");
    result.metric("index.validity_us", spans.validity_us.median(), "us");
    result.metric("merkle.root_at_us", spans.root_at_us.median(), "us");
    for (const auto& [name, samples] : by_kind_us) result.metric(name, samples.median(), "us");
}

void run_monitor_ingest(const Args& args, Result& result) {
    const size_t total = kBaseEntries + kBatches * kBatchEntries;
    std::vector<Bytes> leaves = signed_leaves(mix_seed(args.seed, 3), kIngestScale, total, result);
    if (!result.correct) return;
    auto profiles = ctlog::monitor_profiles();
    end_setup(args, result);

    // Speed-scaled samples, then the same unscaled. The writer's rate is
    // a cycle's ingested entries over the time it spent appending them,
    // refreshing the index and reopening the store.
    Samples writer_rate, latency_ms;
    Samples raw_writer_rate, raw_latency_ms;
    Samples append_us, fsyncs, bytes_per_entry, build_s, publish_ms, load_ms, scan_us,
        tail_scanned, recovery_per_10k;
    ctlog::Rng rng(mix_seed(args.seed, 31));
    size_t cycles = 0;
    const double start = mono_s();
    do {
        Rig rig(args.trace);
        if (!rig.open(result)) return;
        for (size_t from = 0; from < kBaseEntries; from += kAppendBatch) {
            if (!rig.ingest(leaves, from, from + kAppendBatch, result)) return;
        }
        check_against_reference(rig, 0, {}, rng, 0, result);
        if (!rig.service->refresh().ok()) result.fail_check("index refresh failed");

        std::string last_key;
        const MonitorProfile* last_profile = nullptr;
        double writer_s = 0, raw_writer_s = 0;
        for (size_t b = 0; b < kBatches; ++b) {
            const size_t from = kBaseEntries + b * kBatchEntries;
            const size_t prev_size = rig.store->size();
            const RefDigest prev_head = rig.reference.root();
            CountingFs::Counts c0 = rig.counter ? rig.counter->counts() : CountingFs::Counts{};
            double speed = SpeedProbe::read();
            double seconds = 0;
            if (!rig.ingest(leaves, from, from + kBatchEntries, result, &seconds)) return;
            double speed_after = SpeedProbe::read();
            writer_s += seconds * SpeedProbe::scale(speed, speed_after);
            raw_writer_s += seconds;
            speed = speed_after;
            if (rig.counter) {
                CountingFs::Counts c1 = rig.counter->counts();
                append_us.add(seconds / double(kBatchEntries) * 1e6);
                fsyncs.add(double(c1.fsyncs - c0.fsyncs));
                bytes_per_entry.add(double(c1.bytes - c0.bytes) / double(kBatchEntries));
            }
            // Keys of entries this batch added: only the tail scan has them.
            size_t asked = 0;
            for (size_t k = 0; k < kBatchEntries && asked < kQueriesPerBatch; ++k) {
                const MonitorProfile& profile = profiles[(b + asked) % profiles.size()];
                const size_t id = from + (k * 37) % kBatchEntries;
                std::string key = accepted_key(profile, leaves[id], rng);
                if (key.empty()) continue;
                double t0 = mono_s();
                ServedQuery served = rig.service->query(profile, key);
                const double elapsed = mono_s() - t0;
                speed_after = SpeedProbe::read();
                latency_ms.add(elapsed * SpeedProbe::scale(speed, speed_after) * 1e3);
                raw_latency_ms.add(elapsed * 1e3);
                speed = speed_after;
                tail_scanned.add(double(served.tail_scanned));
                ++result.attempted;
                if (auto e = check_exact_hit(served, id)) {
                    ++result.failed;
                    result.fail_check(profile.name + " '" + key + "': " + *e);
                }
                last_key = key;
                last_profile = &profile;
                ++asked;
            }

            check_against_reference(rig, prev_size, prev_head, rng, 1, result);

            if ((b + 1) % kRefreshEvery == 0) {
                if (args.trace) {
                    uint64_t epoch = ctlog::index::next_epoch(*rig.fs, rig.store->dir());
                    double t0 = mono_s();
                    auto generation = ctlog::index::build_index(*rig.store, epoch);
                    double t1 = mono_s();
                    Status published =
                        ctlog::index::publish_index(*rig.fs, rig.store->dir(), generation);
                    double t2 = mono_s();
                    auto loaded = ctlog::index::load_latest(*rig.fs, *rig.store);
                    double t3 = mono_s();
                    if (!published.ok() || !loaded) result.fail_check("index publish/load failed");
                    build_s.add(t1 - t0);
                    publish_ms.add((t2 - t1) * 1e3);
                    load_ms.add((t3 - t2) * 1e3);
                }
                const double refresh_speed = SpeedProbe::read();
                double t0 = mono_s();
                Status refreshed = rig.service->refresh();
                double elapsed = mono_s() - t0;
                writer_s += elapsed * SpeedProbe::scale(refresh_speed, SpeedProbe::read());
                raw_writer_s += elapsed;
                if (!refreshed.ok()) result.fail_check("index refresh failed");
            }
        }

        // The index and scan rungs agree on the last key asked.
        if (last_profile != nullptr) {
            ServedQuery indexed = rig.service->query(*last_profile, last_key);
            double t0 = mono_s();
            ServedQuery scanned = rig.service->query(*last_profile, last_key, {.use_index = false});
            scan_us.add((mono_s() - t0) * 1e6 / double(rig.store->size()));
            if (auto e = check_rungs_agree(indexed, scanned)) result.fail_check(*e);
        }

        // Reopen the store image, as a restarted process would.
        const size_t size = rig.store->size();
        const RefDigest head = rig.reference.root();
        rig.service.reset();
        rig.store.reset();
        for (size_t k = 0; k < kReopens; ++k) {
            const double reopen_speed = SpeedProbe::read();
            double t0 = mono_s();
            auto reopened = Store::open(*rig.fs, kStoreDir);
            double elapsed = mono_s() - t0;
            writer_s += elapsed * SpeedProbe::scale(reopen_speed, SpeedProbe::read());
            raw_writer_s += elapsed;
            if (!reopened.ok()) {
                result.fail_check("reopen failed: " + reopened.error().code);
                break;
            }
            recovery_per_10k.add(elapsed * 1e3 / double(size) * 1e4);
            if (auto e = check_reopen((*reopened)->size(), (*reopened)->tree_head(), size, head)) {
                result.fail_check(*e);
            }
        }
        writer_rate.add(double(kBatches * kBatchEntries) / writer_s);
        raw_writer_rate.add(double(kBatches * kBatchEntries) / raw_writer_s);
        ++cycles;
    } while (mono_s() - start < args.seconds);

    result.notes.push_back(std::string(args.trace ? "traced: " : "") + "monitor-ingest: " +
                           std::to_string(cycles) + " cycles, " +
                           std::to_string(latency_ms.size()) + " queries, latency_p50_ms " +
                           std::to_string(latency_ms.median()));
    if (!args.trace) {
        // An operation is one ingested entry; a request is one tail query.
        report_end_to_end(result, writer_rate.median(), raw_writer_rate.median(), latency_ms,
                          raw_latency_ms);
        return;
    }
    result.metric("store.append_us_per_entry", append_us.median(), "us");
    result.metric("store.fsyncs_per_batch", fsyncs.median(), "count");
    result.metric("store.bytes_written_per_entry", bytes_per_entry.median(), "bytes");
    result.metric("store.recovery_ms_per_10k", recovery_per_10k.median(), "ms");
    result.metric("index.build_s", build_s.median(), "s");
    result.metric("index.publish_ms", publish_ms.median(), "ms");
    result.metric("index.load_ms", load_ms.median(), "ms");
    result.metric("index.scan_us_per_entry", scan_us.median(), "us");
    result.metric("query.tail_scanned", tail_scanned.mean(), "count");
}

}  // namespace perfbench
