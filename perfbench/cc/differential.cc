// differential: the Table 4/5 library decoding sweep under the
// Supervisor, a seeded fuzzing Campaign over the built-in library models,
// and the BER axis of the DER mutator, all at one job on a ManualClock.
// The only workload that exercises asn1's tolerant walker, tlslib,
// faultsim and difffuzz.
#include <array>

#include "asn1/encoding.h"
#include "checks.h"
#include "core/resilience.h"
#include "crypto/simsig.h"
#include "ctlog/corpus.h"
#include "difffuzz/campaign/campaign.h"
#include "faultsim/der_mutator.h"
#include "tlslib/encoding_profile.h"
#include "tlslib/supervisor.h"
#include "workloads.h"
#include "x509/builder.h"

namespace perfbench {

using namespace unicert;
using tlslib::Library;

namespace {

constexpr double kBaseScale = 1000000.0;  // about 35 base certificates
constexpr uint64_t kCampaignEvals = 1024;  // mutated inputs per campaign
constexpr uint64_t kBerSalts = 3;         // berize placements per (base, rule)
constexpr uint64_t kMutantsPerBase = 8;   // ber-axis mutate() calls per base
constexpr size_t kBasesPerReading = 4;     // BER bases between speed readings

// Signed bases for the BER axis, plus a keyUsage carrier with padded
// bits (generated keyUsage values have none).
std::vector<Bytes> ber_bases(uint64_t seed) {
    ctlog::CorpusOptions options;
    options.seed = seed;
    options.scale = kBaseScale;
    std::vector<ctlog::CorpusCert> corpus = ctlog::CorpusGenerator(options).generate();
    crypto::SimSigner signer = crypto::SimSigner::from_name("perfbench BER CA");
    std::vector<Bytes> bases;
    for (ctlog::CorpusCert& c : corpus) bases.push_back(x509::sign_certificate(c.cert, signer));
    if (!corpus.empty()) {
        x509::Certificate padded = corpus.front().cert;
        padded.extensions.push_back(
            x509::Extension{asn1::oids::key_usage(), true, Bytes{0x03, 0x02, 0x05, 0xA0}});
        bases.push_back(x509::sign_certificate(padded, signer));
    }
    return bases;
}

struct CampaignRun {
    difffuzz::campaign::CampaignState state;
    difffuzz::campaign::CampaignReport report;
    uint64_t bytes_written = 0;
};

CampaignRun run_campaign(uint64_t seed, size_t jobs, bool count_writes) {
    core::MemFs memfs;
    CountingFs counting(memfs);
    core::Fs& fs = count_writes ? static_cast<core::Fs&>(counting) : memfs;
    core::ManualClock clock;
    difffuzz::CrashCorpus corpus("camp/corpus", &fs);
    difffuzz::campaign::CheckpointStore store(fs, "camp");
    difffuzz::campaign::CampaignOptions options;
    options.seed = seed;
    options.jobs = jobs;
    options.max_evals = kCampaignEvals;
    difffuzz::campaign::Campaign campaign(options, corpus, store, tlslib::builtin_model(), clock);
    CampaignRun run;
    Status started = campaign.start_fresh();
    if (!started.ok()) {
        run.report.io = started;
        return run;
    }
    run.report = campaign.run();
    run.state = campaign.state();
    run.bytes_written = counting.counts().bytes;
    return run;
}

// Per-layer samples of the traced run.
struct Spans {
    std::array<Samples, tlslib::kAllLibraries.size()> eval_us;
    Samples normalize_us, mutate_us, bytes_per_eval, buckets_per_1k;
};

struct Inputs {
    uint64_t campaign_seed;
    std::vector<Bytes> bases;
    faultsim::DerMutator mutator;
    std::vector<tlslib::Scenario> scenarios;
};

// Table 5 rows 1-4 (illegal characters); rows 5-10 are the escaping
// cells, one per (dialect, context).
constexpr std::pair<asn1::StringType, tlslib::FieldContext> kCharRows[] = {
    {asn1::StringType::kPrintableString, tlslib::FieldContext::kDnName},
    {asn1::StringType::kIa5String, tlslib::FieldContext::kDnName},
    {asn1::StringType::kBmpString, tlslib::FieldContext::kDnName},
    {asn1::StringType::kIa5String, tlslib::FieldContext::kGeneralName},
};

// SpeedProbe readings taken inside a round, so that a slow stretch of
// the host shorter than a round is seen; their own time is kept apart.
struct RoundSpeed {
    Samples readings;
    double probe_s = 0;

    void read() {
        const double t0 = mono_s();
        readings.add(SpeedProbe::read());
        probe_s += mono_s() - t0;
    }
};

// One round: the supervised sweep, one campaign, the BER axis. Returns
// the library evaluations it made; `spans` is null when untraced.
uint64_t run_round(const Inputs& in, Result& result, Spans* spans, RoundSpeed& speed) {
    uint64_t evals = 0;
    core::ManualClock clock;
    tlslib::Supervisor supervisor(tlslib::builtin_model(), {}, clock);
    auto harness_error = [&](tlslib::EvalOutcome outcome, const std::string& detail) {
        if (!tlslib::eval_outcome_quarantines(outcome)) return;
        ++result.failed;
        result.notes.push_back("harness error: " + detail);
    };

    // Table 4 cells, then Table 5 rows, per library.
    for (size_t l = 0; l < tlslib::kAllLibraries.size(); ++l) {
        const Library lib = tlslib::kAllLibraries[l];
        const double t0 = mono_s();
        size_t lib_evals = 0;
        for (const tlslib::Scenario& scenario : in.scenarios) {
            auto cell = supervisor.evaluate(lib, scenario);
            harness_error(cell.outcome, cell.detail);
            ++lib_evals;
        }
        for (const auto& [type, ctx] : kCharRows) {
            auto cell = supervisor.evaluate_illegal_char(lib, type, ctx);
            harness_error(cell.outcome, cell.detail);
            ++lib_evals;
        }
        for (x509::DnDialect standard :
             {x509::DnDialect::kRfc2253, x509::DnDialect::kRfc4514, x509::DnDialect::kRfc1779}) {
            for (tlslib::FieldContext ctx :
                 {tlslib::FieldContext::kDnName, tlslib::FieldContext::kGeneralName}) {
                auto cell = supervisor.evaluate_escaping(lib, ctx, standard);
                harness_error(cell.outcome, cell.detail);
                ++lib_evals;
            }
        }
        if (spans != nullptr) spans->eval_us[l].add((mono_s() - t0) / double(lib_evals) * 1e6);
        evals += lib_evals;
        result.attempted += lib_evals;
    }
    speed.read();

    // The fuzzing campaign at one job.
    CampaignRun campaign = run_campaign(in.campaign_seed, 1, spans != nullptr);
    evals += campaign.state.evals;
    result.attempted += campaign.report.inputs;
    result.failed += campaign.report.quarantined;
    if (!campaign.report.io.ok()) {
        ++result.failed;
        result.notes.push_back("campaign I/O: " + campaign.report.io.error().code);
    }
    speed.read();
    if (spans != nullptr && campaign.state.evals > 0) {
        spans->bytes_per_eval.add(double(campaign.bytes_written) / double(campaign.state.evals));
        spans->buckets_per_1k.add(double(campaign.report.new_buckets) * 1000.0 /
                                  double(campaign.state.evals));
    }

    // The BER axis: every rule's berize placements and ber-axis mutate()
    // draws. Berized mutants the tolerant walker accepts must normalize
    // to their base; every library parses every mutant.
    double t_mutate = 0, t_normalize = 0;
    size_t mutations = 0, normalizations = 0;
    for (size_t b = 0; b < in.bases.size(); ++b) {
        const Bytes& base = in.bases[b];
        if (b % kBasesPerReading == kBasesPerReading - 1) speed.read();
        std::vector<Bytes> mutants;
        for (asn1::EncodingRule rule : asn1::kAllBerRules) {
            for (uint64_t salt = 0; salt < kBerSalts; ++salt) {
                double t0 = mono_s();
                auto mutant = in.mutator.berize(rule, base, salt);
                t_mutate += mono_s() - t0;
                ++mutations;
                if (mutant) mutants.push_back(std::move(*mutant));
            }
        }
        const size_t berized = mutants.size();
        // The mutation kind depends on the salt alone, so each base
        // draws its own salts: a round then covers many kinds, not the
        // same few for every base.
        for (uint64_t k = 0; k < kMutantsPerBase; ++k) {
            const uint64_t salt = b * kMutantsPerBase + k;
            double t0 = mono_s();
            mutants.push_back(in.mutator.mutate(base, salt));
            t_mutate += mono_s() - t0;
            ++mutations;
        }
        for (size_t m = 0; m < mutants.size(); ++m) {
            double t0 = mono_s();
            auto normalized = asn1::normalize_to_der(mutants[m], asn1::kToleranceAllBer);
            t_normalize += mono_s() - t0;
            ++normalizations;
            ++result.attempted;
            if (m < berized && normalized.ok()) {
                if (auto e = check_ber_roundtrip(normalized->der, base)) result.fail_check(*e);
            }
            for (Library lib : tlslib::kAllLibraries) {
                (void)tlslib::parse_encoding(lib, mutants[m]);
                ++evals;
            }
        }
    }
    if (spans != nullptr) {
        spans->mutate_us.add(t_mutate / double(mutations) * 1e6);
        spans->normalize_us.add(t_normalize / double(normalizations) * 1e6);
    }
    return evals;
}

}  // namespace

void run_differential(const Args& args, Result& result) {
    const Inputs in{mix_seed(args.seed, 40), ber_bases(mix_seed(args.seed, 41)),
                    faultsim::DerMutator(mix_seed(args.seed, 42), /*ber_axis=*/true),
                    tlslib::Supervisor::table4_scenarios()};

    // One round warms the models' lazy state; it belongs to set-up, and
    // only its check failures are kept.
    Result warm_up;
    RoundSpeed warm_up_speed;
    (void)run_round(in, warm_up, nullptr, warm_up_speed);
    for (const std::string& e : warm_up.errors) result.fail_check(e);
    end_setup(args, result);

    Samples evals_per_s, raw_evals_per_s, round_ms, raw_round_ms;
    Spans spans;
    const double start = mono_s();
    double speed = SpeedProbe::read();
    do {
        // A round is scaled by the mean of the readings before, inside
        // and after it; the time of the readings inside is not counted.
        RoundSpeed round_speed;
        round_speed.readings.add(speed);
        const double t0 = mono_s();
        uint64_t evals = run_round(in, result, args.trace ? &spans : nullptr, round_speed);
        const double seconds = mono_s() - t0 - round_speed.probe_s;
        const double speed_after = SpeedProbe::read();
        round_speed.readings.add(speed_after);
        const double scaled = seconds * SpeedProbe::scale(round_speed.readings.mean());
        raw_evals_per_s.add(double(evals) / seconds);
        evals_per_s.add(double(evals) / scaled);
        raw_round_ms.add(seconds * 1e3);
        round_ms.add(scaled * 1e3);
        speed = speed_after;
    } while (mono_s() - start < args.seconds);

    // The campaign's final state is the same at one and at two jobs.
    CampaignRun one = run_campaign(in.campaign_seed, 1, false);
    CampaignRun two = run_campaign(in.campaign_seed, 2, false);
    if (auto e = check_campaign_parity(one.state, two.state)) result.fail_check(*e);

    result.notes.push_back(std::string(args.trace ? "traced: " : "") + "differential: " +
                           std::to_string(evals_per_s.size()) + " rounds, ops_per_s " +
                           std::to_string(evals_per_s.median()) + " (unscaled " +
                           std::to_string(raw_evals_per_s.median()) + ")");
    if (!args.trace) {
        // An operation is one library evaluation; a request is one round.
        report_end_to_end(result, evals_per_s.median(), raw_evals_per_s.median(), round_ms,
                          raw_round_ms);
        return;
    }
    for (size_t l = 0; l < tlslib::kAllLibraries.size(); ++l) {
        result.metric("tlslib.eval_us." + slug(tlslib::library_name(tlslib::kAllLibraries[l])),
                      spans.eval_us[l].median(), "us");
    }
    result.metric("asn1.normalize_us", spans.normalize_us.median(), "us");
    result.metric("faultsim.mutate_us", spans.mutate_us.median(), "us");
    result.metric("campaign.bytes_written_per_eval", spans.bytes_per_eval.median(), "bytes");
    result.metric("campaign.new_buckets_per_1k_evals", spans.buckets_per_1k.median(), "count");
}

}  // namespace perfbench
