// census: the paper's section 4 measurement, single client. A seeded,
// signed corpus is streamed as back-to-back DER through
// DerFileCertSource into ParallelPipeline at one job, and every table and
// figure accessor is read. x509, lint and aggregation do the work.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "checks.h"
#include "core/arena.h"
#include "core/parallel_pipeline.h"
#include "ctlog/corpus.h"
#include "lint/cert_view.h"
#include "workloads.h"
#include "x509/lazy.h"

namespace perfbench {

using namespace unicert;

namespace {

// Every run streams exactly this many certificates, so a round is the
// same number of operations whatever the seed (the generator's variant
// siblings make the full corpus size seed-dependent).
constexpr size_t kCensusCerts = 32768;
constexpr double kCensusScale = 1000.0;  // ~35k certificates before truncation
// Pipeline passes per layer pass in the traced run. A pass's ingestion
// time depends on where the scheduler puts the fetch thread and the
// worker (0.52 s or 0.85 s on the machine the benchmark was written on),
// so the traced run takes enough passes for its median to settle.
constexpr int kTracedPipelinePasses = 3;

// The ten rules that cost the most per certificate on the census corpus
// when the benchmark was written (see README); every other rule is
// reported together as lint.rule_us.rest.
constexpr const char* kTopRules[] = {
    "e_rfc_utf8_string_not_nfc",
    "e_rfc_dns_idn_a2u_unpermitted_unichar",
    "e_rfc_idn_unicode_not_nfc",
    "e_rfc_dns_idn_malformed_unicode",
    "e_dns_label_too_long",
    "e_cab_dns_bad_character_in_label",
    "e_issuer_common_name_not_printable_or_utf8",
    "e_dns_wildcard_not_leftmost",
    "e_dns_label_empty",
    "e_dns_name_too_long",
};

std::string path_in(const Args& args, const char* name) { return args.input_dir + "/" + name; }

const char* expected_lint_for(ctlog::DefectKind kind) {
    for (const ctlog::DefectSpec& spec : ctlog::defect_specs()) {
        if (spec.kind == kind) return spec.expected_lint;
    }
    return nullptr;
}

// The lint a planted defect must fire, or null. A defect planted in a
// certificate issued before its lint's effective date cannot fire it:
// the generator plants community-lint defects (in force from March 2016)
// in 2013-2015 certificates on some seeds (see CHANGES.md). Such a
// certificate is still linted, but expects no planted lint, so every
// seed checks the same operations.
const char* planted_lint(const ctlog::CorpusCert& c) {
    const char* lint = c.defect ? expected_lint_for(*c.defect) : nullptr;
    if (lint == nullptr) return nullptr;
    const lint::Rule* rule = lint::default_registry().find(lint);
    if (rule != nullptr && c.cert.validity.not_before < rule->info.effective_date) return nullptr;
    return lint;
}

bool write_corpus(const std::vector<ctlog::CorpusCert>& corpus, size_t count,
                  const std::string& der_path, const std::string& meta_path) {
    std::ofstream der(der_path, std::ios::binary);
    std::ofstream meta(meta_path);
    size_t not_in_force = 0;
    for (size_t i = 0; i < count; ++i) {
        const ctlog::CorpusCert& c = corpus[i];
        if (c.cert.der.empty()) return false;
        der.write(reinterpret_cast<const char*>(c.cert.der.data()),
                  static_cast<std::streamsize>(c.cert.der.size()));
        const char* lint = planted_lint(c);
        if (c.defect && lint == nullptr) ++not_in_force;
        meta << c.year << '\t' << (lint != nullptr ? lint : "-") << '\t' << c.issuer_org << '\n';
    }
    if (not_in_force > 0) {
        std::fprintf(stderr, "perfbench: %zu planted defects predate their lint's effective date\n",
                     not_in_force);
    }
    der.close();
    meta.close();
    return der.good() && meta.good();
}

std::vector<CertMeta> read_meta(const std::string& path) {
    std::vector<CertMeta> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        CertMeta m;
        std::string year, lint;
        std::getline(fields, year, '\t');
        std::getline(fields, lint, '\t');
        std::getline(fields, m.issuer_org);
        m.year = std::atoi(year.c_str());
        if (lint != "-") m.expected_lint = lint;
        out.push_back(std::move(m));
    }
    return out;
}

// Every table and figure the pipeline offers (Tables 1, 2, 3, 11; Figs
// 2, 3, 4), read the way a report would.
struct Tables {
    core::TaxonomyReport table1;
    std::vector<core::IssuerRow> table2;
    std::vector<core::VariantGroup> table3;
    std::vector<core::LintRow> table11;
    std::vector<core::YearRow> fig2;
    core::ValidityCdf fig3;
    core::FieldHeatmap fig4;
};

Tables read_tables(const core::CompliancePipeline& pipeline) {
    Tables t;
    const size_t all = std::numeric_limits<size_t>::max();
    t.table1 = pipeline.taxonomy_report();
    t.table2 = pipeline.issuer_report(all);
    t.table3 = pipeline.subject_variants();
    t.table11 = pipeline.top_lints(all);
    t.fig2 = pipeline.yearly_trend();
    t.fig3 = pipeline.validity_cdf();
    t.fig4 = pipeline.field_heatmap();
    return t;
}

// Pipeline options that take a speed reading on the pipeline's worker
// thread, where the parse and lint work runs: the progress hook runs
// there after each batch that crosses a multiple of kSpeedEvery.
constexpr size_t kSpeedEvery = 2048;

core::PipelineOptions worker_speed(Samples& readings) {
    core::PipelineOptions options;
    options.progress_interval = kSpeedEvery;
    options.progress = [&readings](size_t, size_t) { readings.add(SpeedProbe::read()); };
    return options;
}

core::ParallelOptions one_job() {
    core::ParallelOptions p;
    p.jobs = 1;
    return p;
}

// Times every DerFileCertSource::next the pipeline makes.
class TimedSource final : public core::CertSource {
public:
    explicit TimedSource(core::CertSource& inner) : inner_(&inner) {}
    size_t size_hint() const override { return inner_->size_hint(); }
    Expected<std::optional<core::CertEntry>> next() override {
        double t0 = mono_s();
        auto entry = inner_->next();
        seconds_ += mono_s() - t0;
        ++calls_;
        return entry;
    }
    double seconds() const noexcept { return seconds_; }
    size_t calls() const noexcept { return calls_; }

private:
    core::CertSource* inner_;
    double seconds_ = 0;
    size_t calls_ = 0;
};

struct Corpus {
    core::MappedPtr der;
    std::vector<CertMeta> meta;
};

bool load_corpus(const Args& args, const char* der_name, const char* meta_name, Corpus& out) {
    auto mapped = core::real_fs().map_readonly(path_in(args, der_name));
    if (!mapped.ok()) return false;
    out.der = std::move(*mapped);
    out.meta = read_meta(path_in(args, meta_name));
    return !out.meta.empty();
}

// Checks one pass over the seeded corpus. Its operations are the
// certificates (failed: quarantined or never reached) plus one
// comparison of Table 2's per-issuer and Fig 2's per-year totals with the
// generator's metadata (failed: they differ).
void check_pass(const Corpus& corpus, const core::ParallelPipeline& pipeline,
                const Tables& tables, Result& result, bool& metadata_noted) {
    const size_t n = corpus.meta.size();
    result.attempted += n + 1;
    result.failed += n - std::min(n, pipeline.stats().processed);
    if (!pipeline.stats().completed) return;
    if (auto e = check_planted_lints(corpus.meta, pipeline.analyzed())) result.fail_check(*e);
    if (auto e = check_total_certs(n, tables.table1)) result.fail_check(*e);
    if (auto e = check_table_sums(n, tables.table2, tables.fig2)) result.fail_check(*e);
    Check e = check_issuer_totals(corpus.meta, tables.table2);
    if (!e) e = check_year_totals(corpus.meta, tables.fig2);
    if (e) {
        ++result.failed;
        if (!metadata_noted) result.notes.push_back("metadata check failed: " + *e);
        metadata_noted = true;
    }
}

struct RuleCost {
    const lint::Rule* rule;
    double seconds = 0;
};

}  // namespace

int generate_census_inputs(const Args& args) {
    ctlog::CorpusOptions options;
    options.seed = mix_seed(args.seed, 1);
    options.scale = kCensusScale;
    options.sign_certificates = true;
    std::vector<ctlog::CorpusCert> corpus = ctlog::CorpusGenerator(options).generate();
    if (corpus.size() < kCensusCerts) {
        std::fprintf(stderr, "census corpus has %zu certificates, need %zu\n", corpus.size(),
                     kCensusCerts);
        return 1;
    }
    if (!write_corpus(corpus, kCensusCerts, path_in(args, "census.der"),
                      path_in(args, "census.meta"))) {
        return 1;
    }
    return 0;
}

void run_census(const Args& args, Result& result) {
    Corpus corpus;
    if (!load_corpus(args, "census.der", "census.meta", corpus)) {
        result.fail_check("census inputs missing or unreadable in " + args.input_dir);
        return;
    }
    const size_t n = corpus.meta.size();
    const BytesView der = corpus.der->view();
    const lint::Registry& registry = lint::default_registry();
    {
        // One untimed pass faults the corpus in and warms the pipeline's
        // lazy state; it belongs to set-up, so the first timed pass is
        // not a cold outlier.
        core::DerFileCertSource source(der);
        core::ParallelPipeline warm_up(source, {}, one_job());
        (void)read_tables(warm_up);
    }
    trim_heap();
    end_setup(args, result);

    Samples certs_per_s, raw_certs_per_s, pass_ms, raw_pass_ms;
    Samples index_us, fetch_us, lint_us, allocs, heap_bytes, ingest_s, aggregate_s, retained;
    std::vector<RuleCost> rule_costs;
    for (const lint::Rule& rule : registry.rules()) rule_costs.push_back({&rule});
    std::vector<Samples> rule_us(rule_costs.size());
    bool metadata_noted = false;

    const double start = mono_s();
    do {
        if (!args.trace) {
            // Ingestion is scaled by the worker's readings, aggregation
            // by readings on this thread, which runs it.
            Samples speed;
            double t0 = mono_s();
            core::DerFileCertSource source(der);
            core::ParallelPipeline pipeline(source, worker_speed(speed), one_job());
            const double ingest = mono_s() - t0;
            const double before = SpeedProbe::read();
            double t1 = mono_s();
            Tables tables = read_tables(pipeline);
            const double aggregate = mono_s() - t1;
            const double seconds = ingest + aggregate;
            const double scaled = ingest * SpeedProbe::scale(speed.mean()) +
                                  aggregate * SpeedProbe::scale(before, SpeedProbe::read());
            raw_certs_per_s.add(double(n) / seconds);
            certs_per_s.add(double(n) / scaled);
            raw_pass_ms.add(seconds * 1e3);
            pass_ms.add(scaled * 1e3);
            check_pass(corpus, pipeline, tables, result, metadata_noted);
        } else {
            // Layer pass: the calls the pipeline makes per certificate,
            // made and timed one by one.
            core::DerFileCertSource source(der);
            core::Arena arena;
            double t_index = 0, t_lint = 0;
            AllocCounts lint_allocs;
            std::vector<double> t_rule(rule_costs.size(), 0.0);
            for (;;) {
                auto entry = source.next();
                if (!entry.ok() || !entry->has_value()) break;
                core::ArenaScope scope(arena);
                double t0 = mono_s();
                auto lazy = x509::LazyCertificate::index((*entry)->bytes(), &arena);
                double t1 = mono_s();
                t_index += t1 - t0;
                if (!lazy.ok()) continue;
                AllocCounts a0 = alloc_counts();
                double t2 = mono_s();
                {
                    lint::CertReport report = lint::run_lints(*lazy, registry);
                    t_lint += mono_s() - t2;
                    AllocCounts a1 = alloc_counts();
                    lint_allocs.count += a1.count - a0.count;
                    lint_allocs.bytes += a1.bytes - a0.bytes;
                }
                lint::CertView view(*lazy);
                for (size_t r = 0; r < rule_costs.size(); ++r) {
                    const lint::Rule& rule = *rule_costs[r].rule;
                    if (lazy->validity().not_before < rule.info.effective_date) continue;
                    double r0 = mono_s();
                    (void)rule.check(view);
                    t_rule[r] += mono_s() - r0;
                }
            }
            index_us.add(t_index / double(n) * 1e6);
            lint_us.add(t_lint / double(n) * 1e6);
            allocs.add(double(lint_allocs.count) / double(n));
            heap_bytes.add(double(lint_allocs.bytes) / double(n));
            for (size_t r = 0; r < rule_costs.size(); ++r) {
                rule_us[r].add(t_rule[r] / double(n) * 1e6);
            }

            // Pipeline passes: fetch inside the pipeline, ingestion,
            // aggregation, and the memory the pipeline keeps.
            for (int k = 0; k < kTracedPipelinePasses; ++k) {
                trim_heap();
                size_t rss_before = rss_bytes();
                core::DerFileCertSource inner(der);
                TimedSource timed(inner);
                Samples speed;
                double t0 = mono_s();
                core::ParallelPipeline pipeline(timed, worker_speed(speed), one_job());
                double t1 = mono_s();
                size_t rss_after = rss_bytes();
                Tables tables = read_tables(pipeline);
                double t2 = mono_s();
                ingest_s.add(t1 - t0);
                aggregate_s.add(t2 - t1);
                raw_certs_per_s.add(double(n) / (t2 - t0));
                certs_per_s.add(double(n) / ((t2 - t0) * SpeedProbe::scale(speed.mean())));
                fetch_us.add(timed.seconds() / double(std::max<size_t>(timed.calls(), 1)) * 1e6);
                retained.add((double(rss_after) - double(rss_before)) / double(n));
                check_pass(corpus, pipeline, tables, result, metadata_noted);
            }
        }
        trim_heap();  // every pass starts from the same heap state
    } while (mono_s() - start < args.seconds);

    if (!args.trace) {
        // A request is one pass: the corpus in, every table and figure out.
        report_end_to_end(result, certs_per_s.median(), raw_certs_per_s.median(), pass_ms,
                          raw_pass_ms);
        result.notes.push_back("census: " + std::to_string(certs_per_s.size()) + " passes");
        return;
    }
    result.metric("x509.index_us", index_us.median(), "us");
    result.metric("pipeline.fetch_us", fetch_us.median(), "us");
    result.metric("lint.us_per_cert", lint_us.median(), "us");
    result.metric("lint.allocs_per_cert", allocs.median(), "count");
    result.metric("lint.heap_bytes_per_cert", heap_bytes.median(), "bytes");
    result.metric("pipeline.ingest_s", ingest_s.median(), "s");
    result.metric("pipeline.aggregate_s", aggregate_s.median(), "s");
    result.metric("pipeline.retained_bytes_per_cert", retained.median(), "bytes");
    double rest = 0;
    for (size_t r = 0; r < rule_costs.size(); ++r) {
        rule_costs[r].seconds = rule_us[r].median();
        const std::string& name = rule_costs[r].rule->info.name;
        bool top = std::find(std::begin(kTopRules), std::end(kTopRules), name) !=
                   std::end(kTopRules);
        if (top) {
            result.metric("lint.rule_us." + name, rule_costs[r].seconds, "us");
        } else {
            rest += rule_costs[r].seconds;
        }
    }
    result.metric("lint.rule_us.rest", rest, "us");
    result.notes.push_back("traced: census ops_per_s would read " +
                           std::to_string(certs_per_s.median()) + " (unscaled " +
                           std::to_string(raw_certs_per_s.median()) + ")");
    std::sort(rule_costs.begin(), rule_costs.end(),
              [](const RuleCost& a, const RuleCost& b) { return a.seconds > b.seconds; });
    std::string costliest = "costliest rules (us/cert):";
    for (size_t r = 0; r < rule_costs.size() && r < 15; ++r) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", rule_costs[r].seconds);
        costliest += " " + rule_costs[r].rule->info.name + "=" + buf;
    }
    result.notes.push_back(costliest);
}

}  // namespace perfbench
