// The benchmark's own tests: the RFC 6962 reference against known
// answers and against ctlog::MerkleTree, the counting Fs, and every
// correctness check both on a good result and on a corrupted one.
// Exit code 0 when all pass.
#include <cstdio>
#include <functional>
#include <map>

#include "checks.h"
#include "common.h"
#include "core/fs.h"
#include "ctlog/corpus.h"
#include "ctlog/merkle.h"
#include "lint/lint.h"

using namespace unicert;
using namespace perfbench;

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                               \
    do {                                                                           \
        if (!(cond)) {                                                             \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
            ++g_failures;                                                          \
        }                                                                          \
    } while (0)

// ---- fixtures ----------------------------------------------------------------

struct Tree {
    ctlog::MerkleTree program;
    RefTree reference;
    std::vector<RefDigest> heads;  // reference head per size
};

Tree make_tree(size_t n) {
    Tree t;
    t.heads.push_back(t.reference.root());
    for (size_t i = 0; i < n; ++i) {
        Bytes entry = {uint8_t(i), uint8_t(i >> 8), 0x5a};
        t.program.append(entry);
        t.reference.add_leaf(entry.data(), entry.size());
        t.heads.push_back(t.reference.root());
    }
    return t;
}

struct Census {
    std::vector<ctlog::CorpusCert> corpus;
    std::vector<CertMeta> meta;
    std::vector<core::AnalyzedCert> analyzed;
};

const Census& census() {
    static const Census c = [] {
        Census out;
        ctlog::CorpusOptions options;
        options.seed = 5;
        options.scale = 100000.0;
        out.corpus = ctlog::CorpusGenerator(options).generate();
        for (const ctlog::CorpusCert& cc : out.corpus) {
            CertMeta m;
            m.issuer_org = cc.issuer_org;
            m.year = cc.year;
            if (cc.defect) {
                for (const ctlog::DefectSpec& spec : ctlog::defect_specs()) {
                    if (spec.kind == *cc.defect) m.expected_lint = spec.expected_lint;
                }
            }
            out.meta.push_back(m);
            core::AnalyzedCert a;
            a.cert = &cc;
            a.report = lint::run_lints(cc.cert);
            a.noncompliant = a.report.noncompliant();
            out.analyzed.push_back(std::move(a));
        }
        return out;
    }();
    return c;
}

std::vector<core::IssuerRow> issuer_rows(std::span<const CertMeta> meta) {
    std::map<std::string, size_t> counts;
    for (const CertMeta& m : meta) ++counts[m.issuer_org];
    std::vector<core::IssuerRow> rows;
    for (const auto& [org, n] : counts) {
        core::IssuerRow row;
        row.organization = org;
        row.total = n;
        rows.push_back(row);
    }
    return rows;
}

std::vector<core::YearRow> year_rows(std::span<const CertMeta> meta) {
    std::map<int, size_t> counts;
    for (const CertMeta& m : meta) ++counts[m.year];
    std::vector<core::YearRow> rows;
    for (const auto& [year, n] : counts) {
        core::YearRow row;
        row.year = year;
        row.all = n;
        rows.push_back(row);
    }
    return rows;
}

ctlog::index::ServedQuery served(std::vector<size_t> ids, bool accepted = true) {
    ctlog::index::ServedQuery q;
    q.result.query_accepted = accepted;
    q.result.cert_ids = std::move(ids);
    return q;
}

// ---- tests -------------------------------------------------------------------

void reference_known_answers() { EXPECT(!ref_self_check()); }

void reference_matches_program_tree() {
    Tree t = make_tree(37);
    for (size_t n = 1; n <= 37; ++n) EXPECT(*t.program.root_at(n) == t.heads[n]);
}

void head_check_catches_flipped_root_byte() {
    Tree t = make_tree(10);
    RefDigest head = t.program.root();
    EXPECT(!check_head(head, t.heads[10]));
    head[7] ^= 0x01;
    EXPECT(check_head(head, t.heads[10]));
}

void audit_proof_check_catches_corruption() {
    Tree t = make_tree(21);
    for (size_t i = 0; i < 21; ++i) {
        auto proof = *t.program.audit_proof(i, 21);
        EXPECT(!check_inclusion(t.reference.leaf(i), i, 21, proof, t.heads[21]));
        RefDigest flipped_root = t.heads[21];
        flipped_root[0] ^= 0x80;
        EXPECT(check_inclusion(t.reference.leaf(i), i, 21, proof, flipped_root));
        if (!proof.empty()) {
            proof.back()[31] ^= 0x01;
            EXPECT(check_inclusion(t.reference.leaf(i), i, 21, proof, t.heads[21]));
        }
    }
}

void consistency_check_catches_corruption() {
    Tree t = make_tree(19);
    for (size_t m = 1; m < 19; ++m) {
        auto proof = *t.program.consistency_proof(m, 19);
        EXPECT(!check_consistency(m, 19, t.heads[m], t.heads[19], proof));
        RefDigest flipped_root = t.heads[19];
        flipped_root[12] ^= 0x04;
        EXPECT(check_consistency(m, 19, t.heads[m], flipped_root, proof));
        proof.front()[3] ^= 0x10;
        EXPECT(check_consistency(m, 19, t.heads[m], t.heads[19], proof));
    }
}

void exact_hit_check_catches_dropped_id() {
    EXPECT(!check_exact_hit(served({1, 5, 9}), 5));
    EXPECT(check_exact_hit(served({1, 9}), 5));
    EXPECT(check_exact_hit(served({5}, false), 5));
}

void rung_check_catches_dropped_id() {
    EXPECT(!check_rungs_agree(served({2, 3, 8}), served({2, 3, 8})));
    EXPECT(check_rungs_agree(served({2, 3, 8}), served({2, 8})));
    EXPECT(check_rungs_agree(served({}, false), served({})));
}

void miss_and_rejection_checks() {
    EXPECT(!check_miss(served({})));
    EXPECT(check_miss(served({4})));
    EXPECT(!check_rejected(served({}, false)));
    EXPECT(check_rejected(served({})));
}

void planted_lint_check_catches_missing_lint() {
    const Census& c = census();
    EXPECT(!check_planted_lints(c.meta, c.analyzed));
    std::vector<core::AnalyzedCert> corrupted = c.analyzed;
    bool dropped = false;
    for (size_t i = 0; i < corrupted.size() && !dropped; ++i) {
        if (c.meta[i].expected_lint.empty()) continue;
        auto& findings = corrupted[i].report.findings;
        std::erase_if(findings, [&](const lint::Finding& f) {
            return f.lint->name == c.meta[i].expected_lint;
        });
        dropped = true;
    }
    EXPECT(dropped);
    EXPECT(check_planted_lints(c.meta, corrupted));
    corrupted.pop_back();
    EXPECT(check_planted_lints(c.meta, corrupted));
}

void issuer_check_catches_off_by_one() {
    const Census& c = census();
    std::vector<core::IssuerRow> rows = issuer_rows(c.meta);
    EXPECT(!check_issuer_totals(c.meta, rows));
    rows.front().total += 1;
    EXPECT(check_issuer_totals(c.meta, rows));
    rows.front().total -= 2;
    EXPECT(check_issuer_totals(c.meta, rows));
    // The shape a DER-fed pipeline produces: one unnamed issuer.
    core::IssuerRow unnamed;
    unnamed.total = c.meta.size();
    EXPECT(check_issuer_totals(c.meta, std::vector<core::IssuerRow>{unnamed}));
}

void year_check_catches_off_by_one() {
    const Census& c = census();
    std::vector<core::YearRow> rows = year_rows(c.meta);
    EXPECT(!check_year_totals(c.meta, rows));
    rows.back().all += 1;
    EXPECT(check_year_totals(c.meta, rows));
}

void table_count_checks_catch_off_by_one() {
    const Census& c = census();
    const size_t n = c.meta.size();
    core::TaxonomyReport table1;
    table1.total_certs = n;
    EXPECT(!check_total_certs(n, table1));
    table1.total_certs = n - 1;
    EXPECT(check_total_certs(n, table1));
    std::vector<core::IssuerRow> issuers = issuer_rows(c.meta);
    std::vector<core::YearRow> years = year_rows(c.meta);
    EXPECT(!check_table_sums(n, issuers, years));
    issuers.back().total += 1;
    EXPECT(check_table_sums(n, issuers, years));
    issuers.back().total -= 1;
    years.front().all -= 1;
    EXPECT(check_table_sums(n, issuers, years));
}

void reopen_check_catches_size_and_head() {
    Tree t = make_tree(9);
    EXPECT(!check_reopen(9, t.heads[9], 9, t.heads[9]));
    EXPECT(check_reopen(8, t.heads[9], 9, t.heads[9]));
    RefDigest flipped = t.heads[9];
    flipped[31] ^= 0x02;
    EXPECT(check_reopen(9, flipped, 9, t.heads[9]));
}

void ber_check_catches_flipped_byte() {
    Bytes base = {0x30, 0x03, 0x02, 0x01, 0x05};
    Bytes normalized = base;
    EXPECT(!check_ber_roundtrip(normalized, base));
    normalized[4] ^= 0x01;
    EXPECT(check_ber_roundtrip(normalized, base));
    normalized.pop_back();
    EXPECT(check_ber_roundtrip(normalized, base));
}

void campaign_check_catches_state_drift() {
    difffuzz::campaign::CampaignState a;
    a.seed = 3;
    a.evals = 90;
    a.buckets = {"openssl|divergence|x", "forge|divergence|y"};
    difffuzz::campaign::CampaignState b = a;
    EXPECT(!check_campaign_parity(a, b));
    b.buckets.erase(b.buckets.begin());
    EXPECT(check_campaign_parity(a, b));
    b = a;
    b.evals += 1;
    EXPECT(check_campaign_parity(a, b));
}

void counting_fs_counts_writes_bytes_and_fsyncs() {
    core::MemFs memfs;
    CountingFs fs(memfs);
    EXPECT(fs.make_dirs("d").ok());
    auto file = fs.create("d/f");
    EXPECT(file.ok());
    Bytes data(10, 0x41);
    EXPECT(*(*file)->write(data) == 10u);
    EXPECT(*(*file)->write(BytesView(data).subspan(0, 3)) == 3u);
    EXPECT((*file)->sync().ok());
    EXPECT(fs.sync_dir("d").ok());
    CountingFs::Counts c = fs.counts();
    EXPECT(c.writes == 2);
    EXPECT(c.bytes == 13);
    EXPECT(c.fsyncs == 2);
    EXPECT(memfs.read_file("d/f")->size() == 13u);
}

}  // namespace

int main() {
    const std::pair<const char*, std::function<void()>> tests[] = {
        {"reference_known_answers", reference_known_answers},
        {"reference_matches_program_tree", reference_matches_program_tree},
        {"head_check_catches_flipped_root_byte", head_check_catches_flipped_root_byte},
        {"audit_proof_check_catches_corruption", audit_proof_check_catches_corruption},
        {"consistency_check_catches_corruption", consistency_check_catches_corruption},
        {"exact_hit_check_catches_dropped_id", exact_hit_check_catches_dropped_id},
        {"rung_check_catches_dropped_id", rung_check_catches_dropped_id},
        {"miss_and_rejection_checks", miss_and_rejection_checks},
        {"planted_lint_check_catches_missing_lint", planted_lint_check_catches_missing_lint},
        {"issuer_check_catches_off_by_one", issuer_check_catches_off_by_one},
        {"year_check_catches_off_by_one", year_check_catches_off_by_one},
        {"table_count_checks_catch_off_by_one", table_count_checks_catch_off_by_one},
        {"reopen_check_catches_size_and_head", reopen_check_catches_size_and_head},
        {"ber_check_catches_flipped_byte", ber_check_catches_flipped_byte},
        {"campaign_check_catches_state_drift", campaign_check_catches_state_drift},
        {"counting_fs_counts_writes_bytes_and_fsyncs", counting_fs_counts_writes_bytes_and_fsyncs},
    };
    for (const auto& [name, fn] : tests) {
        int before = g_failures;
        fn();
        std::printf("%s %s\n", g_failures == before ? "ok  " : "FAIL", name);
    }
    std::printf("%d failure(s)\n", g_failures);
    return g_failures == 0 ? 0 : 1;
}
