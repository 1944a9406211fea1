#include "checks.h"

#include <map>

namespace perfbench {

using unicert::core::AnalyzedCert;
using unicert::core::IssuerRow;
using unicert::core::YearRow;
using unicert::ctlog::index::ServedQuery;

Check check_planted_lints(std::span<const CertMeta> meta,
                          std::span<const AnalyzedCert> analyzed) {
    if (analyzed.size() != meta.size()) {
        return "pipeline analyzed " + std::to_string(analyzed.size()) + " of " +
               std::to_string(meta.size()) + " certificates";
    }
    for (size_t i = 0; i < meta.size(); ++i) {
        if (meta[i].expected_lint.empty()) continue;
        if (!analyzed[i].report.has_lint(meta[i].expected_lint)) {
            return "certificate " + std::to_string(i) + " lacks planted lint " +
                   meta[i].expected_lint;
        }
    }
    return std::nullopt;
}

Check check_issuer_totals(std::span<const CertMeta> meta, std::span<const IssuerRow> rows) {
    std::map<std::string, size_t> expected;
    for (const CertMeta& m : meta) ++expected[m.issuer_org];
    std::map<std::string, size_t> reported;
    for (const IssuerRow& row : rows) reported[row.organization] += row.total;
    for (const auto& [org, count] : expected) {
        auto it = reported.find(org);
        size_t got = it == reported.end() ? 0 : it->second;
        if (got != count) {
            return "Table 2 reports " + std::to_string(got) + " certificates for issuer '" + org +
                   "', the generator made " + std::to_string(count);
        }
    }
    for (const auto& [org, count] : reported) {
        if (!expected.contains(org)) {
            return "Table 2 reports " + std::to_string(count) + " certificates for issuer '" +
                   org + "', which the generator never used";
        }
    }
    return std::nullopt;
}

Check check_year_totals(std::span<const CertMeta> meta, std::span<const YearRow> rows) {
    std::map<int, size_t> expected;
    for (const CertMeta& m : meta) ++expected[m.year];
    std::map<int, size_t> reported;
    for (const YearRow& row : rows) reported[row.year] += row.all;
    if (expected == reported) return std::nullopt;
    for (const auto& [year, count] : expected) {
        size_t got = reported.contains(year) ? reported[year] : 0;
        if (got != count) {
            return "Fig 2 reports " + std::to_string(got) + " certificates for " +
                   std::to_string(year) + ", the generator made " + std::to_string(count);
        }
    }
    return "Fig 2 reports years the generator never used";
}

Check check_total_certs(size_t corpus_size, const unicert::core::TaxonomyReport& table1) {
    if (table1.total_certs == corpus_size) return std::nullopt;
    return "Table 1 total_certs is " + std::to_string(table1.total_certs) + ", corpus has " +
           std::to_string(corpus_size);
}

Check check_table_sums(size_t corpus_size, std::span<const IssuerRow> issuers,
                       std::span<const YearRow> years) {
    size_t issuer_sum = 0;
    for (const IssuerRow& row : issuers) issuer_sum += row.total;
    size_t year_sum = 0;
    for (const YearRow& row : years) year_sum += row.all;
    if (issuer_sum != corpus_size) {
        return "Table 2 totals sum to " + std::to_string(issuer_sum) + ", corpus has " +
               std::to_string(corpus_size);
    }
    if (year_sum != corpus_size) {
        return "Fig 2 totals sum to " + std::to_string(year_sum) + ", corpus has " +
               std::to_string(corpus_size);
    }
    return std::nullopt;
}

Check check_head(const RefDigest& store_head, const RefDigest& reference_head) {
    if (store_head == reference_head) return std::nullopt;
    return std::string("store head differs from the RFC 6962 reference head");
}

Check check_inclusion(const RefDigest& leaf_hash, size_t index, size_t tree_size,
                      const std::vector<RefDigest>& proof, const RefDigest& reference_head) {
    if (ref_verify_inclusion(leaf_hash, index, tree_size, proof, reference_head)) {
        return std::nullopt;
    }
    return "audit proof for leaf " + std::to_string(index) + " of " +
           std::to_string(tree_size) + " does not verify";
}

Check check_consistency(size_t first, size_t second, const RefDigest& first_head,
                        const RefDigest& second_head, const std::vector<RefDigest>& proof) {
    if (ref_verify_consistency(first, second, first_head, second_head, proof)) {
        return std::nullopt;
    }
    return "consistency proof " + std::to_string(first) + " -> " + std::to_string(second) +
           " does not verify";
}

Check check_exact_hit(const ServedQuery& served, size_t id) {
    if (!served.result.query_accepted) {
        return "exact query refused: " + served.result.rejection_reason;
    }
    for (size_t got : served.result.cert_ids) {
        if (got == id) return std::nullopt;
    }
    return "exact query did not return entry " + std::to_string(id);
}

Check check_miss(const ServedQuery& served) {
    if (served.result.cert_ids.empty()) return std::nullopt;
    return "query for an absent key returned " + std::to_string(served.result.cert_ids.size()) +
           " entries";
}

Check check_rejected(const ServedQuery& served) {
    if (!served.result.query_accepted && served.result.cert_ids.empty()) return std::nullopt;
    return std::string("a query the profile must refuse was accepted");
}

Check check_rungs_agree(const ServedQuery& indexed, const ServedQuery& scanned) {
    if (indexed.result.query_accepted != scanned.result.query_accepted ||
        indexed.result.rejection_reason != scanned.result.rejection_reason) {
        return std::string("index and scan rungs disagree on accepting the query");
    }
    if (indexed.result.cert_ids != scanned.result.cert_ids) {
        return "index rung returned " + std::to_string(indexed.result.cert_ids.size()) +
               " ids, scan rung " + std::to_string(scanned.result.cert_ids.size());
    }
    return std::nullopt;
}

Check check_reopen(size_t size, const RefDigest& head, size_t expected_size,
                   const RefDigest& expected_head) {
    if (size != expected_size) {
        return "reopened store holds " + std::to_string(size) + " entries, expected " +
               std::to_string(expected_size);
    }
    if (head != expected_head) return std::string("reopened store has another head");
    return std::nullopt;
}

Check check_ber_roundtrip(const unicert::Bytes& normalized, const unicert::Bytes& base) {
    if (normalized == base) return std::nullopt;
    return "BER mutant normalized to " + std::to_string(normalized.size()) +
           " bytes that differ from its " + std::to_string(base.size()) + "-byte base DER";
}

Check check_campaign_parity(const unicert::difffuzz::campaign::CampaignState& one_job,
                            const unicert::difffuzz::campaign::CampaignState& two_jobs) {
    if (one_job == two_jobs) return std::nullopt;
    if (one_job.buckets != two_jobs.buckets) {
        return "campaign buckets differ between one and two jobs (" +
               std::to_string(one_job.buckets.size()) + " vs " +
               std::to_string(two_jobs.buckets.size()) + ")";
    }
    if (one_job.evals != two_jobs.evals) {
        return "campaign evals differ between one and two jobs (" +
               std::to_string(one_job.evals) + " vs " + std::to_string(two_jobs.evals) + ")";
    }
    return std::string("campaign state differs between one and two jobs");
}

}  // namespace perfbench
