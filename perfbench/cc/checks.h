// The benchmark's correctness checks, as pure functions of a result and
// of what it is checked against (generator metadata, the RFC 6962
// reference, or a property the method must have). Each returns nullopt
// when the result passes and a one-line reason when it does not; the
// self-tests feed each a corrupted result.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ctlog/index/query.h"
#include "difffuzz/campaign/state.h"
#include "rfc6962.h"

namespace perfbench {

using Check = std::optional<std::string>;

// What the generator knows about one certificate of a census corpus.
struct CertMeta {
    std::string issuer_org;
    int year = 0;
    std::string expected_lint;  // empty: no planted defect
};

// ---- census ----------------------------------------------------------------

// Every certificate with a planted defect carries its expected lint.
// `analyzed` is in corpus order.
Check check_planted_lints(std::span<const CertMeta> meta,
                          std::span<const unicert::core::AnalyzedCert> analyzed);

// Table 2's per-issuer totals equal the generator's per-issuer counts.
Check check_issuer_totals(std::span<const CertMeta> meta,
                          std::span<const unicert::core::IssuerRow> rows);

// Fig 2's per-year totals equal the generator's per-year counts.
Check check_year_totals(std::span<const CertMeta> meta,
                        std::span<const unicert::core::YearRow> rows);

// Table 1 counts every certificate of the corpus.
Check check_total_certs(size_t corpus_size, const unicert::core::TaxonomyReport& table1);

// Table 2 and Fig 2 each account for every certificate exactly once.
Check check_table_sums(size_t corpus_size, std::span<const unicert::core::IssuerRow> issuers,
                       std::span<const unicert::core::YearRow> years);

// ---- monitor ---------------------------------------------------------------

Check check_head(const RefDigest& store_head, const RefDigest& reference_head);

Check check_inclusion(const RefDigest& leaf_hash, size_t index, size_t tree_size,
                      const std::vector<RefDigest>& proof, const RefDigest& reference_head);

Check check_consistency(size_t first, size_t second, const RefDigest& first_head,
                        const RefDigest& second_head, const std::vector<RefDigest>& proof);

// An accepted exact query for a key derived from entry `id` returns it.
Check check_exact_hit(const unicert::ctlog::index::ServedQuery& served, size_t id);

// A query for a key no entry carries returns nothing.
Check check_miss(const unicert::ctlog::index::ServedQuery& served);

// A query the profile must refuse is refused before any lookup.
Check check_rejected(const unicert::ctlog::index::ServedQuery& served);

// The index rung and the scan rung give the same answer.
Check check_rungs_agree(const unicert::ctlog::index::ServedQuery& indexed,
                        const unicert::ctlog::index::ServedQuery& scanned);

// A reopened store has the size and head it had when it was closed.
Check check_reopen(size_t size, const RefDigest& head, size_t expected_size,
                   const RefDigest& expected_head);

// ---- differential ------------------------------------------------------------

// A BER mutant the tolerant walker accepts normalizes back to its base.
Check check_ber_roundtrip(const unicert::Bytes& normalized, const unicert::Bytes& base);

// A campaign ends in the same state at one and at two jobs.
Check check_campaign_parity(const unicert::difffuzz::campaign::CampaignState& one_job,
                            const unicert::difffuzz::campaign::CampaignState& two_jobs);

}  // namespace perfbench
