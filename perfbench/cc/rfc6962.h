// An RFC 6962 / RFC 9162 Merkle reference written apart from
// ctlog::MerkleTree: tree heads from a compact range of perfect-subtree
// roots, and the RFC 9162 section 2.1.3.2 / 2.1.4.2 verifiers for audit
// and consistency proofs. The monitor workloads check the store's head
// and proofs against it.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ref_sha256.h"

namespace perfbench {

RefDigest ref_leaf_hash(const uint8_t* entry, size_t len);
RefDigest ref_node_hash(const RefDigest& left, const RefDigest& right);

class RefTree {
public:
    void add_leaf(const uint8_t* entry, size_t len);
    size_t size() const noexcept { return leaves_.size(); }
    const RefDigest& leaf(size_t i) const { return leaves_[i]; }
    // Tree head over every leaf added so far; SHA-256("") when empty.
    RefDigest root() const;

private:
    struct Peak {
        size_t height;
        RefDigest hash;
    };
    std::vector<RefDigest> leaves_;
    std::vector<Peak> peaks_;  // strictly decreasing heights
};

bool ref_verify_inclusion(const RefDigest& leaf_hash, size_t index, size_t tree_size,
                          const std::vector<RefDigest>& path, const RefDigest& root);

// Consistency between tree sizes 0 < first < second.
bool ref_verify_consistency(size_t first, size_t second, const RefDigest& first_root,
                            const RefDigest& second_root, const std::vector<RefDigest>& proof);

// Known-answer checks of the reference itself: the FIPS 180-4 "abc"
// vector, the empty-tree head, and small trees against the RFC's
// recursive definition. nullopt when all hold.
std::optional<std::string> ref_self_check();

}  // namespace perfbench
