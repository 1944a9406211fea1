#include "rfc6962.h"

#include <cstdio>

namespace perfbench {
namespace {

bool lsb(size_t x) { return (x & 1) != 0; }

std::string hex(const RefDigest& d) {
    std::string out;
    char buf[3];
    for (uint8_t b : d) {
        std::snprintf(buf, sizeof buf, "%02x", b);
        out += buf;
    }
    return out;
}

// MTH(D[begin:end]) straight from RFC 6962 section 2.1: the largest
// power of two smaller than n splits the range.
RefDigest recursive_mth(const std::vector<RefDigest>& leaves, size_t begin, size_t end) {
    size_t n = end - begin;
    if (n == 1) return leaves[begin];
    size_t k = 1;
    while (k * 2 < n) k *= 2;
    return ref_node_hash(recursive_mth(leaves, begin, begin + k),
                         recursive_mth(leaves, begin + k, end));
}

// PATH(m, D[begin:end]) from RFC 6962 section 2.1.1.
void recursive_path(const std::vector<RefDigest>& leaves, size_t m, size_t begin, size_t end,
                    std::vector<RefDigest>& out) {
    size_t n = end - begin;
    if (n == 1) return;
    size_t k = 1;
    while (k * 2 < n) k *= 2;
    if (m < k) {
        recursive_path(leaves, m, begin, begin + k, out);
        out.push_back(recursive_mth(leaves, begin + k, end));
    } else {
        recursive_path(leaves, m - k, begin + k, end, out);
        out.push_back(recursive_mth(leaves, begin, begin + k));
    }
}

// SUBPROOF(m, D[begin:end], b) from RFC 6962 section 2.1.2.
void recursive_subproof(const std::vector<RefDigest>& leaves, size_t m, size_t begin,
                        size_t end, bool whole, std::vector<RefDigest>& out) {
    size_t n = end - begin;
    if (m == n) {
        if (!whole) out.push_back(recursive_mth(leaves, begin, end));
        return;
    }
    size_t k = 1;
    while (k * 2 < n) k *= 2;
    if (m <= k) {
        recursive_subproof(leaves, m, begin, begin + k, whole, out);
        out.push_back(recursive_mth(leaves, begin + k, end));
    } else {
        recursive_subproof(leaves, m - k, begin + k, end, false, out);
        out.push_back(recursive_mth(leaves, begin, begin + k));
    }
}

}  // namespace

RefDigest ref_leaf_hash(const uint8_t* entry, size_t len) {
    RefSha256 h;
    const uint8_t prefix = 0x00;
    h.update(&prefix, 1);
    h.update(entry, len);
    return h.finish();
}

RefDigest ref_node_hash(const RefDigest& left, const RefDigest& right) {
    RefSha256 h;
    const uint8_t prefix = 0x01;
    h.update(&prefix, 1);
    h.update(left.data(), left.size());
    h.update(right.data(), right.size());
    return h.finish();
}

void RefTree::add_leaf(const uint8_t* entry, size_t len) {
    RefDigest hash = ref_leaf_hash(entry, len);
    leaves_.push_back(hash);
    Peak peak{0, hash};
    while (!peaks_.empty() && peaks_.back().height == peak.height) {
        peak.hash = ref_node_hash(peaks_.back().hash, peak.hash);
        ++peak.height;
        peaks_.pop_back();
    }
    peaks_.push_back(peak);
}

RefDigest RefTree::root() const {
    if (peaks_.empty()) return ref_sha256(nullptr, 0);
    RefDigest acc = peaks_.back().hash;
    for (size_t i = peaks_.size() - 1; i-- > 0;) acc = ref_node_hash(peaks_[i].hash, acc);
    return acc;
}

bool ref_verify_inclusion(const RefDigest& leaf_hash, size_t index, size_t tree_size,
                          const std::vector<RefDigest>& path, const RefDigest& root) {
    if (index >= tree_size) return false;
    size_t fn = index;
    size_t sn = tree_size - 1;
    RefDigest r = leaf_hash;
    for (const RefDigest& p : path) {
        if (sn == 0) return false;
        if (lsb(fn) || fn == sn) {
            r = ref_node_hash(p, r);
            if (!lsb(fn)) {
                while (!lsb(fn) && fn != 0) {
                    fn >>= 1;
                    sn >>= 1;
                }
            }
        } else {
            r = ref_node_hash(r, p);
        }
        fn >>= 1;
        sn >>= 1;
    }
    return sn == 0 && r == root;
}

bool ref_verify_consistency(size_t first, size_t second, const RefDigest& first_root,
                            const RefDigest& second_root,
                            const std::vector<RefDigest>& proof) {
    if (first == 0 || first >= second || proof.empty()) return false;
    std::vector<RefDigest> path;
    if ((first & (first - 1)) == 0) path.push_back(first_root);
    path.insert(path.end(), proof.begin(), proof.end());
    size_t fn = first - 1;
    size_t sn = second - 1;
    while (lsb(fn)) {
        fn >>= 1;
        sn >>= 1;
    }
    RefDigest fr = path[0];
    RefDigest sr = path[0];
    for (size_t i = 1; i < path.size(); ++i) {
        const RefDigest& c = path[i];
        if (sn == 0) return false;
        if (lsb(fn) || fn == sn) {
            fr = ref_node_hash(c, fr);
            sr = ref_node_hash(c, sr);
            if (!lsb(fn)) {
                while (!lsb(fn) && fn != 0) {
                    fn >>= 1;
                    sn >>= 1;
                }
            }
        } else {
            sr = ref_node_hash(sr, c);
        }
        fn >>= 1;
        sn >>= 1;
    }
    return fr == first_root && sr == second_root && sn == 0;
}

std::optional<std::string> ref_self_check() {
    const uint8_t abc[] = {'a', 'b', 'c'};
    const std::string abc_hex =
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad";
    if (hex(ref_sha256(abc, 3)) != abc_hex) return "SHA-256(\"abc\") differs from FIPS 180-4";
    const std::string empty_hex =
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";
    RefTree empty;
    if (hex(empty.root()) != empty_hex) return "empty-tree head is not SHA-256(\"\")";

    RefTree tree;
    std::vector<RefDigest> roots;  // roots[n] = head over the first n leaves
    roots.push_back(empty.root());
    for (uint8_t i = 0; i < 19; ++i) {
        uint8_t entry[2] = {i, uint8_t(i * 7)};
        tree.add_leaf(entry, sizeof entry);
        roots.push_back(tree.root());
    }
    std::vector<RefDigest> leaves;
    for (size_t i = 0; i < tree.size(); ++i) leaves.push_back(tree.leaf(i));
    for (size_t n = 1; n < roots.size(); ++n) {
        if (roots[n] != recursive_mth(leaves, 0, n)) {
            return "compact-range head differs from the recursive MTH at size " +
                   std::to_string(n);
        }
        for (size_t m = 0; m < n; ++m) {
            std::vector<RefDigest> path;
            recursive_path(leaves, m, 0, n, path);
            if (!ref_verify_inclusion(leaves[m], m, n, path, roots[n])) {
                return "inclusion verifier rejects PATH(" + std::to_string(m) + ", " +
                       std::to_string(n) + ")";
            }
            if (m > 0) {
                std::vector<RefDigest> proof;
                recursive_subproof(leaves, m, 0, n, true, proof);
                if (!ref_verify_consistency(m, n, roots[m], roots[n], proof)) {
                    return "consistency verifier rejects PROOF(" + std::to_string(m) + ", " +
                           std::to_string(n) + ")";
                }
                proof[0][0] ^= 1;
                if (ref_verify_consistency(m, n, roots[m], roots[n], proof)) {
                    return "consistency verifier accepts a corrupted proof";
                }
            }
        }
    }
    return std::nullopt;
}

}  // namespace perfbench
