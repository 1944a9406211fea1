// A SHA-256 (FIPS 180-4) kept apart from unicert's crypto/sha256, so the
// benchmark's Merkle reference does not share code with what it checks.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

using RefDigest = std::array<uint8_t, 32>;

class RefSha256 {
public:
    RefSha256();
    void update(const uint8_t* data, size_t len);
    RefDigest finish();

private:
    void block(const uint8_t* p);
    std::array<uint32_t, 8> h_;
    std::array<uint8_t, 64> buf_{};
    size_t buf_len_ = 0;
    uint64_t total_ = 0;
};

RefDigest ref_sha256(const uint8_t* data, size_t len);

}  // namespace perfbench
