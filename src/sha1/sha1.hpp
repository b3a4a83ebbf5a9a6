// SHA-1 message digest (RFC 3174), implemented from scratch.
//
// UTS (Olivier et al., LCPC 2006) derives every tree node's description from
// the SHA-1 digest of its parent's description concatenated with the child
// index, so the hash function is the foundational substrate of the whole
// benchmark: the sequential search rate "primarily reflects the speed at
// which the processor can calculate SHA-1 hash evaluations" (paper §4.1).
//
// The implementation is self-contained (no OpenSSL), supports incremental
// hashing, and is verified against the RFC 3174 / FIPS 180-1 test vectors in
// tests/test_sha1.cpp.
//
// Two compression kernels sit behind Hasher, compress_block and spawn: the
// x86 SHA extensions (SHA-NI) where the CPU reports them, and the portable
// scalar code everywhere else. The choice is made once per process from
// CPUID; both produce bit-identical digests, so every tree, golden and
// virtual metric is the same on either.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace upcws::sha1 {

/// Size of a SHA-1 digest in bytes.
inline constexpr std::size_t kDigestBytes = 20;

/// A raw 160-bit SHA-1 digest.
using Digest = std::array<std::uint8_t, kDigestBytes>;

/// Chaining value carried from block to block: the words H0..H4.
using State = std::array<std::uint32_t, 5>;

/// The FIPS 180-1 initial chaining value.
inline constexpr State kIv = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                              0x10325476u, 0xC3D2E1F0u};

/// Incremental SHA-1 hasher.
///
/// Usage:
///   Hasher h;
///   h.update(buf, len);
///   Digest d = h.finish();
///
/// After finish() the hasher must be reset() before reuse.
class Hasher {
 public:
  Hasher() { reset(); }

  /// Re-initialize to the SHA-1 IV; discards any buffered input.
  void reset();

  /// Absorb `len` bytes of message data.
  void update(const void* data, std::size_t len);

  /// Convenience overload for string-like input.
  void update(std::string_view sv) { update(sv.data(), sv.size()); }

  /// Apply padding and return the digest. The hasher is left in a finished
  /// state; call reset() before hashing another message.
  Digest finish();

 private:
  void process_block(const std::uint8_t* block);

  State state_;
  std::uint64_t total_bytes_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_;
};

/// One-shot convenience: digest of a single contiguous buffer.
Digest hash(const void* data, std::size_t len);

/// Digest of a single pre-padded 64-byte block, compressed straight from
/// the SHA-1 IV. The caller owns the padding (0x80, zeros, 64-bit
/// big-endian bit length) — equivalent to hash() of the unpadded message
/// whenever that message fits one block (<= 55 bytes).
Digest compress_block(const std::uint8_t* block64);

/// The UTS spawn hash: write SHA-1(parent || big-endian index) to `child`.
/// The 24-byte message pads to one block, compressed from the IV. With
/// SHA-NI the block is built in the message registers and never stored,
/// and the digest leaves in one byte-swapping 16-byte store and one 4-byte
/// store; reads and writes stay inside the two 20-byte states. `child` may
/// be `parent`.
void spawn(const Digest& parent, std::uint32_t index, Digest& child);

/// The portable SHA-1 compression: fold one 64-byte block into `state`
/// with the scalar RFC 3174 rounds. It is the only kernel on CPUs without
/// the SHA extensions and on non-x86 builds, and the reference the
/// dispatched kernel is tested against. Hot paths use Hasher, compress_block
/// and spawn, which pick the fastest kernel themselves.
void compress_portable(State& state, const std::uint8_t* block64);

/// compress_block through the portable kernel, whatever the CPU.
Digest compress_block_portable(const std::uint8_t* block64);

/// spawn through the portable kernel (compress_portable on the padded
/// block), whatever the CPU.
void spawn_portable(const Digest& parent, std::uint32_t index, Digest& child);

/// The kernel Hasher, compress_block and spawn use in this process:
/// "sha-ni" or "portable".
const char* kernel_name();

/// One-shot convenience for string-like input.
inline Digest hash(std::string_view sv) { return hash(sv.data(), sv.size()); }

/// Lowercase hex rendering of a digest (40 characters).
std::string to_hex(const Digest& d);

}  // namespace upcws::sha1
