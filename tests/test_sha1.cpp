// SHA-1 correctness against RFC 3174 / FIPS 180-1 vectors, plus incremental
// hashing and boundary-condition behaviour. Every vector runs through both
// the dispatched kernel (Hasher, hash, compress_block: SHA-NI where the CPU
// has it) and the portable reference kernel, so each is pinned on its own
// and a CPU with the SHA extensions also checks one against the other.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "sha1/sha1.hpp"

namespace {

using upcws::sha1::Digest;
using upcws::sha1::Hasher;
using upcws::sha1::State;
using upcws::sha1::compress_block;
using upcws::sha1::compress_block_portable;
using upcws::sha1::compress_portable;
using upcws::sha1::hash;
using upcws::sha1::kIv;
using upcws::sha1::kernel_name;
using upcws::sha1::spawn;
using upcws::sha1::spawn_portable;
using upcws::sha1::to_hex;

/// SHA-1 of `msg` through the portable kernel alone: the padding done by
/// hand, then one compress_portable per 64-byte block.
Digest portable_hash(std::string_view msg) {
  std::string m(msg);
  m.push_back('\x80');
  while (m.size() % 64 != 56) m.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) m.push_back(static_cast<char>(bits >> (8 * i)));
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(m.data());
  State s = kIv;
  for (std::size_t off = 0; off < m.size(); off += 64)
    compress_portable(s, bytes + off);
  Digest d;
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 4; ++j)
      d[4 * i + j] = static_cast<std::uint8_t>(s[i] >> (24 - 8 * j));
  return d;
}

/// `msg` must hash to `want` through the dispatched and the portable kernel.
void expect_vector(std::string_view msg, const char* want) {
  EXPECT_EQ(to_hex(hash(msg)), want) << "dispatched";
  EXPECT_EQ(to_hex(portable_hash(msg)), want) << "portable";
}

TEST(Sha1, EmptyString) {
  expect_vector("", "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  expect_vector("abc", "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  expect_vector("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Hasher h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
  expect_vector(std::string(1'000'000, 'a'),
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, Rfc3174Repeated) {
  // RFC 3174 test 4: "0123456701234567..." repeated 10 times, x80... the RFC
  // uses 80 repetitions of "01234567".
  Hasher h;
  std::string msg;
  for (int i = 0; i < 80; ++i) {
    h.update("01234567");
    msg += "01234567";
  }
  EXPECT_EQ(to_hex(h.finish()), "dea356a2cddd90c7a7ecedc5ebb563934f460452");
  expect_vector(msg, "dea356a2cddd90c7a7ecedc5ebb563934f460452");
}

TEST(Sha1, TwoBlock896Bit) {
  // FIPS 180-2 appendix vector: 896-bit (112-byte) message.
  expect_vector("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghi"
                "jklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrs"
                "tnopqrstu",
                "a49b2446a02c645bf419f995b67091253a04a259");
}

TEST(Sha1, CompressBlockMatchesHasher) {
  // compress_block is the engine's fast path for messages that fit one
  // padded block (len <= 55). It must agree with the incremental Hasher for
  // every such length, with the caller doing the FIPS padding by hand.
  std::mt19937_64 rng(2026);
  for (std::size_t len = 0; len <= 55; ++len) {
    std::uint8_t msg[56];
    for (std::size_t i = 0; i < len; ++i)
      msg[i] = static_cast<std::uint8_t>(rng());
    std::uint8_t block[64] = {};
    std::memcpy(block, msg, len);
    block[len] = 0x80;
    const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
    for (int i = 0; i < 8; ++i)
      block[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
    EXPECT_EQ(compress_block(block), hash(msg, len)) << "len " << len;
    EXPECT_EQ(compress_block_portable(block), hash(msg, len)) << "len " << len;
  }
}

TEST(Sha1, KernelsAgreeOnChainedRandomBlocks) {
  // 100k random single blocks, each carrying the previous digest in its
  // first 20 bytes as UTS spawn blocks do, compressed from the IV by both
  // kernels. The same blocks are then hashed as one 6.4 MB message, so both
  // kernels also fold blocks into chaining values other than the IV.
  constexpr int kBlocks = 100'000;
  std::mt19937_64 rng(13);
  std::string all;
  all.reserve(static_cast<std::size_t>(kBlocks) * 64);
  std::uint8_t block[64];
  Digest prev{};
  int mismatches = 0;
  for (int i = 0; i < kBlocks; ++i) {
    for (int w = 0; w < 8; ++w) {
      const std::uint64_t r = rng();
      std::memcpy(block + 8 * w, &r, sizeof r);
    }
    std::memcpy(block, prev.data(), prev.size());
    prev = compress_block(block);
    if (prev != compress_block_portable(block)) ++mismatches;
    all.append(reinterpret_cast<const char*>(block), sizeof block);
  }
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(hash(all), portable_hash(all));
}

/// SHA-1(parent || be32(index)) through portable_hash: the reference for
/// both spawn kernels.
Digest spawn_reference(const Digest& parent, std::uint32_t index) {
  std::string msg(reinterpret_cast<const char*>(parent.data()), parent.size());
  for (int i = 3; i >= 0; --i)
    msg.push_back(static_cast<char>(index >> (8 * i)));
  return portable_hash(msg);
}

TEST(Sha1, SpawnMatchesPortableReference) {
  // The dispatched spawn (the register kernel on SHA-NI CPUs) and the
  // portable one must equal the hand-padded reference: 100k random
  // parents with random indices, then every parent of a chain with the
  // edge indices. Each check also runs in place (child == parent).
  std::mt19937_64 rng(20);
  int mismatches = 0;
  auto check = [&](const Digest& parent, std::uint32_t index) {
    const Digest want = spawn_reference(parent, index);
    Digest got{};
    spawn(parent, index, got);
    Digest got_portable{};
    spawn_portable(parent, index, got_portable);
    Digest in_place = parent;
    spawn(in_place, index, in_place);
    if (got != want || got_portable != want || in_place != want) ++mismatches;
  };
  for (int i = 0; i < 100'000; ++i) {
    Digest parent;
    for (auto& b : parent) b = static_cast<std::uint8_t>(rng());
    check(parent, static_cast<std::uint32_t>(rng()));
  }
  Digest parent = hash("abc");
  for (int i = 0; i < 64; ++i) {
    for (const std::uint32_t index :
         {0u, 1u, 255u, 256u, 65535u, 65536u, 0x7FFFFFFFu, 0x80000000u,
          0xFFFFFFFFu})
      check(parent, index);
    spawn(parent, static_cast<std::uint32_t>(i), parent);
  }
  EXPECT_EQ(mismatches, 0);
  // One child pinned as hex (computed outside this code base), so a change
  // that broke every path the same way would still fail.
  Digest child{};
  spawn(hash("abc"), 1, child);
  EXPECT_EQ(to_hex(child), "35b59f848fc035ba9ae02190b1c3b529c0006b5f");
  spawn_portable(hash("abc"), 1, child);
  EXPECT_EQ(to_hex(child), "35b59f848fc035ba9ae02190b1c3b529c0006b5f");
}

TEST(Sha1, KernelMatchesCpu) {
  // The dispatcher reads CPUID itself; cross-check its choice with the
  // compiler's own feature probe, so a SHA-capable CPU cannot silently fall
  // back to the portable kernel.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  const bool sha_ni = __builtin_cpu_supports("sha") &&
                      __builtin_cpu_supports("ssse3") &&
                      __builtin_cpu_supports("sse4.1");
  EXPECT_STREQ(kernel_name(), sha_ni ? "sha-ni" : "portable");
#elif !defined(__x86_64__)
  EXPECT_STREQ(kernel_name(), "portable");
#else
  GTEST_SKIP() << "no independent CPU feature probe for this compiler";
#endif
}

TEST(Sha1, RandomSplitsMatchOneShot) {
  // Incremental hashing over random messages with random split points must
  // equal the one-shot digest regardless of how updates fall against the
  // 64-byte block boundary.
  std::mt19937_64 rng(7);
  for (int trial = 0; trial < 64; ++trial) {
    const std::size_t len = 1 + rng() % 512;
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(rng());
    const Digest ref = hash(msg);
    Hasher h;
    std::size_t off = 0;
    while (off < len) {
      const std::size_t take = 1 + rng() % (len - off);
      h.update(msg.data() + off, take);
      off += take;
    }
    EXPECT_EQ(h.finish(), ref) << "trial " << trial << " len " << len;
  }
}

TEST(Sha1, IncrementalMatchesOneShot) {
  const std::string msg =
      "The quick brown fox jumps over the lazy dog, repeatedly, to cross "
      "block boundaries in interesting ways.";
  const Digest ref = hash(msg);
  // Split at every possible point.
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Hasher h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finish(), ref) << "split at " << split;
  }
}

TEST(Sha1, ByteAtATime) {
  const std::string msg(200, 'x');
  const Digest ref = hash(msg);
  Hasher h;
  for (char c : msg) h.update(&c, 1);
  EXPECT_EQ(h.finish(), ref);
}

TEST(Sha1, ResetReusesHasher) {
  Hasher h;
  h.update("garbage");
  (void)h.finish();
  h.reset();
  h.update("abc");
  EXPECT_EQ(to_hex(h.finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, LengthBoundaries) {
  // Messages whose padding straddles block boundaries: 55, 56, 63, 64, 65
  // bytes. Compare one-shot against byte-at-a-time as a self-consistency
  // check plus one pinned value.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'z');
    Hasher h;
    for (char c : msg) h.update(&c, 1);
    EXPECT_EQ(h.finish(), hash(msg)) << "len " << len;
  }
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  EXPECT_NE(hash("abc"), hash("abd"));
  EXPECT_NE(hash("abc"), hash("abc "));
  EXPECT_NE(hash(""), hash("\0", 1));
}

TEST(Sha1, HexFormatting) {
  Digest d{};
  d[0] = 0x00;
  d[1] = 0xFF;
  d[19] = 0x0A;
  const std::string hex = to_hex(d);
  ASSERT_EQ(hex.size(), 40u);
  EXPECT_EQ(hex.substr(0, 4), "00ff");
  EXPECT_EQ(hex.substr(38, 2), "0a");
}

}  // namespace
