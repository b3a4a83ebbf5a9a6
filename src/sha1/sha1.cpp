#include "sha1/sha1.hpp"

#include <cstring>
#include <utility>

// The SHA-NI kernel is built only where the compiler can target the SHA
// extensions per function (x86-64, GCC or Clang); the rest of the file is
// compiled for the baseline ISA, and the kernel runs only on CPUs whose
// CPUID reports SHA, SSSE3 and SSE4.1.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define UPCWS_SHA1_SHANI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace upcws::sha1 {
namespace {

inline std::uint32_t rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32u - n));
}

inline std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

inline void store_be64(std::uint8_t* p, std::uint64_t v) {
  store_be32(p, static_cast<std::uint32_t>(v >> 32));
  store_be32(p + 4, static_cast<std::uint32_t>(v));
}

}  // namespace

void compress_portable(State& state, const std::uint8_t* block) {
  // Message schedule. RFC 3174 method 1, with the usual rolling expansion.
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (int t = 16; t < 80; ++t)
    w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4];

  auto round = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wt) {
    std::uint32_t tmp = rotl(a, 5) + f + e + k + wt;
    e = d;
    d = c;
    c = rotl(b, 30);
    b = a;
    a = tmp;
  };

  for (int t = 0; t < 20; ++t) round((b & c) | (~b & d), 0x5A827999u, w[t]);
  for (int t = 20; t < 40; ++t) round(b ^ c ^ d, 0x6ED9EBA1u, w[t]);
  for (int t = 40; t < 60; ++t)
    round((b & c) | (b & d) | (c & d), 0x8F1BBCDCu, w[t]);
  for (int t = 60; t < 80; ++t) round(b ^ c ^ d, 0xCA62C1D6u, w[t]);

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

namespace {

#if UPCWS_SHA1_SHANI
#define UPCWS_SHANI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Rounds 4G..4G+3 of the SHA-NI compression. m[k % 4] holds message words
/// W[4k..4k+3] for the group k that reads them next; each group also
/// advances the schedule for groups G+1..G+3 (msg1, xor, msg2), so W[16..79]
/// never sit in memory. e[G % 2] carries E into this group's rounds, and
/// the other register saves A, which becomes E four rounds later.
template <int G>
UPCWS_SHANI_TARGET inline void shani_group(__m128i& abcd, __m128i (&e)[2],
                                           __m128i (&m)[4]) {
  __m128i& sum = e[G % 2];
  if constexpr (G == 0)
    sum = _mm_add_epi32(sum, m[0]);
  else
    sum = _mm_sha1nexte_epu32(sum, m[G % 4]);
  e[1 - G % 2] = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, sum, G / 5);
  if constexpr (G >= 3 && G <= 18)
    m[(G + 1) % 4] = _mm_sha1msg2_epu32(m[(G + 1) % 4], m[G % 4]);
  if constexpr (G >= 2 && G <= 17)
    m[(G + 2) % 4] = _mm_xor_si128(m[(G + 2) % 4], m[G % 4]);
  if constexpr (G >= 1 && G <= 16)
    m[(G + 3) % 4] = _mm_sha1msg1_epu32(m[(G + 3) % 4], m[G % 4]);
}

template <int... G>
UPCWS_SHANI_TARGET inline void shani_rounds(
    __m128i& abcd, __m128i (&e)[2], __m128i (&m)[4],
    std::integer_sequence<int, G...>) {
  (shani_group<G>(abcd, e, m), ...);
}

/// Byte-reverses a register: with it, a load of message bytes puts each
/// big-endian word in a lane, the first word most significant, and a store
/// of H0..H3 in that order writes their big-endian bytes.
UPCWS_SHANI_TARGET inline __m128i bswap128(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL));
}

/// One SHA-1 compression on the x86 SHA extensions: the lanes of `abcd`
/// hold A..D most-significant first, the top lane of `e` holds E, and `m`
/// holds W[0..15] in the order bswap128 gives. On return `abcd` and `e`
/// hold the new chaining value in the same lanes.
UPCWS_SHANI_TARGET inline void shani_compress(__m128i& abcd, __m128i& e,
                                              __m128i (&m)[4]) {
  const __m128i abcd_in = abcd;
  const __m128i e_in = e;
  __m128i es[2] = {e_in, _mm_setzero_si128()};
  shani_rounds(abcd, es, m, std::make_integer_sequence<int, 20>{});
  // es[0] holds A from before the last four rounds: rotated, it is E.
  e = _mm_sha1nexte_epu32(es[0], e_in);
  abcd = _mm_add_epi32(abcd, abcd_in);
}

/// compress_portable's contract on the SHA extensions.
UPCWS_SHANI_TARGET void compress_shani(State& state,
                                       const std::uint8_t* block) {
  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())), 0x1B);
  __m128i e = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  __m128i m[4];
  for (int i = 0; i < 4; ++i)
    m[i] = bswap128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)));
  shani_compress(abcd, e, m);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()),
                   _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

/// spawn on the SHA extensions. The padded message is W0..W4 = the parent
/// state, W5 = the index, W6 = the 0x80 pad, W7..W14 = 0 and W15 = 192,
/// the bit length; it is built in the message registers, never in memory.
UPCWS_SHANI_TARGET void spawn_shani(const Digest& parent, std::uint32_t index,
                                    Digest& child) {
  std::uint32_t tail;  // parent bytes 16..19: W4, once byte-swapped
  std::memcpy(&tail, parent.data() + 16, sizeof tail);
  __m128i m[4] = {
      bswap128(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(parent.data()))),
      _mm_set_epi32(static_cast<int>(__builtin_bswap32(tail)),
                    static_cast<int>(index), static_cast<int>(0x80000000u), 0),
      _mm_setzero_si128(),
      _mm_set_epi32(0, 0, 0, 24 * 8),
  };
  __m128i abcd =
      _mm_set_epi32(static_cast<int>(kIv[0]), static_cast<int>(kIv[1]),
                    static_cast<int>(kIv[2]), static_cast<int>(kIv[3]));
  __m128i e = _mm_set_epi32(static_cast<int>(kIv[4]), 0, 0, 0);
  shani_compress(abcd, e, m);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(child.data()), bswap128(abcd));
  const std::uint32_t h4 =
      __builtin_bswap32(static_cast<std::uint32_t>(_mm_extract_epi32(e, 3)));
  std::memcpy(child.data() + 16, &h4, sizeof h4);
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  if ((c & bit_SSSE3) == 0 || (c & bit_SSE4_1) == 0) return false;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return (b & bit_SHA) != 0;
}

/// Decided once, on first use. A function-local static is initialised on
/// its first call, so a static constructor elsewhere that hashes still
/// sees the real answer, and exactly once even when psim workers and
/// ThreadEngine threads make that first call together.
bool use_sha_ni() {
  static const bool yes = cpu_has_sha_ni();
  return yes;
}
#endif  // UPCWS_SHA1_SHANI

/// The compression behind Hasher and compress_block.
void compress(State& state, const std::uint8_t* block) {
#if UPCWS_SHA1_SHANI
  if (use_sha_ni()) return compress_shani(state, block);
#endif
  compress_portable(state, block);
}

Digest to_digest(const State& state) {
  Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, state[i]);
  return out;
}

}  // namespace

void Hasher::reset() {
  state_ = kIv;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Hasher::process_block(const std::uint8_t* block) {
  compress(state_, block);
}

void Hasher::update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_bytes_ += len;

  if (buffered_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, p, take);
    buffered_ += take;
    p += take;
    len -= take;
    if (buffered_ == buffer_.size()) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (len >= 64) {
    process_block(p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffered_ = len;
  }
}

Digest Hasher::finish() {
  // Pad: 0x80, zeros, then the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  const std::uint8_t pad80 = 0x80;
  update(&pad80, 1);
  static constexpr std::uint8_t kZeros[64] = {};
  // After the 0x80 byte, pad with zeros until 8 bytes remain in the block.
  std::size_t rem = buffered_;
  std::size_t pad = (rem <= 56) ? (56 - rem) : (64 + 56 - rem);
  // update() would keep counting these toward total_bytes_, but bit_len was
  // latched above, so the count no longer matters.
  update(kZeros, pad);
  std::uint8_t len_be[8];
  store_be64(len_be, bit_len);
  update(len_be, 8);

  return to_digest(state_);
}

Digest hash(const void* data, std::size_t len) {
  Hasher h;
  h.update(data, len);
  return h.finish();
}

Digest compress_block(const std::uint8_t* block64) {
  State state = kIv;
  compress(state, block64);
  return to_digest(state);
}

Digest compress_block_portable(const std::uint8_t* block64) {
  State state = kIv;
  compress_portable(state, block64);
  return to_digest(state);
}

void spawn(const Digest& parent, std::uint32_t index, Digest& child) {
#if UPCWS_SHA1_SHANI
  if (use_sha_ni()) return spawn_shani(parent, index, child);
#endif
  spawn_portable(parent, index, child);
}

void spawn_portable(const Digest& parent, std::uint32_t index,
                    Digest& child) {
  std::uint8_t block[64] = {};
  std::memcpy(block, parent.data(), kDigestBytes);
  store_be32(block + kDigestBytes, index);
  block[24] = 0x80;
  block[63] = 24 * 8;  // the message's bit length
  child = compress_block_portable(block);
}

const char* kernel_name() {
#if UPCWS_SHA1_SHANI
  if (use_sha_ni()) return "sha-ni";
#endif
  return "portable";
}

std::string to_hex(const Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(2 * kDigestBytes);
  for (std::uint8_t b : d) {
    s.push_back(kHex[b >> 4]);
    s.push_back(kHex[b & 0xF]);
  }
  return s;
}

}  // namespace upcws::sha1
