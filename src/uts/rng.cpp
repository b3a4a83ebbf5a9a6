#include "uts/rng.hpp"

namespace upcws::uts::rng {
namespace {

inline std::array<std::uint8_t, 4> be32(std::uint32_t v) {
  return {static_cast<std::uint8_t>(v >> 24), static_cast<std::uint8_t>(v >> 16),
          static_cast<std::uint8_t>(v >> 8), static_cast<std::uint8_t>(v)};
}

}  // namespace

State init(std::uint32_t seed) {
  auto word = be32(seed);
  return sha1::hash(word.data(), word.size());
}

State spawn(const State& parent, std::uint32_t index) {
  State child;
  sha1::spawn(parent, index, child);
  return child;
}

std::uint32_t to_rand(const State& s) {
  std::uint32_t v = (std::uint32_t{s[0]} << 24) | (std::uint32_t{s[1]} << 16) |
                    (std::uint32_t{s[2]} << 8) | std::uint32_t{s[3]};
  return v & 0x7FFFFFFFu;
}

double to_prob(const State& s) {
  return static_cast<double>(to_rand(s)) / 2147483648.0;  // / 2^31
}

}  // namespace upcws::uts::rng
