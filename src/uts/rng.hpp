// Splittable SHA-1 random stream, after the UTS "brg_sha1" RNG.
//
// Three operations (mirroring the UTS benchmark's rng interface):
//   init(seed)          — derive a root state from a 32-bit seed
//   spawn(parent, i)    — derive child state i from a parent state
//   to_rand / to_prob   — read the state as a 31-bit integer / uniform [0,1)
//
// Because spawn() is a cryptographic hash of (parent || index), sibling
// subtrees are statistically independent and the whole tree is reproducible
// from the seed alone, on any machine, in any traversal order.
#pragma once

#include <array>
#include <cstdint>

#include "sha1/sha1.hpp"

namespace upcws::uts::rng {

using State = std::array<std::uint8_t, sha1::kDigestBytes>;

/// Derive the root RNG state from a seed: SHA-1 of the big-endian seed word.
State init(std::uint32_t seed);

/// Derive the state of child `index` from `parent`:
/// SHA-1(parent_state || big-endian index), by sha1::spawn.
State spawn(const State& parent, std::uint32_t index);

/// Interpret a state as a non-negative 31-bit integer (first word, high bit
/// masked), exactly in the spirit of the UTS rng_rand().
std::uint32_t to_rand(const State& s);

/// Interpret a state as a uniform draw in [0, 1).
double to_prob(const State& s);

}  // namespace upcws::uts::rng
