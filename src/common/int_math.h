// Small integer/bit utilities shared by the SWAR and simulator code.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/check.h"

namespace vitbit {

// Ceiling division for non-negative integers.
template <typename T>
constexpr T ceil_div(T a, T b) {
  static_assert(std::is_integral_v<T>);
  VITBIT_DCHECK(b > 0);
  VITBIT_DCHECK(a >= 0);
  return (a + (b - 1)) / b;
}

// Rounds `a` up to the next multiple of `b`. The result never exceeds
// a + (b - 1), so guarding that intermediate sum in ceil_div also guards
// the multiply back up.
template <typename T>
constexpr T round_up(T a, T b) {
  static_assert(std::is_integral_v<T>);
  VITBIT_DCHECK(b > 0);
  VITBIT_DCHECK(a >= 0);
  VITBIT_DCHECK(a <= std::numeric_limits<T>::max() - (b - 1));
  return ceil_div(a, b) * b;
}

// floor(log2(x)) for x > 0.
constexpr int ilog2(std::uint64_t x) {
  VITBIT_DCHECK(x > 0);
  return 63 - std::countl_zero(x);
}

// Number of bits needed to represent `x` as an unsigned value (0 -> 0 bits).
constexpr int bit_width_u(std::uint64_t x) { return std::bit_width(x); }

// Number of bits needed to represent `x` in two's complement, including the
// sign bit. bits_for_signed(0)=1, (-1)=1, (127)=8, (-128)=8.
constexpr int bits_for_signed(std::int64_t x) {
  if (x >= 0) return std::bit_width(static_cast<std::uint64_t>(x)) + 1;
  return std::bit_width(static_cast<std::uint64_t>(~x)) + 1;
}

// Mask with the low `bits` bits set. bits may be 0..64.
constexpr std::uint64_t low_mask64(int bits) {
  VITBIT_DCHECK(bits >= 0 && bits <= 64);
  return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

constexpr std::uint32_t low_mask32(int bits) {
  VITBIT_DCHECK(bits >= 0 && bits <= 32);
  return static_cast<std::uint32_t>(low_mask64(bits));
}

// Sign-extends the low `bits` bits of `x` to a full int64.
constexpr std::int64_t sign_extend(std::uint64_t x, int bits) {
  VITBIT_DCHECK(bits >= 1 && bits <= 64);
  if (bits == 64) return static_cast<std::int64_t>(x);
  const std::uint64_t m = std::uint64_t{1} << (bits - 1);
  x &= low_mask64(bits);
  return static_cast<std::int64_t>((x ^ m)) - static_cast<std::int64_t>(m);
}

// Inclusive range of a signed `bits`-bit integer.
constexpr std::int64_t signed_min(int bits) {
  VITBIT_DCHECK(bits >= 1 && bits <= 63);
  return -(std::int64_t{1} << (bits - 1));
}
constexpr std::int64_t signed_max(int bits) {
  VITBIT_DCHECK(bits >= 1 && bits <= 63);
  return (std::int64_t{1} << (bits - 1)) - 1;
}
constexpr std::int64_t unsigned_max(int bits) {
  VITBIT_DCHECK(bits >= 0 && bits <= 63);
  return (std::int64_t{1} << bits) - 1;
}

// True if `v` fits in a signed/unsigned `bits`-bit field.
constexpr bool fits_signed(std::int64_t v, int bits) {
  return v >= signed_min(bits) && v <= signed_max(bits);
}
constexpr bool fits_unsigned(std::int64_t v, int bits) {
  return v >= 0 && v <= unsigned_max(bits);
}

// Saturating clamp of v into the signed `bits`-bit range.
constexpr std::int64_t clamp_signed(std::int64_t v, int bits) {
  const std::int64_t lo = signed_min(bits), hi = signed_max(bits);
  return v < lo ? lo : (v > hi ? hi : v);
}

}  // namespace vitbit
