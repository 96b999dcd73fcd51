/**
 * @file
 * Deterministic 64-bit mixing functions.
 *
 * Page content in the model is *semantic*: every writer derives the words
 * it stores from stable identifiers (image name, class id, object id,
 * process seed) through these mixers. Two pages are TPS-mergeable iff all
 * their words are equal, so the mixers are the foundation of the whole
 * sharing model — they must be deterministic across runs and platforms,
 * and well-distributed so unrelated content never collides.
 */

#ifndef JTPS_BASE_HASH_HH
#define JTPS_BASE_HASH_HH

#include <cstdint>
#include <string_view>

namespace jtps
{

/**
 * SplitMix64 finalizer — a strong 64->64 bit mixer
 * (Steele et al., "Fast splittable pseudorandom number generators").
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Combine an accumulated hash with one more value. */
constexpr std::uint64_t
hashCombine(std::uint64_t seed, std::uint64_t value)
{
    return mix64(seed ^ (value + 0x9e3779b97f4a7c15ULL +
                         (seed << 6) + (seed >> 2)));
}

/** Combine three values into one digest. */
constexpr std::uint64_t
hash3(std::uint64_t a, std::uint64_t b, std::uint64_t c)
{
    return hashCombine(hashCombine(mix64(a), b), c);
}

/** Combine four values into one digest. */
constexpr std::uint64_t
hash4(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
{
    return hashCombine(hash3(a, b, c), d);
}

/**
 * FNV-1a over a string, used to turn stable names ("libjvm.so",
 * "java/lang/String") into tag values for the mixers.
 */
constexpr std::uint64_t
stringTag(std::string_view s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace jtps

#endif // JTPS_BASE_HASH_HH
