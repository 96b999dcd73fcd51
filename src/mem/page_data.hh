/**
 * @file
 * The page content model.
 *
 * A real 4 KiB page is modelled by eight 64-bit "sector words", one per
 * 512-byte sector. Every component that writes memory derives the words
 * it stores deterministically from stable identifiers (see base/hash.hh),
 * so two modelled pages compare equal exactly when the real pages they
 * stand for would be byte-identical. This is the property Transparent
 * Page Sharing depends on, and it is all TPS depends on — KSM never
 * looks *inside* a page except to compare and digest it, so a model
 * that preserves equality/inequality of content preserves KSM behaviour.
 *
 * The 512-byte sector granularity is fine enough to capture the paper's
 * sharing-killers: a single mutated object header, a pointer in a stack
 * frame, or one malloc'd chunk in an otherwise-empty arena page all dirty
 * one sector and make the page unshareable.
 */

#ifndef JTPS_MEM_PAGE_DATA_HH
#define JTPS_MEM_PAGE_DATA_HH

#include <array>
#include <cstdint>

#include "base/hash.hh"

namespace jtps::mem
{

/** Number of modelled sectors per page. */
constexpr unsigned sectorsPerPage = 8;

/** Seed of the per-sector digest keys ("digest\n"). */
constexpr std::uint64_t digestSeed = 0x6469676573740aULL;

/**
 * Content of one 4 KiB page, as eight sector words.
 */
struct PageData
{
    std::array<std::uint64_t, sectorsPerPage> word{};

    /** The all-zero page (what the OS hands out, and what GC leaves). */
    static PageData
    zero()
    {
        return PageData{};
    }

    /** A page whose every sector derives from (tag, salt, sector). */
    static PageData
    filled(std::uint64_t tag, std::uint64_t salt)
    {
        PageData d;
        for (unsigned s = 0; s < sectorsPerPage; ++s)
            d.word[s] = hash3(tag, salt, s);
        return d;
    }

    /** True if all sectors are zero (single OR-reduce, branch-free). */
    constexpr bool
    isZero() const
    {
        std::uint64_t acc = 0;
        for (auto w : word)
            acc |= w;
        return acc == 0;
    }

    /**
     * 64-bit content digest: the KSM calm filter's key (the analogue of
     * ksmd's jhash2 over the page) and the stable/unstable tree key.
     * Each sector is mixed on its own, offset by a key for its
     * position, and the eight mixes are summed, so they run in parallel
     * rather than as a chain; one more mix finishes the sum. mix64 is a
     * bijection, so a change confined to one sector always changes the
     * digest.
     */
    constexpr std::uint64_t
    digest() const
    {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < sectorsPerPage; ++s)
            sum += mix64(word[s] + digestSeed * (2 * s + 1));
        return mix64(sum);
    }

    bool operator==(const PageData &other) const = default;

    /** Lexicographic order, used as the KSM tree key ordering. */
    bool
    operator<(const PageData &other) const
    {
        return word < other.word;
    }
};

} // namespace jtps::mem

#endif // JTPS_MEM_PAGE_DATA_HH
