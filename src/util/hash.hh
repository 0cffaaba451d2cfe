/**
 * @file
 * 64-bit FNV-1a over 64-bit words (low byte first): the accumulator
 * behind every stateHash() the model checker prunes and fuzzes on.
 */

#ifndef ULDMA_UTIL_HASH_HH
#define ULDMA_UTIL_HASH_HH

#include <cstdint>

namespace uldma {

struct Fnv1a
{
    std::uint64_t h = 14695981039346656037ULL;

    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
};

} // namespace uldma

#endif // ULDMA_UTIL_HASH_HH
