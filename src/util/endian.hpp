/**
 * @file
 * Little-endian load and store of fixed-width values: the byte order
 * of the wire protocol (net/protocol) and of rows read straight from
 * its payload (serve::CounterRowLE). On a little-endian host each is
 * one unaligned copy; elsewhere the bytes are reversed.
 */
#ifndef CHAOS_UTIL_ENDIAN_HPP
#define CHAOS_UTIL_ENDIAN_HPP

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace chaos {

#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
inline constexpr bool kLittleEndianHost = true;
#else
inline constexpr bool kLittleEndianHost = false;
#endif

/** Store @p v at @p p as little-endian bytes (doubles as their bits). */
template <typename T>
void
storeLE(std::uint8_t *p, T v)
{
    std::memcpy(p, &v, sizeof(T));
    if constexpr (!kLittleEndianHost)
        std::reverse(p, p + sizeof(T));
}

/** Load a little-endian T from @p p (inverse of storeLE). */
template <typename T>
T
loadLE(const std::uint8_t *p)
{
    std::uint8_t bytes[sizeof(T)] = {};
    std::memcpy(bytes, p, sizeof(T));
    if constexpr (!kLittleEndianHost)
        std::reverse(bytes, bytes + sizeof(T));
    T v{};
    std::memcpy(&v, bytes, sizeof(T));
    return v;
}

} // namespace chaos

#endif // CHAOS_UTIL_ENDIAN_HPP
