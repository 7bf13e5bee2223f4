/**
 * @file
 * CRC-16/CCITT-FALSE checksum used to protect frames on the
 * phone-to-hub serial link.
 */

#ifndef SIDEWINDER_TRANSPORT_CRC_H
#define SIDEWINDER_TRANSPORT_CRC_H

#include <array>
#include <cstdint>
#include <vector>

namespace sidewinder::transport {

namespace detail {

/** The byte-at-a-time table of poly 0x1021 (MSB first). */
constexpr std::array<std::uint16_t, 256>
makeCrc16Table()
{
    std::array<std::uint16_t, 256> table{};
    for (unsigned top = 0; top < 256; ++top) {
        auto crc = static_cast<std::uint16_t>(top << 8);
        for (int bit = 0; bit < 8; ++bit)
            crc = static_cast<std::uint16_t>(
                crc & 0x8000 ? (crc << 1) ^ 0x1021 : crc << 1);
        table[top] = crc;
    }
    return table;
}

inline constexpr std::array<std::uint16_t, 256> crc16Table =
    makeCrc16Table();

} // namespace detail

/** Incremental form: fold @p byte into a running @p crc. */
constexpr std::uint16_t
crc16Step(std::uint16_t crc, std::uint8_t byte)
{
    return static_cast<std::uint16_t>(
        (crc << 8) ^ detail::crc16Table[(crc >> 8) ^ byte]);
}

/** CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF) of @p data. */
inline std::uint16_t
crc16(const std::vector<std::uint8_t> &data)
{
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t byte : data)
        crc = crc16Step(crc, byte);
    return crc;
}

} // namespace sidewinder::transport

#endif // SIDEWINDER_TRANSPORT_CRC_H
