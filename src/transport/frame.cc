#include "transport/frame.h"

#include <algorithm>
#include <cstring>

#include "support/error.h"
#include "transport/crc.h"

namespace sidewinder::transport {

std::vector<std::uint8_t>
encodeFrame(const Frame &frame)
{
    if (frame.payload.size() > maxPayloadBytes)
        throw TransportError("frame payload too large: " +
                             std::to_string(frame.payload.size()));

    std::vector<std::uint8_t> wire;
    wire.reserve(frame.payload.size() + 6);
    wire.push_back(frameSof);
    wire.push_back(static_cast<std::uint8_t>(frame.type));
    wire.push_back(
        static_cast<std::uint8_t>(frame.payload.size() & 0xFF));
    wire.push_back(
        static_cast<std::uint8_t>((frame.payload.size() >> 8) & 0xFF));
    wire.insert(wire.end(), frame.payload.begin(), frame.payload.end());

    // The CRC covers type, length and payload (everything after SOF).
    std::uint16_t crc = 0xFFFF;
    for (std::size_t i = 1; i < wire.size(); ++i)
        crc = crc16Step(crc, wire[i]);
    wire.push_back(static_cast<std::uint8_t>((crc >> 8) & 0xFF));
    wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
    return wire;
}

void
FrameDecoder::fail()
{
    // The SOF that opened this candidate was presumably noise (or the
    // header behind it was corrupted); everything that followed it may
    // be — or contain — a real frame, so rescan instead of discarding.
    ++dropped;
    state = State::Sync;
    head = candidateStart + 1;
}

void
FrameDecoder::drain()
{
    // fail() moves the read index back to just past the candidate's
    // SOF; each rescan permanently consumes at least that SOF, so this
    // terminates.
    const std::uint8_t *const bytes = backlog.data();
    const std::size_t size = backlog.size();
    while (head < size) {
        switch (state) {
          case State::Sync: {
            // Every byte before the next SOF is line noise.
            const void *sof =
                std::memchr(bytes + head, frameSof, size - head);
            const std::size_t at =
                sof ? static_cast<std::size_t>(
                          static_cast<const std::uint8_t *>(sof) - bytes)
                    : size;
            dropped += at - head;
            head = at;
            if (head == size)
                return;
            candidateStart = head++;
            state = State::Type;
            crcAccum = 0xFFFF;
            ++candidateEpoch;
            break;
          }
          case State::Type:
            type = bytes[head++];
            crcAccum = crc16Step(crcAccum, type);
            if (type < 1 ||
                type > static_cast<std::uint8_t>(MessageType::UpdateAck))
                fail();
            else
                state = State::LenLo;
            break;
          case State::LenLo:
            expected = bytes[head];
            crcAccum = crc16Step(crcAccum, bytes[head++]);
            state = State::LenHi;
            break;
          case State::LenHi:
            expected |= static_cast<std::size_t>(bytes[head]) << 8;
            crcAccum = crc16Step(crcAccum, bytes[head++]);
            if (expected > maxPayloadBytes)
                fail();
            else
                state = expected == 0 ? State::CrcHi : State::Payload;
            break;
          case State::Payload: {
            // SOF + type + length(2) precede the payload.
            const std::size_t end = candidateStart + 4 + expected;
            const std::size_t stop = std::min(end, size);
            for (; head < stop; ++head)
                crcAccum = crc16Step(crcAccum, bytes[head]);
            if (head == end)
                state = State::CrcHi;
            break;
          }
          case State::CrcHi:
            crcReceived = static_cast<std::uint16_t>(bytes[head++] << 8);
            state = State::CrcLo;
            break;
          case State::CrcLo:
            crcReceived |= bytes[head++];
            if (crcReceived == crcAccum) {
                const std::uint8_t *payload = bytes + candidateStart + 4;
                Frame frame;
                frame.type = static_cast<MessageType>(type);
                frame.payload.assign(payload, payload + expected);
                ready.push_back(std::move(frame));
                state = State::Sync;
            } else {
                fail();
            }
            break;
        }
    }
}

void
FrameDecoder::feed(std::span<const std::uint8_t> bytes)
{
    // Everything before the open candidate (all of it between frames)
    // has been consumed for good.
    const std::size_t keep = state == State::Sync ? head : candidateStart;
    backlog.erase(backlog.begin(),
                  backlog.begin() + static_cast<std::ptrdiff_t>(keep));
    head -= keep;
    candidateStart -= std::min(candidateStart, keep);
    backlog.insert(backlog.end(), bytes.begin(), bytes.end());
    drain();
}

void
FrameDecoder::resync()
{
    if (state == State::Sync)
        return;
    fail();
    drain();
}

void
FrameDecoder::tickStall(double now, double timeout_seconds)
{
    if (state == State::Sync) {
        stallSince = -1.0;
        return;
    }
    if (stallSince < 0.0 || stallObservedEpoch != candidateEpoch) {
        stallObservedEpoch = candidateEpoch;
        stallSince = now;
        return;
    }
    if (now - stallSince > timeout_seconds) {
        resync();
        stallSince = -1.0;
    }
}

std::optional<Frame>
FrameDecoder::poll()
{
    if (ready.empty())
        return std::nullopt;
    Frame frame = std::move(ready.front());
    ready.pop_front();
    return frame;
}

} // namespace sidewinder::transport
