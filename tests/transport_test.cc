/**
 * @file
 * Unit tests for the transport layer: CRC, frame codec with fault
 * injection, message serialization, and UART timing. The decoder is
 * checked against a byte-at-a-time reference model under every way of
 * splitting its input, the link against a sequential model of its
 * delivery times, and reliable retransmits against a fresh encoding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <iterator>
#include <memory>

#include "sim/faults.h"
#include "support/error.h"
#include "support/rng.h"
#include "transport/crc.h"
#include "transport/frame.h"
#include "transport/link.h"
#include "transport/messages.h"
#include "transport/reliable.h"

namespace sidewinder::transport {
namespace {

TEST(Crc16, KnownVector)
{
    // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
    const std::string text = "123456789";
    std::vector<std::uint8_t> data(text.begin(), text.end());
    EXPECT_EQ(crc16(data), 0x29B1);
}

TEST(Crc16, EmptyIsInit)
{
    EXPECT_EQ(crc16({}), 0xFFFF);
}

TEST(Crc16, TableStepMatchesBitwiseDefinition)
{
    for (unsigned crc = 0; crc < 0x10000; crc += 0x3F) {
        for (unsigned byte = 0; byte < 256; ++byte) {
            auto want = static_cast<std::uint16_t>(crc ^ (byte << 8));
            for (int bit = 0; bit < 8; ++bit)
                want = static_cast<std::uint16_t>(
                    want & 0x8000 ? (want << 1) ^ 0x1021 : want << 1);
            ASSERT_EQ(crc16Step(static_cast<std::uint16_t>(crc),
                                static_cast<std::uint8_t>(byte)),
                      want)
                << "crc " << crc << " byte " << byte;
        }
    }
}

TEST(FrameCodec, RoundTripsPayload)
{
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload = {1, 2, 3, 0x7E, 0xFF, 0};

    FrameDecoder decoder;
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_EQ(decoder.droppedBytes(), 0u);
}

TEST(FrameCodec, RoundTripsEmptyPayload)
{
    Frame frame;
    frame.type = MessageType::ConfigAck;

    FrameDecoder decoder;
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(decoded->payload.empty());
}

TEST(FrameCodec, RejectsOversizedPayload)
{
    Frame frame;
    frame.payload.assign(maxPayloadBytes + 1, 0);
    EXPECT_THROW(encodeFrame(frame), TransportError);
}

TEST(FrameCodec, ResynchronizesAfterNoise)
{
    Frame frame;
    frame.type = MessageType::ConfigPush;
    frame.payload = {42, 43};

    FrameDecoder decoder;
    decoder.feed(std::vector<std::uint8_t>{0x00, 0x13, 0x37}); // noise
    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    EXPECT_EQ(decoder.droppedBytes(), 3u);
}

TEST(FrameCodec, DropsCorruptedFrameButRecovers)
{
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload = {9, 9, 9, 9};

    auto corrupted = encodeFrame(frame);
    corrupted[5] ^= 0x40; // flip a payload bit -> CRC mismatch

    FrameDecoder decoder;
    decoder.feed(corrupted);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_GT(decoder.droppedBytes(), 0u);

    decoder.feed(encodeFrame(frame));
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
}

TEST(FrameCodec, SurvivesRandomNoiseBetweenFrames)
{
    Rng rng(17);
    FrameDecoder decoder;
    std::size_t delivered = 0;
    for (int round = 0; round < 50; ++round) {
        // Noise burst (may accidentally contain SOF bytes).
        const auto noise_len = rng.uniformInt(0, 20);
        for (long i = 0; i < noise_len; ++i)
            decoder.feed(
                static_cast<std::uint8_t>(rng.uniformInt(0, 255)));

        Frame frame;
        frame.type = MessageType::WakeUp;
        frame.payload = {static_cast<std::uint8_t>(round)};
        decoder.feed(encodeFrame(frame));
        while (auto f = decoder.poll()) {
            // Only count frames with our expected shape; noise can
            // theoretically fabricate a valid frame but CRC16 makes
            // that vanishingly rare within 50 rounds.
            if (f->type == MessageType::WakeUp &&
                f->payload.size() == 1)
                ++delivered;
        }
    }
    // Noise may eat the frame that follows it (the decoder may be
    // mid-"frame" when the real SOF arrives), but most must survive.
    EXPECT_GE(delivered, 25u);
}

/**
 * The decoder's contract, one byte at a time: a candidate opens at an
 * SOF; a bad type, an oversized length or a CRC mismatch drops that
 * SOF (one dropped byte) and rescans everything after it; a byte seen
 * outside a candidate that is not an SOF is dropped. FrameDecoder must
 * agree with it frame for frame and on droppedBytes().
 */
class ReferenceDecoder
{
  public:
    void
    feed(const std::vector<std::uint8_t> &bytes)
    {
        pending.insert(pending.end(), bytes.begin(), bytes.end());
        drain();
    }

    void
    resync()
    {
        if (!raw.empty()) {
            fail();
            drain();
        }
    }

    std::vector<Frame> frames;
    std::size_t dropped = 0;

  private:
    void
    fail()
    {
        ++dropped;
        pending.insert(pending.begin(), raw.begin() + 1, raw.end());
        raw.clear();
    }

    void
    drain()
    {
        while (!pending.empty()) {
            const std::uint8_t byte = pending.front();
            pending.pop_front();
            if (raw.empty()) {
                if (byte == frameSof)
                    raw.push_back(byte);
                else
                    ++dropped;
                continue;
            }
            raw.push_back(byte);
            if (raw.size() == 2 &&
                (byte < 1 ||
                 byte > static_cast<std::uint8_t>(MessageType::UpdateAck))) {
                fail();
                continue;
            }
            if (raw.size() < 4)
                continue;
            const std::size_t length =
                raw[2] | static_cast<std::size_t>(raw[3]) << 8;
            if (length > maxPayloadBytes) {
                fail();
                continue;
            }
            if (raw.size() < length + 6)
                continue;
            const std::vector<std::uint8_t> body(raw.begin() + 1,
                                                 raw.end() - 2);
            const auto crc = static_cast<std::uint16_t>(
                raw[raw.size() - 2] << 8 | raw.back());
            if (crc16(body) != crc) {
                fail();
                continue;
            }
            Frame frame;
            frame.type = static_cast<MessageType>(raw[1]);
            frame.payload.assign(raw.begin() + 4, raw.end() - 2);
            frames.push_back(std::move(frame));
            raw.clear();
        }
    }

    std::deque<std::uint8_t> pending;
    std::vector<std::uint8_t> raw;
};

/** Append a random frame, noise burst or truncated candidate. */
void
appendRandomTraffic(Rng &rng, std::vector<std::uint8_t> &stream)
{
    const auto pick = rng.uniformInt(0, 9);
    if (pick < 5) {
        Frame frame;
        frame.type = static_cast<MessageType>(rng.uniformInt(1, 14));
        const auto length = rng.uniformInt(0, 200);
        // Some payloads are nothing but SOF bytes.
        const bool sof_dense = rng.chance(0.2);
        for (long i = 0; i < length; ++i)
            frame.payload.push_back(
                sof_dense ? frameSof
                          : static_cast<std::uint8_t>(
                                rng.uniformInt(0, 255)));
        const auto wire = encodeFrame(frame);
        stream.insert(stream.end(), wire.begin(), wire.end());
    } else if (pick < 8) {
        const auto length = rng.uniformInt(1, 30);
        for (long i = 0; i < length; ++i)
            stream.push_back(static_cast<std::uint8_t>(
                rng.chance(0.25) ? frameSof : rng.uniformInt(0, 255)));
    } else {
        // A header whose (valid) length promises more payload than
        // follows: it swallows the traffic behind it until a CRC
        // check or a resync gives the bytes back.
        const auto length = rng.uniformInt(300, 4096);
        stream.push_back(frameSof);
        stream.push_back(static_cast<std::uint8_t>(MessageType::WakeUp));
        stream.push_back(static_cast<std::uint8_t>(length & 0xFF));
        stream.push_back(static_cast<std::uint8_t>(length >> 8));
    }
}

/** A random stream with a few bits flipped in transit. */
std::vector<std::uint8_t>
randomCorruptedStream(Rng &rng, int pieces)
{
    std::vector<std::uint8_t> stream;
    for (int i = 0; i < pieces; ++i)
        appendRandomTraffic(rng, stream);
    const auto flips = rng.uniformInt(0, 4);
    for (long f = 0; f < flips && !stream.empty(); ++f)
        stream[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(stream.size()) - 1))] ^=
            static_cast<std::uint8_t>(1u << rng.uniformInt(0, 7));
    return stream;
}

enum class Split { Whole, ByteByByte, Random };

/** Feed @p bytes to @p decoder in pieces chosen by @p split. */
void
feedSplit(FrameDecoder &decoder, const std::vector<std::uint8_t> &bytes,
          Split split, Rng &rng)
{
    std::size_t at = 0;
    while (at < bytes.size()) {
        std::size_t take = bytes.size() - at;
        if (split == Split::ByteByByte)
            take = 1;
        else if (split == Split::Random)
            take = std::min<std::size_t>(
                take, static_cast<std::size_t>(rng.uniformInt(0, 64)));
        decoder.feed(std::span(bytes.data() + at, take));
        at += take;
    }
}

TEST(FrameDecoderEquivalence, AnySplitMatchesReferenceModel)
{
    Rng rng(0x5EA1);
    for (int trial = 0; trial < 150; ++trial) {
        // Two halves with a stall resync between them, and whatever
        // candidate is still open at the end flushed the same way.
        const auto first = randomCorruptedStream(rng, 12);
        const auto second = randomCorruptedStream(rng, 12);

        ReferenceDecoder reference;
        reference.feed(first);
        reference.resync();
        reference.feed(second);
        for (int i = 0; i < 64; ++i)
            reference.resync();

        for (Split split : {Split::Whole, Split::ByteByByte, Split::Random}) {
            FrameDecoder decoder;
            feedSplit(decoder, first, split, rng);
            // The stall watchdog: the first tick notes the open
            // candidate, the second (past the timeout) resyncs it.
            decoder.tickStall(0.0);
            decoder.tickStall(2.0 * frameStallTimeoutSeconds);
            feedSplit(decoder, second, split, rng);
            for (int i = 0; i < 64; ++i)
                decoder.resync();

            std::vector<Frame> frames;
            while (auto frame = decoder.poll())
                frames.push_back(std::move(*frame));
            const auto where = ::testing::Message()
                               << "trial " << trial << " split "
                               << static_cast<int>(split);
            EXPECT_EQ(frames, reference.frames) << where;
            EXPECT_EQ(decoder.droppedBytes(), reference.dropped) << where;
            EXPECT_FALSE(decoder.midFrame()) << where;
        }
    }
}

TEST(FrameDecoderEquivalence, StalledCandidateReleasesTheFrameBehindIt)
{
    Frame frame;
    frame.type = MessageType::WakeUp;
    frame.payload.assign(40, frameSof);
    const auto wire = encodeFrame(frame);

    // A header claiming 4000 bytes, then the real frame: only the
    // watchdog's resync gets the frame out from under the candidate.
    std::vector<std::uint8_t> stream = {
        frameSof, static_cast<std::uint8_t>(MessageType::WakeUp),
        4000 & 0xFF, 4000 >> 8};
    stream.insert(stream.end(), wire.begin(), wire.end());

    FrameDecoder decoder;
    decoder.feed(stream);
    EXPECT_FALSE(decoder.poll().has_value());
    EXPECT_TRUE(decoder.midFrame());
    decoder.tickStall(10.0);
    decoder.tickStall(10.5);
    EXPECT_TRUE(decoder.midFrame()); // not yet past the timeout
    decoder.tickStall(11.5);
    const auto decoded = decoder.poll();
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, frame);
    // The fake header's SOF, type and length bytes.
    EXPECT_EQ(decoder.droppedBytes(), 4u);
}

TEST(Messages, ConfigPushRoundTrip)
{
    ConfigPushMessage message{7, "ACC_X -> movingAvg(id=1);\n"};
    const auto decoded = decodeConfigPush(encodeConfigPush(message));
    EXPECT_EQ(decoded.conditionId, 7);
    EXPECT_EQ(decoded.ilText, message.ilText);
}

TEST(Messages, RejectRoundTripPreservesReason)
{
    ConfigRejectMessage message{3, "capability exceeded"};
    const auto decoded =
        decodeConfigReject(encodeConfigReject(message));
    EXPECT_EQ(decoded.conditionId, 3);
    EXPECT_EQ(decoded.reason, "capability exceeded");
}

TEST(Messages, WakeUpRoundTripPreservesRawData)
{
    WakeUpMessage message;
    message.conditionId = 2;
    message.timestamp = 123.456;
    message.triggerValue = -6.5;
    message.rawData = {0.1, -0.2, 9.81};
    const auto decoded = decodeWakeUp(encodeWakeUp(message));
    EXPECT_EQ(decoded.conditionId, 2);
    EXPECT_DOUBLE_EQ(decoded.timestamp, 123.456);
    EXPECT_DOUBLE_EQ(decoded.triggerValue, -6.5);
    ASSERT_EQ(decoded.rawData.size(), 3u);
    EXPECT_DOUBLE_EQ(decoded.rawData[2], 9.81);
}

TEST(Messages, TypeMismatchThrows)
{
    const auto frame = encodeConfigAck({1});
    EXPECT_THROW(decodeWakeUp(frame), TransportError);
}

TEST(Messages, TruncatedPayloadThrows)
{
    auto frame = encodeWakeUp({1, 0.0, 0.0, {1.0, 2.0}});
    frame.payload.resize(frame.payload.size() - 4);
    EXPECT_THROW(decodeWakeUp(frame), TransportError);
}

TEST(UartLink, RejectsBadBaud)
{
    EXPECT_THROW(UartLink(0.0), TransportError);
}

TEST(UartLink, TransferTimeMatches8N1)
{
    UartLink link(115200.0);
    EXPECT_NEAR(link.transferSeconds(1152), 0.1, 1e-9);
    EXPECT_NEAR(link.bandwidthBitsPerSecond(), 92160.0, 1e-9);
}

TEST(UartLink, DeliversOnlyAfterSerializationDelay)
{
    UartLink link(1000.0); // 10 ms per byte
    link.send({1, 2, 3}, 0.0);
    EXPECT_TRUE(link.receive(0.005).empty());
    EXPECT_EQ(link.receive(0.0101).size(), 1u);
    EXPECT_EQ(link.receive(0.0301).size(), 2u);
    EXPECT_EQ(link.pendingBytes(0.0301), 0u);
}

TEST(UartLink, QueuesBackToBackSends)
{
    UartLink link(1000.0);
    link.send({1}, 0.0);
    link.send({2}, 0.0); // must wait for the first byte
    auto bytes = link.receive(0.0201);
    ASSERT_EQ(bytes.size(), 2u);
    EXPECT_EQ(bytes[0], 1);
    EXPECT_EQ(bytes[1], 2);
}

TEST(UartLink, CorruptorAffectsDelivery)
{
    UartLink link(1e6);
    link.setCorruptor([](std::span<std::uint8_t> bytes) {
        for (std::uint8_t &b : bytes)
            b ^= 0xFF;
    });
    link.send({0x0F}, 0.0);
    const auto bytes = link.receive(1.0);
    ASSERT_EQ(bytes.size(), 1u);
    EXPECT_EQ(bytes[0], 0xF0);
}

TEST(UartLink, FrameOverCorruptLinkIsDroppedByDecoder)
{
    UartLink link(1e6);
    // Flip one bit of the sixth byte sent.
    std::size_t count = 0;
    link.setCorruptor([&count](std::span<std::uint8_t> bytes) {
        if (count < 6 && count + bytes.size() >= 6)
            bytes[5 - count] ^= 1;
        count += bytes.size();
    });

    Frame frame;
    frame.type = MessageType::ConfigAck;
    frame.payload = {1, 2, 3, 4};
    link.sendFrame(frame, 0.0);

    FrameDecoder decoder;
    decoder.feed(link.receive(1.0));
    EXPECT_FALSE(decoder.poll().has_value());
}

TEST(UartLink, ArmedCorruptionMatchesByteAtATimeReference)
{
    // armLink's span hook must make the decisions of the byte-at-a-time
    // model it replaced: per byte, chance(rate) on that direction's
    // corruption stream, then uniformInt(0, 7) picks the bit on a hit.
    // The streams are forks of Rng(seed) in armLink's order
    // (p2h corrupt, p2h drop, h2p corrupt, h2p drop).
    sim::FaultPlan plan;
    plan.seed = 0xC0DE;
    plan.byteCorruptionRate = 5e-3;
    plan.updateCorruptionRate = 0.2;
    auto update_active = std::make_shared<bool>(false);
    LinkPair links(115200.0);
    sim::armLink(links, plan, update_active);

    Rng root(plan.seed);
    Rng p2h_model = root.fork();
    (void)root.fork();
    Rng h2p_model = root.fork();
    auto corrupt = [&update_active, &plan](Rng &model,
                                           std::vector<std::uint8_t> bytes,
                                           std::size_t &count) {
        const double rate =
            plan.byteCorruptionRate +
            (*update_active ? plan.updateCorruptionRate : 0.0);
        for (auto &byte : bytes) {
            if (!model.chance(rate))
                continue;
            byte ^= static_cast<std::uint8_t>(1u << model.uniformInt(0, 7));
            ++count;
        }
        return bytes;
    };

    Rng traffic(17);
    const std::size_t sizes[] = {0, 1, 2, 7, 64, 255, 300, 1500};
    std::size_t p2h_count = 0;
    std::size_t h2p_count = 0;
    double now = 0.0;
    for (int round = 0; round < 400; ++round) {
        if (round % 3 == 0)
            *update_active = !*update_active;
        for (int dir = 0; dir < 2; ++dir) {
            std::vector<std::uint8_t> bytes(
                sizes[traffic.uniformInt(0, std::size(sizes) - 1)]);
            for (auto &byte : bytes)
                byte = static_cast<std::uint8_t>(traffic.uniformInt(0, 255));
            UartLink &link = dir == 0 ? links.phoneToHub()
                                      : links.hubToPhone();
            const auto want =
                dir == 0 ? corrupt(p2h_model, bytes, p2h_count)
                         : corrupt(h2p_model, bytes, h2p_count);
            link.send(bytes, now);
            now = link.busyUntil();
            const auto got = link.receive(now);
            ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(),
                                   want.end()))
                << "round " << round << " direction " << dir;
        }
        ASSERT_EQ(links.phoneToHub().corruptedBytes(), p2h_count);
        ASSERT_EQ(links.hubToPhone().corruptedBytes(), h2p_count);
    }
    // The hit path (the bit-choice draw) ran many times.
    EXPECT_GT(p2h_count, 1000u);
    EXPECT_GT(h2p_count, 1000u);
}


TEST(UartLink, SustainedTrafficMatchesSequentialModel)
{
    // Bursty sends and partial receives, long enough for the link to
    // reclaim its received prefix many times, both when it drains and
    // while bytes are still queued. Every delivery time is the same
    // sequential sum the link computes, so the model is exact.
    UartLink link(115200.0);
    Rng rng(0x11A7);
    std::vector<std::uint8_t> sent;
    std::vector<double> due;
    std::size_t received = 0;
    double busy = 0.0;
    double now = 0.0;
    for (int round = 0; round < 4000; ++round) {
        now += rng.uniform(0.0, 0.02);
        if (rng.chance(0.6)) {
            std::vector<std::uint8_t> bytes(
                static_cast<std::size_t>(rng.uniformInt(1, 300)));
            for (auto &byte : bytes)
                byte = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
            link.send(bytes, now);
            double start = std::max(now, busy);
            for (std::uint8_t byte : bytes) {
                start += link.transferSeconds(1);
                sent.push_back(byte);
                due.push_back(start);
            }
            busy = start;
        }
        ASSERT_EQ(link.busyUntil(), busy) << "round " << round;

        std::size_t deliverable = received;
        while (deliverable < due.size() && due[deliverable] <= now + 1e-12)
            ++deliverable;
        ASSERT_EQ(link.pendingBytes(now), due.size() - deliverable)
            << "round " << round;
        if (rng.chance(0.5)) {
            const auto bytes = link.receive(now);
            ASSERT_EQ(bytes.size(), deliverable - received)
                << "round " << round;
            ASSERT_TRUE(std::equal(bytes.begin(), bytes.end(),
                                   sent.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           received)))
                << "round " << round;
            received = deliverable;
        }
    }
    EXPECT_GT(received, 100000u);
}

TEST(UartLink, RetransmitResendsTheFirstTransmissionsBytes)
{
    UartLink tx(115200.0);
    std::size_t drop_calls = 0;
    // Drop the first attempt: the dropper is consulted once per
    // attempt, before any byte is queued.
    tx.setFrameDropper([&drop_calls] { return ++drop_calls == 1; });
    ReliableEndpoint endpoint(tx);
    endpoint.setLocalEpoch(5);

    WakeUpMessage message;
    message.conditionId = 3;
    message.rawData.assign(200, 126.0);
    const Frame inner = encodeWakeUp(message);
    const auto fresh = encodeFrame(encodeReliableData(0, inner, 5));

    endpoint.sendFrame(inner, 0.0);
    EXPECT_EQ(drop_calls, 1u);
    EXPECT_EQ(tx.pendingBytes(0.0), 0u);
    EXPECT_TRUE(tx.receive(10.0).empty());

    // A later epoch must not leak into the queued frame's retransmits.
    endpoint.setLocalEpoch(9);
    for (int attempt = 2; attempt <= 3; ++attempt) {
        const double now = 10.0 * attempt;
        endpoint.tick(now);
        EXPECT_EQ(drop_calls, static_cast<std::size_t>(attempt));
        const auto bytes = tx.receive(now + 1.0);
        EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
                  fresh)
            << "attempt " << attempt;
    }
    EXPECT_EQ(endpoint.stats().framesSent, 1u);
    EXPECT_EQ(endpoint.stats().retransmits, 2u);
    EXPECT_EQ(tx.droppedFrames(), 1u);
}

TEST(SensorBatch, RoundTripsWithQuantization)
{
    SensorBatchMessage message;
    message.channelIndex = 2;
    message.firstTimestamp = 10.5;
    message.sampleRateHz = 50.0;
    message.scale = 1.0 / 1024.0;
    message.samples = {0.0, 1.0, -2.5, 9.81};

    const auto decoded =
        decodeSensorBatch(encodeSensorBatch(message));
    EXPECT_EQ(decoded.channelIndex, 2);
    EXPECT_DOUBLE_EQ(decoded.firstTimestamp, 10.5);
    ASSERT_EQ(decoded.samples.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_NEAR(decoded.samples[i], message.samples[i],
                    message.scale);
}

TEST(SensorBatch, ClampsOutOfRangeValues)
{
    SensorBatchMessage message;
    message.scale = 1.0;
    message.samples = {1e9, -1e9};
    const auto decoded =
        decodeSensorBatch(encodeSensorBatch(message));
    EXPECT_DOUBLE_EQ(decoded.samples[0], 32767.0);
    EXPECT_DOUBLE_EQ(decoded.samples[1], -32768.0);
}

TEST(SensorBatch, RejectsBadScale)
{
    SensorBatchMessage message;
    message.scale = 0.0;
    EXPECT_THROW(encodeSensorBatch(message), TransportError);
}

TEST(SensorBatch, WireOverheadAccounting)
{
    // One frame: 38 bytes of framing/header + 2 per sample.
    EXPECT_EQ(sensorBatchWireBytes(100, 1024), 38u + 200u);
    // Two frames for 2000 samples at 1024 per frame.
    EXPECT_EQ(sensorBatchWireBytes(2000, 1024), 2u * 38u + 4000u);
    EXPECT_THROW(sensorBatchWireBytes(10, 0), TransportError);
}

TEST(SensorBatch, UartFeasibilityMatchesPaperClaims)
{
    // Section 3.4: the serial connection supports low bit-rate
    // sensors (accelerometer, microphone, GPS) but not the camera.
    const UartLink uart(115200.0);
    const double usable = uart.bandwidthBitsPerSecond();
    EXPECT_TRUE(canStreamContinuously(usable, 50.0));     // accel axis
    EXPECT_TRUE(canStreamContinuously(usable, 3 * 50.0)); // 3 axes
    EXPECT_TRUE(canStreamContinuously(usable, 4000.0));   // microphone
    // A camera stream (640*480 pixels at 30 fps) is far beyond UART.
    EXPECT_FALSE(canStreamContinuously(usable, 640.0 * 480.0 * 30.0));
}

} // namespace
} // namespace sidewinder::transport
