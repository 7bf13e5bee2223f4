#include "transport/link.h"

#include <algorithm>

#include "support/error.h"

namespace sidewinder::transport {

UartLink::UartLink(double baud_rate) : baudRate(baud_rate)
{
    if (!(baud_rate > 0.0))
        throw TransportError("baud rate must be positive");
}

double
UartLink::transferSeconds(std::size_t byte_count) const
{
    // 8N1: start bit + 8 data bits + stop bit per byte.
    return static_cast<double>(byte_count) * 10.0 / baudRate;
}

void
UartLink::send(const std::vector<std::uint8_t> &bytes, double now)
{
    // Reclaim received bytes: all of them once the queue drains, else
    // once they make up half of it, so compaction stays amortized O(1)
    // per byte and any view receive() handed out stays valid until now.
    if (head == queuedBytes.size() || head > queuedBytes.size() / 2) {
        queuedBytes.erase(queuedBytes.begin(),
                          queuedBytes.begin() +
                              static_cast<std::ptrdiff_t>(head));
        deliveryTimes.erase(deliveryTimes.begin(),
                            deliveryTimes.begin() +
                                static_cast<std::ptrdiff_t>(head));
        head = 0;
    }
    const std::size_t first = queuedBytes.size();
    queuedBytes.insert(queuedBytes.end(), bytes.begin(), bytes.end());
    if (corrupt) {
        const std::span<std::uint8_t> fresh(queuedBytes.data() + first,
                                            bytes.size());
        corrupt(fresh);
        for (std::size_t i = 0; i < bytes.size(); ++i)
            corruptedCount += fresh[i] != bytes[i];
    }
    const double byte_seconds = transferSeconds(1);
    double start = std::max(now, lineBusyUntil);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        start += byte_seconds;
        deliveryTimes.push_back(start);
    }
    lineBusyUntil = start;
}

bool
UartLink::dropsFrame()
{
    if (!dropFrame || !dropFrame())
        return false;
    ++droppedFrameCount;
    return true;
}

void
UartLink::sendFrame(const Frame &frame, double now)
{
    if (!dropsFrame())
        send(encodeFrame(frame), now);
}

void
UartLink::sendEncodedFrame(const std::vector<std::uint8_t> &wire,
                           double now)
{
    if (!dropsFrame())
        send(wire, now);
}

std::size_t
UartLink::deliveredBy(double now) const
{
    return static_cast<std::size_t>(
        std::upper_bound(deliveryTimes.begin() +
                             static_cast<std::ptrdiff_t>(head),
                         deliveryTimes.end(), now + 1e-12) -
        deliveryTimes.begin());
}

std::span<const std::uint8_t>
UartLink::receive(double now)
{
    const std::size_t first = head;
    head = deliveredBy(now);
    return {queuedBytes.data() + first, head - first};
}

std::size_t
UartLink::pendingBytes(double now) const
{
    return queuedBytes.size() - deliveredBy(now);
}

} // namespace sidewinder::transport
