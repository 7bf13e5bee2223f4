#include "check.h"

#include <cstdio>
#include <set>

namespace perfbench {

void
addField(std::string &fingerprint, const char *name, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    fingerprint += name;
    fingerprint += '=';
    fingerprint += buf;
    fingerprint += ' ';
}

void
addField(std::string &fingerprint, const char *name, std::uint64_t value)
{
    fingerprint += name;
    fingerprint += '=';
    fingerprint += std::to_string(value);
    fingerprint += ' ';
}

void
addField(std::string &fingerprint, const char *name,
         const std::string &value)
{
    fingerprint += name;
    fingerprint += '=';
    fingerprint += value;
    fingerprint += ' ';
}

OutputCheck::OutputCheck(const Golden *golden_cells)
{
    if (golden_cells == nullptr)
        return;
    useGolden = true;
    for (const auto &[key, value] : *golden_cells)
        golden[key] = value;
}

void
OutputCheck::fail(const std::string &message)
{
    ++failedCells;
    if (messages.size() < 8)
        messages.push_back(message);
}

std::size_t
OutputCheck::check(const std::vector<CellResult> &cells)
{
    const std::size_t failed_before = failedCells;
    std::set<std::string> seen;
    for (const auto &cell : cells) {
        ++attemptedCells;
        seen.insert(cell.key);
        if (!cell.invariantsHold) {
            fail(cell.key + ": invariant violated: " + cell.fingerprint);
            continue;
        }
        if (haveFirst) {
            const auto it = first.find(cell.key);
            if (it == first.end() || it->second != cell.fingerprint) {
                fail(cell.key + ": differs from the first iteration: " +
                     cell.fingerprint);
                continue;
            }
        }
        if (useGolden) {
            const auto it = golden.find(cell.key);
            if (it == golden.end() || it->second != cell.fingerprint) {
                fail(cell.key + ": differs from the golden: " +
                     cell.fingerprint);
                continue;
            }
        }
    }
    // A golden cell the job no longer produces is a failed cell too.
    if (useGolden)
        for (const auto &[key, value] : golden)
            if (!seen.count(key)) {
                ++attemptedCells;
                fail(key + ": golden cell missing");
            }
    if (!haveFirst) {
        for (const auto &cell : cells)
            first[cell.key] = cell.fingerprint;
        haveFirst = true;
    }
    return failedCells - failed_before;
}

} // namespace perfbench
