/**
 * @file
 * Output check run on every iteration of every workload. Each job
 * reports its results as cells: a key, a fingerprint holding the
 * cell's outputs at full precision, and whether the model's invariants
 * held. A cell fails when its invariants fail, when its fingerprint
 * differs from the same cell in the run's first iteration (repeat
 * determinism), or, on the default seed, when it differs from the
 * golden recorded for it.
 */

#ifndef PERFBENCH_CHECK_H
#define PERFBENCH_CHECK_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct CellResult
{
    std::string key;
    std::string fingerprint;
    bool invariantsHold = true;
};

/** Golden fingerprints by cell key. */
using Golden = std::vector<std::pair<std::string, std::string>>;

/** Appends "name=value " with every digit a double round-trips with. */
void addField(std::string &fingerprint, const char *name, double value);
void addField(std::string &fingerprint, const char *name,
              std::uint64_t value);
void addField(std::string &fingerprint, const char *name,
              const std::string &value);

class OutputCheck
{
  public:
    /** @p golden is null on held-out seeds (no golden comparison). */
    explicit OutputCheck(const Golden *golden);

    /** Check one iteration's cells; returns how many failed. */
    std::size_t check(const std::vector<CellResult> &cells);

    std::size_t attempted() const { return attemptedCells; }
    std::size_t failed() const { return failedCells; }
    /** The first few failure descriptions, for the run's log. */
    const std::vector<std::string> &failures() const { return messages; }

  private:
    void fail(const std::string &message);

    std::map<std::string, std::string> golden;
    bool useGolden = false;
    std::map<std::string, std::string> first;
    bool haveFirst = false;
    std::size_t attemptedCells = 0;
    std::size_t failedCells = 0;
    std::vector<std::string> messages;
};

} // namespace perfbench

#endif // PERFBENCH_CHECK_H
