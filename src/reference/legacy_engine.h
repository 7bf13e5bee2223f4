/**
 * @file
 * Frozen copy of the hub engine's original AST-walking interpreter,
 * kept verbatim (modulo naming) as a behavioral reference.
 *
 * The live hub::Engine executes lowered il::ExecutionPlans in blocks;
 * this class preserves the statement-at-a-time install path and the
 * sample-at-a-time wave loop with per-wave virtual firingPolicy
 * dispatch it replaced. It shares only the kernels, which it calls
 * through a one-wave adapter (Kernel::invokeBlock is their one entry
 * point). The plan property test drives both against identical sample
 * streams — the engine at several block sizes — and requires
 * bit-identical wake events, which is what licenses every future
 * change to the plan path.
 *
 * Do not extend this class: it is a fixture, not a second engine.
 */

#ifndef SIDEWINDER_REFERENCE_LEGACY_ENGINE_H
#define SIDEWINDER_REFERENCE_LEGACY_ENGINE_H

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "hub/engine.h"
#include "hub/kernel.h"
#include "il/ast.h"
#include "il/validate.h"
#include "support/ring_buffer.h"

namespace sidewinder::reference {

/** The pre-ExecutionPlan interpreter, preserved for differential tests. */
class LegacyEngine
{
  public:
    explicit LegacyEngine(std::vector<il::ChannelInfo> channels,
                          bool share_nodes = true,
                          std::size_t raw_buffer_size = 200);

    /** Validate and install a wake-up condition from the AST. */
    void addCondition(int condition_id, const il::Program &program);

    /** Remove a condition, freeing nodes no other condition uses. */
    void removeCondition(int condition_id);

    bool hasCondition(int condition_id) const;

    /**
     * Feed one synchronous sample per channel and run one evaluation
     * wave over the slot array (freed slots skipped in place).
     */
    void pushSamples(const std::vector<double> &values, double timestamp);

    /** Same contract as hub::Engine::drainWakeEvents(out). */
    void drainWakeEvents(std::vector<hub::WakeEvent> &out);

    /** Allocating form of drainWakeEvents(out) for one-shot callers. */
    std::vector<hub::WakeEvent>
    drainWakeEvents()
    {
        std::vector<hub::WakeEvent> out;
        drainWakeEvents(out);
        return out;
    }

    /** Recent raw samples of the condition's primary channel. */
    std::vector<double> rawSnapshot(int condition_id) const;

    /** Live (shared) algorithm instances across all conditions. */
    std::size_t nodeCount() const;

    /** Static compute-demand estimate, AST-derived per node. */
    double estimatedCyclesPerSecond() const;

    /** Static RAM estimate, AST-derived per node. */
    std::size_t estimatedRamBytes() const;

    /** Power-cycle semantics: keep conditions, drop signal state. */
    void resetState();

  private:
    struct Node
    {
        std::string key;
        std::string algorithm;
        std::unique_ptr<hub::Kernel> kernel;
        /** Inputs: node index (>= 0) or channel as -(index + 1). */
        std::vector<int> inputs;
        il::NodeStream stream;
        double cyclesPerInvoke = 0.0;
        double invokeRateHz = 0.0;
        std::size_t ramBytes = 0;
        int refCount = 0;

        // Per-wave state.
        hub::WaveState state = hub::WaveState::Idle;
        hub::Value result;
        /** This wave's inputs; null for a non-emitting one. */
        std::vector<const hub::Value *> scratch;
        /** One-wave adapter scratch: input views, unboxed scalars. */
        std::vector<hub::BlockInput> views;
        std::vector<double> scalars;
    };

    struct Condition
    {
        int id = 0;
        int outNode = -1;
        std::vector<int> ownedNodes;
        int primaryChannel = 0;
    };

    int channelIndexOf(const std::string &name) const;
    /**
     * The one-wave adapter: run @p node's kernel on the inputs in its
     * scratch as a one-wave block (RunPartial when any is null).
     * @return true when the kernel emitted into node.result.
     */
    static bool invokeOneWave(Node &node);

    std::vector<il::ChannelInfo> channelInfos;
    std::unordered_map<std::string, int> channelIndexByName;
    bool shareNodes;
    std::size_t rawBufferSize;

    std::vector<std::unique_ptr<Node>> nodes;
    std::unordered_map<std::string, int> nodeByKey;
    std::map<int, Condition> conditions;
    std::vector<RingBuffer<double>> rawBuffers;
    std::vector<hub::WakeEvent> pendingWakeEvents;
    std::vector<hub::Value> channelValues;
};

} // namespace sidewinder::reference

#endif // SIDEWINDER_REFERENCE_LEGACY_ENGINE_H
