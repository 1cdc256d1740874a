/**
 * @file
 * The traced run: executes a job sequence on one thread through the
 * simulator's public layer calls, in the order SimulationEngine and
 * SweepSession make them (group scenarios by snapshot key, ask the
 * session memory and then the store, capture the first member and
 * batch-replay the rest), and times every call from outside. The
 * program itself is not instrumented; the tables the traced run
 * produces are checked against the untraced run's.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "power/batched.hh"
#include "sim/session.hh"
#include "store/store.hh"

namespace perfbench {

/** Host time and work counts per layer, summed over a traced run. */
struct LayerTimes
{
    double to_spec_s = 0;
    double plan_s = 0; // expand + snapshot-key grouping
    double store_open_s = 0;
    double prepare_s = 0;
    double verify_s = 0;
    double capture_s = 0;
    double capture_sparse_s = 0;
    double capture_dense_s = 0;
    double fetch_s = 0;
    double put_s = 0;
    double model_build_s = 0;
    double batched_eval_s = 0;
    double replay_thermal_s = 0;
    double replay_nothermal_s = 0;
    double governed_s = 0;

    uint64_t shader_cycles = 0;   // captured kernels
    uint64_t warp_insts = 0;      // issued warp instructions
    uint64_t core_cycles = 0;     // resident (stepped) core-cycles
    uint64_t variant_intervals = 0;
    uint64_t bytes_read = 0;
    uint64_t bytes_written = 0;

    /** Sum of the disjoint top-level calls above. */
    double attributed() const;
};

/** Single-threaded stand-in for SweepSession::submit. */
class TracedRunner
{
  public:
    TracedRunner(sim::EngineOptions options, store::StoreHandle store);

    /** toSpec + run one job; returns the table like submit(). */
    sim::SweepResult submit(const sim::SweepRequest &request);

    LayerTimes layers;
    /** Every snapshot the run captured or fetched (for the
     *  serialize/parse probe). */
    std::vector<std::shared_ptr<const ActivitySnapshot>> snapshots;

  private:
    sim::ScenarioResult capture(const sim::Scenario &s,
                                Simulator &simulator,
                                ActivitySnapshot &snap);
    sim::ScenarioResult runGoverned(const sim::Scenario &s,
                                    Simulator &simulator);
    sim::ScenarioResult replayOne(const sim::Scenario &s,
                                  const ActivitySnapshot &snap,
                                  Simulator &simulator);
    void replayGroup(const std::vector<sim::Scenario> &scenarios,
                     const std::vector<std::size_t> &unit,
                     std::size_t first, const ActivitySnapshot &snap,
                     sim::SweepResult &table);
    std::unique_ptr<Simulator> build(const GpuConfig &cfg);
    KernelRun replayKernel(Simulator &simulator,
                           const KernelSnapshot &snap,
                           const power::BatchedKernelPower *rows);

    sim::EngineOptions _options;
    store::StoreHandle _store;
    /** Only for storeKey(): the key schema stays the program's. */
    sim::SweepSession _keys;
    std::map<std::string, std::shared_ptr<const ActivitySnapshot>>
        _memory;
    power::BatchedPowerEvaluator::Workspace _ws;
};

/** Serialize and re-parse every snapshot: the snapshot layer's cost
 *  (nested inside store put/fetch on the real path). */
struct SnapshotProbe
{
    double serialize_s = 0;
    double parse_s = 0;
    uint64_t bytes = 0;
    bool roundtrip_ok = true;
};
SnapshotProbe probeSnapshots(
    const std::vector<std::shared_ptr<const ActivitySnapshot>> &snaps);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
