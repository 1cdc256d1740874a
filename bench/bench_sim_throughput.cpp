/**
 * @file
 * Google-benchmark microbenchmarks of the framework itself:
 * simulation throughput (shader cycles/second), power-model
 * evaluation rate, and circuit-model construction cost. These guard
 * against performance regressions of the simulator.
 */

#include <benchmark/benchmark.h>

#include "circuit/array.hh"
#include "power/chip_power.hh"
#include "sim/simulator.hh"
#include "workloads/microbench.hh"

using namespace gpusimpow;

namespace {

void
BM_SimulateOccupancyKernel(benchmark::State &state)
{
    Simulator sim(GpuConfig::gt240());
    uint32_t sink = sim.gpu().allocator().alloc(64 * 1024);
    perf::KernelProgram prog = workloads::makeOccupancyKernel(
        static_cast<unsigned>(state.range(0)), sink);
    perf::LaunchConfig lc;
    lc.grid = {12, 1};
    lc.block = {256, 1};
    uint64_t cycles = 0;
    for (auto _ : state) {
        KernelRun run = sim.runKernel(prog, lc);
        cycles += run.perf.cycles;
        benchmark::DoNotOptimize(run.perf.cycles);
    }
    state.counters["shader_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateOccupancyKernel)->Arg(200)->Arg(1000);

void
BM_CaptureIssueSparse(benchmark::State &state)
{
    // Timing capture of a latency-bound kernel: four warps per core
    // chase DRAM, so cores issue a few instructions per round trip and
    // sleep in between — the issue-sparse regime of the cold sweep.
    GpuConfig cfg = GpuConfig::gt240();
    Simulator sim(cfg);
    const unsigned iterations = static_cast<unsigned>(state.range(0));
    perf::LaunchConfig lc;
    lc.grid = {2 * cfg.numCores(), 1};
    lc.block = {64, 1};
    uint32_t buf = sim.gpu().allocator().alloc(
        lc.grid.x * lc.block.x * 4 + iterations * 4096);
    perf::KernelProgram prog =
        workloads::makeLatencyBoundKernel(iterations, buf);
    uint64_t cycles = 0;
    for (auto _ : state) {
        KernelSnapshot snap = sim.capturePerf(prog, lc, false, 0.0);
        cycles += snap.perf.cycles;
        benchmark::DoNotOptimize(snap.perf.cycles);
    }
    state.counters["shader_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CaptureIssueSparse)->Name("capture/issue_sparse")->Arg(200);

void
BM_CaptureIssueDense(benchmark::State &state)
{
    // Timing capture of an issue-dense kernel shaped like mergeSort3:
    // 8-lane guarded LFSR bodies under full-lane loop control, so the
    // cores issue nearly every cycle and functional execution
    // dominates — the issue-dense regime of the cold sweep.
    GpuConfig cfg = GpuConfig::gt240();
    Simulator sim(cfg);
    uint32_t sink = sim.gpu().allocator().alloc(64 * 1024);
    perf::KernelProgram prog = workloads::makeIntMicrobench(
        static_cast<unsigned>(state.range(0)), 8, sink);
    perf::LaunchConfig lc;
    lc.grid = {2 * cfg.numCores(), 1};
    lc.block = {256, 1};
    uint64_t cycles = 0;
    for (auto _ : state) {
        KernelSnapshot snap = sim.capturePerf(prog, lc, false, 0.0);
        cycles += snap.perf.cycles;
        benchmark::DoNotOptimize(snap.perf.cycles);
    }
    state.counters["shader_cycles/s"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CaptureIssueDense)->Name("capture/issue_dense")->Arg(100);

void
BM_PowerModelEvaluate(benchmark::State &state)
{
    GpuConfig cfg = GpuConfig::gt240();
    power::GpuPowerModel model(cfg);
    perf::ChipActivity act;
    act.cores.resize(cfg.numCores());
    for (auto &c : act.cores) {
        c.cycles_resident = 1000000;
        c.int_lane_ops = 32000000;
        c.fp_lane_ops = 16000000;
        c.rf_bank_reads = 24000000;
    }
    act.cluster_busy_cycles.assign(cfg.clusters, 1000000);
    act.gpu_busy_cycles = 1000000;
    act.shader_cycles = 1000000;
    act.elapsed_s = 1e-3;
    for (auto _ : state) {
        power::PowerReport rep = model.evaluate(act);
        benchmark::DoNotOptimize(rep.gpu.totalDynamic());
    }
}
BENCHMARK(BM_PowerModelEvaluate);

void
BM_SramArrayModel(benchmark::State &state)
{
    tech::TechNode t = tech::TechNode::make(40, 1.05, 350.0);
    circuit::SramParams p;
    p.entries = static_cast<unsigned>(state.range(0));
    p.bits_per_entry = 128;
    for (auto _ : state) {
        circuit::SramArray array(p, t);
        benchmark::DoNotOptimize(array.readEnergy());
    }
}
BENCHMARK(BM_SramArrayModel)->Arg(256)->Arg(4096);

} // namespace

BENCHMARK_MAIN();
