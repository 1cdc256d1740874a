#include "perf/gpu.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace gpusimpow {
namespace perf {

namespace {

/** Hard cap against runaway kernels (simulator bug guard). */
constexpr uint64_t max_shader_cycles = 2000000000ull;

/** Wake-up cycle of a core with no pending event. */
constexpr uint64_t never = ~0ull;

/** The timing layer's instrument set, published once per run. */
struct PerfMetrics
{
    obs::Counter &kernels;
    obs::Counter &shader_cycles;
    obs::Counter &warp_insts;
    obs::Counter &core_steps;
    obs::Counter &core_cycles_slept;
    obs::Counter &dram_accesses;

    static PerfMetrics &instance()
    {
        obs::Registry &reg = obs::Registry::instance();
        static PerfMetrics m{
            reg.counter("perf/kernels", "kernels run by the timing model"),
            reg.counter("perf/shader_cycles",
                        "shader cycles simulated, summed over kernels"),
            reg.counter("perf/warp_insts", "warp instructions issued"),
            reg.counter("perf/core_steps",
                        "resident core-cycles stepped one by one"),
            reg.counter("perf/core_cycles_slept",
                        "resident core-cycles booked in bulk while the "
                        "core slept until its next event"),
            reg.counter("perf/dram_accesses",
                        "DRAM read and write bursts"),
        };
        return m;
    }
};

} // namespace

Gpu::Gpu(const GpuConfig &cfg)
    : _cfg(cfg), _memsys(cfg)
{
    // Cores hold a reference to the configuration: it must be this
    // object's copy, never the constructor argument (which may be a
    // temporary).
    for (unsigned c = 0; c < _cfg.numCores(); ++c) {
        _cores.push_back(std::make_unique<Core>(_cfg, c, _memsys, _gmem,
                                                _cmem));
    }
    _cluster_busy.assign(_cfg.clusters, 0);
}

void
Gpu::memcpyToDevice(uint32_t dst, const void *src, size_t bytes)
{
    _gmem.write(dst, src, bytes);
    _pcie_bytes += bytes;
}

void
Gpu::memcpyToHost(void *dst, uint32_t src, size_t bytes)
{
    _gmem.read(src, dst, bytes);
    _pcie_bytes += bytes;
}

void
Gpu::resetDeviceState()
{
    for (const auto &core : _cores)
        GSP_ASSERT(!core->busy(), "resetDeviceState with a busy core");
    _gmem.reset();
    _cmem.reset();
    _alloc.reset();
    _pcie_bytes = 0;
    _pcie_baseline = 0;
    _blocks_dispatched = 0;
    _gpu_busy = 0;
    _cluster_busy.assign(_cfg.clusters, 0);
}

void
Gpu::setFreqScale(double freq_scale)
{
    GSP_ASSERT(freq_scale > 0.0, "freq_scale must be positive");
    for (const auto &core : _cores)
        GSP_ASSERT(!core->busy(), "setFreqScale with a busy core");
    _cfg.clocks.freq_scale = freq_scale;
    _memsys.setClocks(_cfg.clocks);
}

int
Gpu::pickCoreForBlock() const
{
    // Hardware policy observed in Fig. 4: prefer an idle core in the
    // least-loaded cluster, so clusters light up one by one before
    // any core receives a second block.
    int best = -1;
    unsigned best_core_load = ~0u;
    unsigned best_cluster_load = ~0u;

    for (unsigned c = 0; c < _cores.size(); ++c) {
        if (!_cores[c]->canAcceptBlock())
            continue;
        unsigned core_load = _cores[c]->residentBlocks();
        unsigned cl_load = clusterLoad(clusterOf(c));
        if (core_load < best_core_load ||
            (core_load == best_core_load && cl_load < best_cluster_load)) {
            best = static_cast<int>(c);
            best_core_load = core_load;
            best_cluster_load = cl_load;
        }
    }
    return best;
}

unsigned
Gpu::clusterLoad(unsigned cluster) const
{
    unsigned load = 0;
    for (unsigned i = 0; i < _cfg.cores_per_cluster; ++i)
        load += _cores[cluster * _cfg.cores_per_cluster + i]
                    ->residentBlocks();
    return load;
}

bool
Gpu::clusterBusy(unsigned cluster) const
{
    for (unsigned i = 0; i < _cfg.cores_per_cluster; ++i) {
        if (_cores[cluster * _cfg.cores_per_cluster + i]->busy())
            return true;
    }
    return false;
}

ChipActivity
Gpu::snapshot(uint64_t cycle)
{
    for (const auto &core : _cores)
        core->settle(cycle);
    ChipActivity act;
    act.cores.reserve(_cores.size());
    for (const auto &core : _cores)
        act.cores.push_back(core->activity());
    act.mem = _memsys.activity();
    act.mem.pcie_bytes = _pcie_bytes - _pcie_baseline;
    act.cluster_busy_cycles = _cluster_busy;
    act.gpu_busy_cycles = _gpu_busy;
    act.blocks_dispatched = _blocks_dispatched;
    act.shader_cycles = cycle;
    act.elapsed_s = static_cast<double>(cycle) / _cfg.clocks.shaderHz();
    return act;
}

RunResult
Gpu::run(const KernelProgram &prog, const LaunchConfig &launch,
         const SampleFn &sampler, double sample_interval_s)
{
    GSP_TRACE_SPAN("perf/kernel");
    GSP_ASSERT(launch.grid.count() > 0, "empty grid");

    for (auto &core : _cores) {
        core->resetForKernel();
        core->setKernel(&prog, &launch);
    }
    _memsys.resetCounters();
    _memsys.flushCaches();
    _pcie_baseline = _pcie_bytes;
    _cluster_busy.assign(_cfg.clusters, 0);
    _gpu_busy = 0;
    _blocks_dispatched = 0;

    // Linearized block queue (x-major, matching CUDA launch order).
    std::vector<std::pair<unsigned, unsigned>> pending;
    pending.reserve(launch.grid.count());
    for (unsigned y = 0; y < launch.grid.y; ++y)
        for (unsigned x = 0; x < launch.grid.x; ++x)
            pending.emplace_back(x, y);
    size_t next_block = 0;

    uint64_t sample_cycles = 0;
    if (sampler && sample_interval_s > 0.0) {
        sample_cycles = static_cast<uint64_t>(
            sample_interval_s * _cfg.clocks.shaderHz());
        if (sample_cycles == 0)
            sample_cycles = 1;
    }
    ChipActivity prev = snapshot(0);

    auto sample = [&](uint64_t at) {
        _memsys.updateDramCounters();
        ChipActivity now = snapshot(at);
        ChipActivity delta = now.diff(prev);
        double t1 = now.elapsed_s;
        sampler(delta, prev.elapsed_s, t1);
        prev = std::move(now);
    };

    // Event-driven loop: a core is stepped only at its wakeCycle(),
    // and when every busy core sleeps the loop jumps to the earliest
    // wake-up (or sample boundary), booking busy cycles in bulk.
    // Block placement depends only on which warps are resident, so it
    // is retried only after a warp exited.
    uint64_t cycle = 0;
    bool try_dispatch = true;
    while (true) {
        // Global scheduler: place as many blocks as fit this cycle.
        while (try_dispatch && next_block < pending.size()) {
            int core = pickCoreForBlock();
            if (core < 0)
                break;
            _cores[core]->launchBlock(pending[next_block].first,
                                      pending[next_block].second, cycle);
            ++next_block;
            ++_blocks_dispatched;
        }
        try_dispatch = false;

        bool any_busy = false;
        uint64_t wake = never;
        for (unsigned cl = 0; cl < _cfg.clusters; ++cl) {
            bool cl_busy = false;
            for (unsigned i = 0; i < _cfg.cores_per_cluster; ++i) {
                Core &core = *_cores[cl * _cfg.cores_per_cluster + i];
                if (!core.busy())
                    continue;
                cl_busy = true;
                if (core.wakeCycle() <= cycle) {
                    core.step(cycle);
                    try_dispatch |= core.takeCapacityFreed();
                }
                wake = std::min(wake, core.wakeCycle());
            }
            if (cl_busy) {
                ++_cluster_busy[cl];
                any_busy = true;
            }
        }
        if (!any_busy && next_block < pending.size())
            fatal("kernel ", prog.name, ": no core can accept a block (",
                  next_block, " of ", pending.size(),
                  " dispatched; check max_blocks and the per-core "
                  "thread, register and shared-memory limits)");
        if (any_busy || next_block < pending.size())
            ++_gpu_busy;

        ++cycle;
        if (sample_cycles && cycle % sample_cycles == 0)
            sample(cycle);

        if (!any_busy && next_block >= pending.size())
            break;

        if (!try_dispatch && wake > cycle) {
            // Every busy core sleeps past this cycle and no block can
            // be placed before one of them wakes.
            if (wake == never)
                fatal("kernel ", prog.name, " stalled at shader cycle ",
                      cycle, ": no resident warp can ever issue and no "
                      "event is pending (check issue_width)");
            uint64_t target = wake;
            if (sample_cycles)
                target = std::min(
                    target, (cycle / sample_cycles + 1) * sample_cycles);
            uint64_t skipped = target - cycle;
            for (unsigned cl = 0; cl < _cfg.clusters; ++cl) {
                if (clusterBusy(cl))
                    _cluster_busy[cl] += skipped;
            }
            _gpu_busy += skipped;
            cycle = target;
            if (sample_cycles && cycle % sample_cycles == 0)
                sample(cycle);
        }
        if (cycle > max_shader_cycles)
            fatal("kernel ", prog.name, " exceeded ", max_shader_cycles,
                  " shader cycles — livelock?");
    }

    _memsys.updateDramCounters();
    ChipActivity final_act = snapshot(cycle);
    if (sample_cycles) {
        // Flush the tail interval.
        ChipActivity delta = final_act.diff(prev);
        if (delta.shader_cycles > 0)
            sampler(delta, prev.elapsed_s, final_act.elapsed_s);
    }

    RunResult result;
    result.cycles = cycle;
    result.time_s = final_act.elapsed_s;
    result.activity = final_act;
    uint64_t resident = 0;
    uint64_t slept = 0;
    for (unsigned c = 0; c < _cores.size(); ++c) {
        result.instructions += final_act.cores[c].issued_insts;
        resident += final_act.cores[c].cycles_resident;
        slept += _cores[c]->cyclesSlept();
    }
    PerfMetrics &m = PerfMetrics::instance();
    m.kernels.add(1);
    m.shader_cycles.add(cycle);
    m.warp_insts.add(result.instructions);
    m.core_steps.add(resident - slept);
    m.core_cycles_slept.add(slept);
    m.dram_accesses.add(final_act.mem.dram_read_bursts +
                        final_act.mem.dram_write_bursts);
    return result;
}

} // namespace perf
} // namespace gpusimpow
