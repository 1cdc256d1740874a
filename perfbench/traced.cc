#include "traced.hh"

#include <algorithm>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "power/batched.hh"
#include "workloads/workload.hh"

namespace perfbench {

namespace {

/** Run fn, adding its host time to acc. */
template <typename F>
auto
timed(double &acc, F &&fn)
{
    const double t0 = nowS();
    if constexpr (std::is_void_v<decltype(fn())>) {
        fn();
        acc += nowS() - t0;
    } else {
        auto out = fn();
        acc += nowS() - t0;
        return out;
    }
}

// The two helpers below restate engine.cc's accumulateKernel and
// finalizeScenario, which are internal to the engine; the traced
// tables are compared line by line against the engine's, so any
// drift shows up as a failed check.

void
accumulate(sim::ScenarioResult &result, const std::string &label,
           bool repeatable, KernelRun run)
{
    double card_w = run.report.totalPower() + run.report.dram_w;
    result.time_s += run.perf.time_s;
    result.energy_j += card_w * run.perf.time_s;
    if (run.thermal.enabled) {
        result.thermal = true;
        result.t_max_k = std::max(result.t_max_k, run.thermal.t_max_k);
        result.throttled |= run.thermal.throttled;
        result.thermal_converged &= run.thermal.converged;
        result.min_freq_scale =
            std::min(result.min_freq_scale, run.thermal.op.freq_scale);
    }
    result.kernels.push_back({label, repeatable, std::move(run)});
}

void
finalize(sim::ScenarioResult &result, const Simulator &simulator)
{
    result.avg_power_w =
        result.time_s > 0.0 ? result.energy_j / result.time_s : 0.0;
    result.static_w = simulator.powerModel().staticPower();
    result.area_mm2 = simulator.powerModel().area();
    result.vdd = simulator.powerModel().techNode().vdd;
    result.shader_hz = result.scenario.config.clocks.shaderHz();
}

} // namespace

double
LayerTimes::attributed() const
{
    return to_spec_s + plan_s + store_open_s + prepare_s + verify_s +
           capture_s + fetch_s + put_s + model_build_s + batched_eval_s +
           replay_thermal_s + replay_nothermal_s + governed_s;
}

TracedRunner::TracedRunner(sim::EngineOptions options,
                           store::StoreHandle store)
    : _options(std::move(options)), _store(std::move(store)),
      _keys(_options, nullptr)
{
}

std::unique_ptr<Simulator>
TracedRunner::build(const GpuConfig &cfg)
{
    return timed(layers.model_build_s,
                 [&] { return std::make_unique<Simulator>(cfg); });
}

KernelRun
TracedRunner::replayKernel(Simulator &simulator,
                           const KernelSnapshot &snap,
                           const power::BatchedKernelPower *rows)
{
    double &acc = simulator.config().thermal.enabled
                      ? layers.replay_thermal_s
                      : layers.replay_nothermal_s;
    return timed(acc,
                 [&] { return simulator.replayKernel(snap, rows); });
}

sim::ScenarioResult
TracedRunner::capture(const sim::Scenario &s, Simulator &simulator,
                      ActivitySnapshot &cap)
{
    sim::ScenarioResult result;
    result.scenario = s;
    std::unique_ptr<workloads::Workload> workload;
    std::vector<workloads::KernelLaunch> launches;
    timed(layers.prepare_s, [&] {
        workload = workloads::makeWorkload(s.workload, s.scale);
        launches = workload->prepare(simulator.gpu());
    });
    cap.workload = s.workload;
    cap.scale = s.scale;
    cap.with_trace = _options.with_trace;
    cap.sample_interval_s = _options.sample_interval_s;
    result.min_freq_scale = s.config.clocks.freq_scale;
    for (const workloads::KernelLaunch &kl : launches) {
        const double t0 = nowS();
        KernelSnapshot snap = simulator.capturePerf(
            kl.prog, kl.launch, _options.with_trace,
            _options.sample_interval_s);
        const double dt = nowS() - t0;
        const perf::ChipActivity &act = snap.perf.activity;
        const uint64_t issued =
            act.sumCores(&perf::CoreActivity::issued_insts);
        const uint64_t resident =
            act.sumCores(&perf::CoreActivity::cycles_resident);
        layers.capture_s += dt;
        (resident && double(issued) / double(resident) <
                         issue_sparse_below
             ? layers.capture_sparse_s
             : layers.capture_dense_s) += dt;
        layers.shader_cycles += snap.perf.cycles;
        layers.warp_insts += issued;
        layers.core_cycles += resident;
        snap.label = kl.label;
        snap.repeatable = kl.repeatable;
        KernelRun run = replayKernel(simulator, snap, nullptr);
        cap.kernels.push_back(std::move(snap));
        accumulate(result, kl.label, kl.repeatable, std::move(run));
    }
    finalize(result, simulator);
    result.verified = true;
    if (s.verify && !result.kernels.empty())
        result.verified = timed(layers.verify_s, [&] {
            return workload->verify(simulator.gpu());
        });
    cap.verified = result.verified;
    return result;
}

sim::ScenarioResult
TracedRunner::runGoverned(const sim::Scenario &s, Simulator &simulator)
{
    sim::ScenarioResult result;
    result.scenario = s;
    std::unique_ptr<workloads::Workload> workload;
    std::vector<workloads::KernelLaunch> launches;
    timed(layers.prepare_s, [&] {
        workload = workloads::makeWorkload(s.workload, s.scale);
        launches = workload->prepare(simulator.gpu());
    });
    result.min_freq_scale = s.config.clocks.freq_scale;
    for (const workloads::KernelLaunch &kl : launches) {
        KernelRun run = timed(layers.governed_s, [&] {
            return simulator.runKernel(kl.prog, kl.launch,
                                       _options.with_trace,
                                       _options.sample_interval_s,
                                       kl.repeatable);
        });
        accumulate(result, kl.label, kl.repeatable, std::move(run));
    }
    finalize(result, simulator);
    result.verified = true;
    if (s.verify && !result.kernels.empty())
        result.verified = timed(layers.verify_s, [&] {
            return workload->verify(simulator.gpu());
        });
    return result;
}

sim::ScenarioResult
TracedRunner::replayOne(const sim::Scenario &s,
                        const ActivitySnapshot &snap,
                        Simulator &simulator)
{
    sim::ScenarioResult result;
    result.scenario = s;
    result.min_freq_scale = s.config.clocks.freq_scale;
    for (const KernelSnapshot &k : snap.kernels)
        accumulate(result, k.label, k.repeatable,
                   replayKernel(simulator, k, nullptr));
    finalize(result, simulator);
    result.verified = true;
    if (s.verify && !result.kernels.empty())
        result.verified = snap.verified;
    return result;
}

void
TracedRunner::replayGroup(const std::vector<sim::Scenario> &scenarios,
                          const std::vector<std::size_t> &unit,
                          std::size_t first,
                          const ActivitySnapshot &snap,
                          sim::SweepResult &table)
{
    if (!snap.with_trace) {
        for (std::size_t k = first; k < unit.size(); ++k) {
            const sim::Scenario &variant = scenarios[unit[k]];
            auto simulator = build(variant.config);
            table.set(replayOne(variant, snap, *simulator));
        }
        return;
    }
    std::vector<const sim::Scenario *> variants;
    std::vector<std::unique_ptr<Simulator>> sims;
    bool want_blocks = false;
    for (std::size_t k = first; k < unit.size(); ++k) {
        variants.push_back(&scenarios[unit[k]]);
        sims.push_back(build(variants.back()->config));
        want_blocks |= variants.back()->config.thermal.enabled;
    }
    std::vector<const power::CompiledPowerModel *> models;
    for (const auto &simulator : sims)
        models.push_back(&simulator->powerModel().compiled());
    auto evaluator = timed(layers.batched_eval_s, [&] {
        return power::BatchedPowerEvaluator(std::move(models));
    });

    std::vector<sim::ScenarioResult> results(variants.size());
    for (std::size_t j = 0; j < variants.size(); ++j) {
        results[j].scenario = *variants[j];
        results[j].min_freq_scale = variants[j]->config.clocks.freq_scale;
    }
    std::vector<const perf::ChipActivity *> acts;
    std::vector<power::BatchedKernelPower> pre;
    for (const KernelSnapshot &k : snap.kernels) {
        const bool use_batch = k.with_trace && !k.samples.empty();
        if (use_batch) {
            acts.clear();
            for (const ActivitySample &a : k.samples)
                acts.push_back(&a.delta);
            timed(layers.batched_eval_s, [&] {
                evaluator.evaluate(acts, want_blocks, _ws, pre);
            });
            layers.variant_intervals += acts.size() * variants.size();
        }
        for (std::size_t j = 0; j < variants.size(); ++j)
            accumulate(results[j], k.label, k.repeatable,
                       replayKernel(*sims[j], k,
                                    use_batch ? &pre[j] : nullptr));
    }
    for (std::size_t j = 0; j < variants.size(); ++j) {
        finalize(results[j], *sims[j]);
        results[j].verified = true;
        if (variants[j]->verify && !results[j].kernels.empty())
            results[j].verified = snap.verified;
        table.set(std::move(results[j]));
    }
}

sim::SweepResult
TracedRunner::submit(const sim::SweepRequest &request)
{
    const sim::SweepSpec spec =
        timed(layers.to_spec_s, [&] { return request.toSpec(); });
    // Work units exactly as the engine groups them.
    std::vector<sim::Scenario> scenarios;
    std::vector<std::vector<std::size_t>> units;
    timed(layers.plan_s, [&] {
        scenarios = spec.expand();
        std::unordered_map<std::string, std::size_t> unit_of;
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            if (!scenarios[i].replayable()) {
                units.push_back({i});
                continue;
            }
            auto ins = unit_of.emplace(scenarios[i].snapshotKey(),
                                       units.size());
            if (ins.second)
                units.emplace_back();
            units[ins.first->second].push_back(i);
        }
    });
    sim::SweepResult table(scenarios.size());

    // The engine's one-entry per-worker Simulator cache.
    std::unique_ptr<Simulator> cached;
    std::string cached_fp;
    auto acquire = [&](const sim::Scenario &s) -> Simulator & {
        std::string fp = s.config.toXml();
        if (cached && cached_fp == fp)
            cached->recycle();
        else
            cached = build(s.config);
        cached_fp = std::move(fp);
        return *cached;
    };

    for (const std::vector<std::size_t> &unit : units) {
        const sim::Scenario &first = scenarios[unit.front()];
        if (!first.replayable()) {
            table.set(runGoverned(first, acquire(first)));
            continue;
        }
        // SweepSession::source: session memory, then the store.
        const std::string key = timed(
            layers.plan_s, [&] { return _keys.storeKey(first); });
        std::shared_ptr<const ActivitySnapshot> snap;
        if (auto it = _memory.find(key); it != _memory.end()) {
            snap = it->second;
        } else if (_store) {
            const IoBytes io0 = ioBytes();
            snap = timed(layers.fetch_s,
                         [&] { return _store->fetch(key); });
            layers.bytes_read += ioBytes().read - io0.read;
            if (snap) {
                _memory[key] = snap;
                snapshots.push_back(snap);
            }
        }
        if (snap) {
            if (unit.size() == 1)
                table.set(replayOne(first, *snap, acquire(first)));
            else
                replayGroup(scenarios, unit, 0, *snap, table);
            continue;
        }
        auto captured = std::make_shared<ActivitySnapshot>();
        table.set(capture(first, acquire(first), *captured));
        // SweepSession::sink: persist, then publish to memory.
        if (_store) {
            const IoBytes io0 = ioBytes();
            timed(layers.put_s, [&] { _store->put(key, *captured); });
            layers.bytes_written += ioBytes().written - io0.written;
        }
        _memory[key] = captured;
        snapshots.push_back(captured);
        if (unit.size() > 1)
            replayGroup(scenarios, unit, 1, *captured, table);
    }
    return table;
}

SnapshotProbe
probeSnapshots(
    const std::vector<std::shared_ptr<const ActivitySnapshot>> &snaps)
{
    SnapshotProbe probe;
    for (const auto &snap : snaps) {
        std::string text =
            timed(probe.serialize_s, [&] { return snap->serialize(); });
        probe.bytes += text.size();
        ActivitySnapshot back = timed(probe.parse_s, [&] {
            return ActivitySnapshot::parse(text);
        });
        probe.roundtrip_ok &= back.serialize() == text;
    }
    return probe;
}

} // namespace perfbench
