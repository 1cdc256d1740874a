/**
 * @file
 * Campaign benchmark runner (launched by perfbench/run.py).
 *
 *   perfbench_runner prep --dir D [--smoke]
 *       Run the cold campaign into the store D/store and write its
 *       table to D/cold_table.txt: the warm workload's preparation.
 *   perfbench_runner run --workload W --seed N --seconds S --trace T
 *                        --dir D [--prep P] [--smoke] [--corrupt]
 *       Measure one workload (cold_sweep, warm_sweep, served_mixed)
 *       in the scratch directory D; warm_sweep reads the prep output
 *       P. Campaigns or rounds repeat until S seconds have passed.
 *       --trace 0 prints the end-to-end metrics, --trace 1 the
 *       per-layer metrics of a traced run. --corrupt flips one
 *       character of a result that a regular check compares
 *       (self-check only).
 *
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * is {"record": ...} with the simulated-side digest and the context
 * each metric needs (sample counts, the tail percentile, seeds).
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "common.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/strutil.hh"
#include "obs/metrics.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "sim/session.hh"
#include "store/store.hh"
#include "traced.hh"

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

struct Options
{
    std::string mode;
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    fs::path dir;
    fs::path prep;
    bool smoke = false;
    bool corrupt = false;
};

/** Free-form context printed beside the metrics. */
struct Record
{
    std::vector<std::pair<std::string, std::string>> fields;
    void num(const std::string &k, double v)
    {
        fields.push_back({k, strformat("%.17g", v)});
    }
    void str(const std::string &k, const std::string &v)
    {
        fields.push_back({k, "\"" + v + "\""});
    }
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

void
printResult(const Ledger &ledger, const Metrics &metrics, Record rec)
{
    rec.num("error_rate", ledger.attempted
                              ? double(ledger.failed) / ledger.attempted
                              : 0.0);
    std::string failures = "[";
    for (const std::string &f : ledger.failures)
        failures += (failures.size() > 1 ? "," : "") +
                    ("\"" + jsonEscape(f) + "\"");
    rec.fields.push_back({"failures", failures + "]"});
    std::string r = "{\"record\":{";
    for (std::size_t i = 0; i < rec.fields.size(); ++i)
        r += strformat("%s\"%s\":%s", i ? "," : "",
                       rec.fields[i].first.c_str(),
                       rec.fields[i].second.c_str());
    std::cout << r << "}}\n";

    std::string m;
    for (const auto &[name, vu] : metrics.items)
        m += strformat("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                       m.empty() ? "" : ",", name.c_str(), vu.first,
                       vu.second.c_str());
    std::cout << strformat("{\"correct\":%s,\"attempted\":%llu,"
                           "\"failed\":%llu,\"metrics\":{%s}}",
                           ledger.failed == 0 ? "true" : "false",
                           (unsigned long long)ledger.attempted,
                           (unsigned long long)ledger.failed,
                           m.c_str())
              << std::endl;
}

/** Counter delta of the process-wide registry over a window. */
struct RegistryWindow
{
    obs::MetricsSnapshot before = obs::Registry::instance().snapshot();
    obs::MetricsSnapshot delta() const
    {
        return obs::Registry::instance().snapshot().deltaFrom(before);
    }
};

std::string
readFile(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        fatal("cannot read ", p.string());
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** Latency summary: median and the highest percentile that still has
 *  at least ten jobs beyond it (the maximum with <= 10 jobs). */
void
latencyMetrics(Metrics &m, Record &rec, const std::vector<double> &lat)
{
    const std::size_t n = lat.size();
    const double p = n > 10 ? std::floor(100.0 * double(n - 10) / n)
                            : 100.0;
    m.set("job_p50_s", median(lat), "s");
    m.set("job_tail_s", percentile(lat, p), "s");
    rec.num("jobs", double(n));
    rec.num("job_tail_percentile", p);
}

// ------------------------------------------------------------ campaign

struct Campaign
{
    sim::SweepSpec spec;
    std::shared_ptr<sim::SweepSession> session;
};

/** The user's set-up: expand the request, open the store (indexing
 *  every entry), build the session. */
Campaign
openCampaign(const sim::SweepRequest &request, const fs::path &store_dir,
             unsigned jobs)
{
    Campaign c;
    c.spec = request.toSpec();
    c.session = std::make_shared<sim::SweepSession>(
        campaignOptions(jobs), store::openStore(store_dir));
    return c;
}

/** Distinct timing keys of the replayable scenarios of a spec. */
std::size_t
distinctKeys(const std::vector<sim::Scenario> &scenarios)
{
    std::set<std::string> keys;
    for (const sim::Scenario &s : scenarios)
        if (s.replayable())
            keys.insert(s.snapshotKey());
    return keys.size();
}

/** A spec whose only scenario is `s` (its config already carries the
 *  node, operating point and cooler). */
sim::SweepSpec
oneScenario(const sim::Scenario &s)
{
    sim::SweepSpec spec;
    spec.configs = {s.config};
    spec.workloads = {s.workload};
    spec.scale = s.scale;
    spec.verify = s.verify;
    return spec;
}

/** Re-run a seeded sample of rows with memoization off and demand
 *  bit-identical results. The sample is drawn from the workloads
 *  whose full (unmemoized, traced) run costs well under a second.
 *  With `corrupt`, the first sampled row is altered before the
 *  comparison (self-check). */
void
checkUnmemoized(Ledger &ledger, const sim::SweepResult &table,
                const sim::EngineOptions &options, uint64_t seed,
                bool corrupt_first)
{
    static const std::set<std::string> cheap = {
        "vectoradd", "scalarprod", "blackscholes", "matmul"};
    std::vector<std::size_t> candidates;
    for (const sim::ScenarioResult &r : table.rows())
        if (cheap.count(r.scenario.workload))
            candidates.push_back(r.scenario.index);
    if (candidates.empty())
        return;
    SplitMix64 rng(seed ^ 0x5eedULL);
    sim::SweepSession plain(
        sim::EngineOptions(options).withJobs(1).withMemoize(false));
    for (int k = 0; k < 2; ++k) {
        const sim::ScenarioResult &want =
            table.at(candidates[rng.nextBounded(candidates.size())]);
        ledger.attempt("unmemoized " + want.scenario.label, [&] {
            sim::SweepResult got = plain.submit(oneScenario(want.scenario));
            const std::string row = corrupt_first && k == 0
                                        ? corrupt(exactRow(want))
                                        : exactRow(want);
            ledger.check(got.size() == 1 && exactRow(got.at(0)) == row,
                         "unmemoized run differs: " +
                             want.scenario.label);
        });
    }
}

void
checkAllPass(Ledger &ledger, const sim::SweepResult &table)
{
    for (const sim::ScenarioResult &r : table.rows())
        ledger.check(r.verified, "verify FAIL: " + r.scenario.label);
}

void
simRecord(Record &rec, const SimRecord &sim)
{
    rec.str("sim_digest", sim.digest());
    rec.num("sim_shader_cycles", double(sim.shader_cycles));
    rec.num("sim_instructions", double(sim.instructions));
    rec.num("sim_ipc", sim.ipc());
}

void
commonRecord(Record &rec, const Options &opt)
{
    rec.str("workload", opt.workload);
    rec.num("seed", double(opt.seed));
    rec.num("held_out_seed", double(held_out_seed));
    rec.str("accuracy", "none: no real-hardware reference in the "
                        "repository (Fig. 6 uses the virtual testbed "
                        "in src/measure)");
}

/** One set-up sample: the mean time of `reps` back-to-back set-ups,
 *  each on its own new store directory under `root`, made before the
 *  clock starts, so no set-up times a mkdir. The set-ups stay alive
 *  until the clock has stopped; `release` then gets them before they
 *  are torn down. */
template <typename Setup, typename Release>
double
setupSample(const fs::path &root, int reps, Setup setup, Release release)
{
    std::vector<fs::path> dirs;
    for (int k = 0; k < reps; ++k) {
        dirs.push_back(root / strformat("store-%d", k));
        fs::create_directories(dirs.back());
    }
    std::vector<decltype(setup(dirs[0]))> kept;
    kept.reserve(reps);
    const double t0 = nowS();
    for (const fs::path &dir : dirs)
        kept.push_back(setup(dir));
    const double s = (nowS() - t0) / reps;
    release(kept);
    kept.clear();
    fs::remove_all(root);
    return s;
}

/** Three samples of the cold set-up on empty stores. One set-up takes
 *  tens to hundreds of microseconds, so each sample averages 16. */
void
coldSetupSamples(std::vector<double> &samples,
                 const sim::SweepRequest &request, const fs::path &root)
{
    for (int b = 0; b < 3; ++b)
        samples.push_back(setupSample(
            root, 16,
            [&](const fs::path &dir) {
                return openCampaign(request, dir, campaign_workers);
            },
            [](std::vector<Campaign> &) {}));
}

struct Timed
{
    sim::SweepResult table;
    double wall_s = 0;
    double cpu_s = 0;
};

Timed
submitTimed(sim::SweepSession &session, const sim::SweepSpec &spec)
{
    Timed t;
    const double c0 = cpuS();
    const double t0 = nowS();
    t.table = session.submit(spec);
    t.wall_s = nowS() - t0;
    t.cpu_s = cpuS() - c0;
    return t;
}

// ------------------------------------------------------- traced runs

/** Per-layer metrics of a traced run. */
void
layerMetrics(Metrics &m, const LayerTimes &L, const SnapshotProbe &probe,
             const obs::MetricsSnapshot &delta, double traced_wall,
             double untraced_wall)
{
    m.set("config.to_spec_s", L.to_spec_s, "s");
    m.set("engine.plan_s", L.plan_s, "s");
    m.set("workloads.prepare_s", L.prepare_s, "s");
    m.set("workloads.verify_s", L.verify_s, "s");
    m.set("perf.capture_s", L.capture_s, "s");
    m.set("perf.capture_s.issue_sparse", L.capture_sparse_s, "s");
    m.set("perf.capture_s.issue_dense", L.capture_dense_s, "s");
    m.set("perf.shader_cycles", double(L.shader_cycles), "cycle");
    m.set("perf.warp_insts", double(L.warp_insts), "inst");
    m.set("perf.issue_per_core_cycle",
          L.core_cycles ? double(L.warp_insts) / L.core_cycles : 0.0,
          "inst/cycle");
    m.set("perf.sim_cycles_per_s",
          L.capture_s > 0 ? double(L.shader_cycles) / L.capture_s : 0.0,
          "cycle/s");
    m.set("snapshot.serialize_s", probe.serialize_s, "s");
    m.set("snapshot.parse_s", probe.parse_s, "s");
    m.set("snapshot.bytes", double(probe.bytes), "B");
    m.set("store.open_s", L.store_open_s, "s");
    m.set("store.fetch_s", L.fetch_s, "s");
    m.set("store.put_s", L.put_s, "s");
    m.set("store.hits", double(delta.counter("store/hit")), "count");
    m.set("store.misses", double(delta.counter("store/miss")), "count");
    m.set("store.bytes_read", double(L.bytes_read), "B");
    m.set("store.bytes_written", double(L.bytes_written), "B");
    m.set("power.model_build_s", L.model_build_s, "s");
    m.set("power.batched_eval_s", L.batched_eval_s, "s");
    m.set("power.variant_intervals_per_s",
          L.batched_eval_s > 0
              ? double(L.variant_intervals) / L.batched_eval_s
              : 0.0,
          "1/s");
    m.set("sim.replay_s.thermal", L.replay_thermal_s, "s");
    m.set("sim.replay_s.nothermal", L.replay_nothermal_s, "s");
    m.set("sim.governed_s", L.governed_s, "s");
    m.set("thermal.steady_solves",
          double(delta.counter("thermal/steady_solves")), "count");
    m.set("thermal.steady_iterations",
          double(delta.counter("thermal/steady_iterations")), "count");
    m.set("thermal.steady_nonconverged",
          double(delta.counter("thermal/steady_nonconverged")), "count");
    m.set("trace_overhead",
          untraced_wall > 0 ? traced_wall / untraced_wall : 0.0, "ratio");
    m.set("unattributed_s", traced_wall - L.attributed(), "s");
}

/** Per-layer times must account for the traced wall time. */
constexpr double accounting_bound = 0.10;

void
checkAccounting(Ledger &ledger, const LayerTimes &L, double traced_wall)
{
    const double gap = traced_wall - L.attributed();
    ledger.check(gap <= accounting_bound * traced_wall,
                 strformat("layer times leave %.3f s of %.3f s traced "
                           "wall unattributed",
                           gap, traced_wall));
}

/** Run the traced pass over `jobs` on a store at `store_dir`. */
struct TracedOutcome
{
    LayerTimes layers;
    SnapshotProbe probe;
    obs::MetricsSnapshot delta;
    double wall_s = 0;
    std::vector<std::string> tables;
};

TracedOutcome
tracedPass(const std::vector<sim::SweepRequest> &jobs,
           const sim::EngineOptions &options, const fs::path &store_dir)
{
    TracedOutcome out;
    RegistryWindow window;
    const double t0 = nowS();
    const IoBytes io0 = ioBytes();
    double open_s = 0;
    store::StoreHandle store;
    {
        const double o0 = nowS();
        store = store::openStore(store_dir);
        open_s = nowS() - o0;
    }
    const uint64_t open_read = ioBytes().read - io0.read;
    TracedRunner runner(options, store);
    runner.layers.store_open_s = open_s;
    runner.layers.bytes_read = open_read;
    std::vector<sim::SweepResult> results;
    for (const sim::SweepRequest &job : jobs)
        results.push_back(runner.submit(job));
    out.wall_s = nowS() - t0;
    for (const sim::SweepResult &r : results)
        out.tables.push_back(r.formatTable());
    out.delta = window.delta();
    out.layers = runner.layers;
    out.probe = probeSnapshots(runner.snapshots);
    return out;
}

/** The untraced reference of a traced pass: the same jobs on one
 *  worker through a fresh session on a store at `store_dir`, timed
 *  the same way (store open included). */
struct SerialOutcome
{
    double wall_s = 0;
    std::vector<std::string> tables;
};

SerialOutcome
serialPass(const std::vector<sim::SweepRequest> &jobs,
           const sim::EngineOptions &options, const fs::path &store_dir)
{
    SerialOutcome out;
    std::vector<sim::SweepResult> results;
    const double t0 = nowS();
    sim::SweepSession session(options, store::openStore(store_dir));
    for (const sim::SweepRequest &job : jobs)
        results.push_back(session.submit(job.toSpec()));
    out.wall_s = nowS() - t0;
    for (const sim::SweepResult &r : results)
        out.tables.push_back(r.formatTable());
    return out;
}

/** Traced pass plus its untraced reference; checks the traced tables
 *  against `want` (one per job) and prints the shared layer metrics. */
void
tracedMetrics(Metrics &m, Record &rec, Ledger &ledger,
              const std::vector<sim::SweepRequest> &jobs,
              const std::vector<std::string> &want,
              const sim::EngineOptions &options,
              const fs::path &serial_store, const fs::path &traced_store)
{
    const SerialOutcome serial = serialPass(jobs, options, serial_store);
    const TracedOutcome tr = tracedPass(jobs, options, traced_store);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ledger.check(serial.tables.at(i) == want.at(i),
                     strformat("untraced serial job %zu differs", i));
        ledger.check(tr.tables.at(i) == want.at(i),
                     strformat("traced job %zu differs", i));
    }
    ledger.check(tr.probe.roundtrip_ok, "snapshot round trip differs");
    checkAccounting(ledger, tr.layers, tr.wall_s);
    layerMetrics(m, tr.layers, tr.probe, tr.delta, tr.wall_s,
                 serial.wall_s);
    rec.num("traced_wall_s", tr.wall_s);
    rec.num("untraced_serial_wall_s", serial.wall_s);
}

void
engineMetrics(Metrics &m, const obs::MetricsSnapshot &delta,
              double workers_x_wall)
{
    m.set("engine.captures",
          double(delta.counter("engine/scenarios_captured")), "count");
    m.set("engine.replays",
          double(delta.counter("engine/scenarios_replayed")), "count");
    m.set("engine.worker_busy_frac",
          workers_x_wall > 0
              ? double(delta.counter("engine/worker_busy_ns")) * 1e-9 /
                    workers_x_wall
              : 0.0,
          "ratio");
}

// ---------------------------------------------------------- workloads

void
runCampaign(const Options &opt, bool warm)
{
    Ledger ledger;
    Metrics m;
    Record rec;
    commonRecord(rec, opt);
    const sim::SweepRequest request = campaignRequest(opt.smoke);
    const fs::path prepared = opt.prep / "store";
    WorkDir work(opt.dir / "run");
    std::string reference; // warm: the cold table; cold: campaign 0's
    if (warm)
        reference = readFile(opt.prep / "cold_table.txt");

    // Cold set-up samples are taken before every campaign and after
    // the last, so they span the run: on the VM this was tuned on, the
    // cost of creating a file drifts over tens of seconds (README).
    std::vector<double> setups, walls, cpus, rss;
    const bool cold_setup = !warm && opt.trace == 0;
    sim::SweepResult last;
    obs::MetricsSnapshot untraced_delta;
    unsigned workers = 0;
    std::size_t campaigns = 0;
    const double start = nowS();
    const double steal0 = stealS();
    do {
        last = sim::SweepResult(); // hold one campaign's rows at a time
        const fs::path cold_store =
            work.path / strformat("campaign-%zu", campaigns);
        resetPeakRss();
        Campaign c;
        if (warm) {
            const double t0 = nowS();
            c = openCampaign(request, prepared, campaign_workers);
            setups.push_back(nowS() - t0);
        } else {
            if (cold_setup)
                coldSetupSamples(setups, request, work.path / "setup");
            c = openCampaign(request, cold_store, campaign_workers);
        }
        RegistryWindow window;
        Timed t = submitTimed(*c.session, c.spec);
        untraced_delta = window.delta();
        walls.push_back(t.wall_s);
        cpus.push_back(t.cpu_s);
        rss.push_back(peakRssMb());
        workers = t.table.telemetry().workers;
        const std::string table = t.table.formatTable();
        if (warm) {
            compareTables(ledger, reference,
                          opt.corrupt && campaigns == 0 ? corrupt(table)
                                                        : table,
                          "warm vs cold");
            ledger.check(t.table.telemetry().captured == 0,
                         "warm campaign captured timing");
        } else {
            const std::size_t keys = distinctKeys(c.spec.expand());
            checkAllPass(ledger, t.table);
            if (campaigns == 0)
                reference = table;
            else
                compareTables(ledger, reference, table,
                              "cold campaign vs campaign 0");
            ledger.check(t.table.telemetry().captured == keys,
                         strformat("cold campaign captured %zu of %zu "
                                   "keys",
                                   t.table.telemetry().captured, keys));
            ledger.check(c.session->storeHandle()->size() == keys,
                         "cold campaign store entries != keys");
        }
        ++campaigns;
        last = std::move(t.table);
        c = Campaign();
        fs::remove_all(cold_store);
        // One campaign per traced run.
    } while (opt.trace == 0 && nowS() - start < opt.seconds);
    if (cold_setup)
        coldSetupSamples(setups, request, work.path / "setup");

    // Cold routes the self-check corruption through this check, which
    // every cold run makes.
    checkUnmemoized(ledger, last, campaignOptions(1), opt.seed,
                    opt.corrupt && !warm);
    SimRecord sim;
    sim.add(last);
    simRecord(rec, sim);
    rec.num("campaigns", double(campaigns));
    rec.num("scenarios", double(last.size()));
    rec.num("captured", double(last.telemetry().captured));
    rec.num("replayed", double(last.telemetry().replayed));
    rec.num("thermal_nonconverged",
            double(untraced_delta.counter("thermal/steady_nonconverged")));
    rec.num("host_steal_s", stealS() - steal0);

    if (opt.trace == 0) {
        m.set("setup_s", median(setups), "s");
        rec.num("setup_samples", double(setups.size()));
        m.set("wall_s", median(walls), "s");
        m.set("cpu_s", median(cpus), "s");
        latencyMetrics(m, rec, walls);
        m.set("peak_rss_mb", median(rss), "MB");
        printResult(ledger, m, rec);
        return;
    }

    // Traced run: one worker through the public layer calls, on a
    // fresh empty store (cold) or the prepared one (warm).
    tracedMetrics(m, rec, ledger, {request}, {last.formatTable()},
                  campaignOptions(1),
                  warm ? prepared : work.path / "serial-store",
                  warm ? prepared : work.path / "traced-store");
    engineMetrics(m, untraced_delta, workers * walls.back());
    m.set("session.captures_per_key",
          double(last.telemetry().captured) /
              double(std::max<std::size_t>(
                  1, distinctKeys(request.toSpec().expand()))),
          "ratio");
    m.set("service.job_overhead_s", 0.0, "s");
    m.set("service.rows", 0.0, "count");
    rec.str("not_applicable", "service.job_overhead_s service.rows");
    printResult(ledger, m, rec);
}

/** A server on an ephemeral loopback port, run() on its own thread
 *  until the guard dies. */
struct ServerThread
{
    service::SweepServer server;
    std::thread runner;
    explicit ServerThread(std::shared_ptr<sim::SweepSession> session)
        : server(std::move(session), 0), runner([this] { server.run(); })
    {
    }
    ~ServerThread()
    {
        server.stop();
        runner.join();
    }
    ServerThread(const ServerThread &) = delete;
    ServerThread &operator=(const ServerThread &) = delete;
};

double
jsonNumber(const std::string &doc, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    std::size_t pos = doc.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::strtod(doc.c_str() + pos + needle.size(), nullptr);
}

/** What a served user sets up before the first job: session, store,
 *  server (bound, running) and connected clients. */
struct ServedSetup
{
    std::shared_ptr<sim::SweepSession> session;
    std::unique_ptr<ServerThread> server;
    std::vector<std::unique_ptr<service::SweepClient>> clients;

    explicit ServedSetup(const fs::path &store_dir)
        : session(std::make_shared<sim::SweepSession>(
              servedOptions(served_session_workers),
              store::openStore(store_dir))),
          server(std::make_unique<ServerThread>(session))
    {
        for (unsigned c = 0; c < served_clients; ++c)
            clients.push_back(std::make_unique<service::SweepClient>(
                "127.0.0.1", server->server.port()));
    }
    ~ServedSetup()
    {
        clients.clear(); // lets the server's handlers return at once
        server.reset();
    }
};

/** One sample of the served set-up: 4 of them, back to back. A
 *  stopped server's accept loop wakes every 200 ms, so all 4 servers
 *  are stopped before any is joined. */
double
servedSetupSample(const fs::path &root)
{
    return setupSample(
        root, 4,
        [](const fs::path &dir) { return std::make_unique<ServedSetup>(dir); },
        [](std::vector<std::unique_ptr<ServedSetup>> &batch) {
            for (auto &setup : batch)
                setup->server->server.stop();
        });
}

struct Round
{
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<double> latencies;
    std::vector<double> overheads; // client latency - server sweep wall
    uint64_t rows = 0;
    double peak_rss_mb = 0;
    obs::MetricsSnapshot delta;
};

/** One served round: fresh store, session, server and clients; the
 *  clients drain the job sequence closed-loop. */
Round
servedRound(const std::vector<ServedJob> &jobs,
            const std::vector<std::string> &refs, Ledger &ledger,
            const fs::path &dir, bool corrupt_first)
{
    Round round;
    WorkDir work(dir);
    resetPeakRss();
    ServedSetup setup(work.path / "store");
    const auto &clients = setup.clients;

    RegistryWindow window;
    std::atomic<std::size_t> next{0};
    std::mutex mutex; // guards ledger and round
    const double c0 = cpuS();
    const double w0 = nowS();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < served_clients; ++c) {
        threads.emplace_back([&, c] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= jobs.size())
                    break;
                const double s0 = nowS();
                service::SweepClient::JobResult res;
                std::string error;
                try {
                    res = clients[c]->submitJob(jobs[i].request);
                } catch (const std::exception &e) {
                    error = e.what();
                }
                const double lat = nowS() - s0;
                std::string table = res.table;
                if (corrupt_first && i == 0)
                    table = corrupt(table);
                std::lock_guard<std::mutex> lock(mutex);
                round.latencies.push_back(lat);
                round.overheads.push_back(
                    lat - jsonNumber(res.metrics_json, "wall_s"));
                round.rows += res.rows;
                ledger.check(error.empty() && res.ok,
                             strformat("job %zu failed: %s", i,
                                       (error + res.error).c_str()));
                ledger.check(table == refs[jobs[i].template_id],
                             strformat("job %zu table differs from "
                                       "the local reference",
                                       i));
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    round.wall_s = nowS() - w0;
    round.cpu_s = cpuS() - c0;
    round.delta = window.delta();
    round.peak_rss_mb = peakRssMb();
    return round;
}

void
runServed(const Options &opt)
{
    Ledger ledger;
    Metrics m;
    Record rec;
    commonRecord(rec, opt);
    const std::vector<sim::SweepRequest> pool = servedPool(opt.smoke);
    // Round 0's order; later rounds draw their own (servedSequence).
    const std::vector<ServedJob> jobs =
        servedSequence(opt.seed, 0, opt.smoke);
    WorkDir work(opt.dir / "run");

    // Untimed references, one fresh local session for the pool.
    std::vector<std::string> refs;
    std::vector<sim::SweepResult> ref_tables;
    {
        sim::SweepSession local(servedOptions(served_session_workers));
        for (const sim::SweepRequest &r : pool) {
            ref_tables.push_back(local.submit(r.toSpec()));
            refs.push_back(ref_tables.back().formatTable());
        }
    }
    // Every template is in every round, so the digest covers the
    // pool in template order (the same for every seed).
    SimRecord sim;
    std::vector<sim::Scenario> all_scenarios;
    for (std::size_t t = 0; t < pool.size(); ++t) {
        sim.add(ref_tables[t]);
        for (sim::Scenario &s : pool[t].toSpec().expand())
            all_scenarios.push_back(std::move(s));
    }
    std::string sequence;
    for (const ServedJob &j : jobs)
        sequence += strformat("%s%zu", sequence.empty() ? "" : " ",
                              j.template_id);
    simRecord(rec, sim);
    rec.str("job_sequence_round0", sequence);
    // A seeded template, checked row by row against memoize off.
    {
        SplitMix64 rng(opt.seed ^ 0x5eedULL);
        const sim::SweepResult &want =
            ref_tables[rng.nextBounded(pool.size())];
        ledger.attempt("unmemoized served template", [&] {
            sim::SweepSession plain(
                servedOptions(1).withMemoize(false));
            for (const sim::ScenarioResult &r : want.rows()) {
                sim::SweepResult got = plain.submit(oneScenario(r.scenario));
                ledger.check(got.size() == 1 &&
                                 exactRow(got.at(0)) == exactRow(r),
                             "unmemoized run differs: " +
                                 r.scenario.label);
            }
        });
    }

    std::vector<Round> rounds;
    std::vector<double> setups; // one sample before every round
    const double start = nowS();
    const double steal0 = stealS();
    do {
        if (opt.trace == 0)
            setups.push_back(servedSetupSample(work.path / "setup"));
        rounds.push_back(servedRound(
            servedSequence(opt.seed, rounds.size(), opt.smoke), refs,
            ledger,
            work.path / strformat("round-%zu", rounds.size()),
            opt.corrupt && rounds.empty()));
    } while (opt.trace == 0 && nowS() - start < opt.seconds);

    std::vector<double> walls, cpus, lat, over, rss;
    uint64_t rows = 0;
    for (const Round &r : rounds) {
        rss.push_back(r.peak_rss_mb);
        walls.push_back(r.wall_s);
        cpus.push_back(r.cpu_s);
        lat.insert(lat.end(), r.latencies.begin(), r.latencies.end());
        over.insert(over.end(), r.overheads.begin(), r.overheads.end());
        rows += r.rows;
    }
    rec.num("rounds", double(rounds.size()));
    rec.num("host_steal_s", stealS() - steal0);
    rec.num("jobs_per_round", double(jobs.size()));
    rec.num("clients", served_clients);
    rec.num("session_workers", served_session_workers);

    if (opt.trace == 0) {
        m.set("setup_s", median(setups), "s");
        rec.num("setup_samples", double(setups.size()));
        m.set("wall_s", median(walls), "s");
        m.set("cpu_s", median(cpus), "s");
        latencyMetrics(m, rec, lat);
        m.set("peak_rss_mb", median(rss), "MB");
        printResult(ledger, m, rec);
        return;
    }

    std::vector<sim::SweepRequest> requests;
    std::vector<std::string> want;
    for (const ServedJob &j : jobs) {
        requests.push_back(j.request);
        want.push_back(refs[j.template_id]);
    }
    tracedMetrics(m, rec, ledger, requests, want, servedOptions(1),
                  work.path / "serial-store", work.path / "traced-store");
    const Round &r0 = rounds.front();
    engineMetrics(m, r0.delta,
                  served_clients * served_session_workers * r0.wall_s);
    m.set("session.captures_per_key",
          double(r0.delta.counter("engine/scenarios_captured")) /
              double(std::max<std::size_t>(1,
                                           distinctKeys(all_scenarios))),
          "ratio");
    m.set("service.job_overhead_s", median(over), "s");
    m.set("service.rows", double(rows), "count");
    printResult(ledger, m, rec);
}

/** Warm-store preparation: the cold campaign into dir/store. */
int
prep(const Options &opt)
{
    Campaign c = openCampaign(campaignRequest(opt.smoke), opt.dir / "store",
                              campaign_workers);
    sim::SweepResult table = c.session->submit(c.spec);
    for (const sim::ScenarioResult &r : table.rows())
        if (!r.verified)
            fatal("prep: verify FAIL in ", r.scenario.label);
    std::ofstream out(opt.dir / "cold_table.txt", std::ios::binary);
    out << table.formatTable();
    if (!out)
        fatal("prep: cannot write the cold table");
    std::cerr << "prep: " << table.size() << " scenarios, "
              << c.session->storeHandle()->size() << " store entries\n";
    return 0;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        fatal("usage: perfbench_runner prep|run [options]");
    opt.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", a);
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = value();
        else if (a == "--seed")
            opt.seed = std::stoull(value());
        else if (a == "--seconds")
            opt.seconds = std::stod(value());
        else if (a == "--trace")
            opt.trace = std::stoi(value());
        else if (a == "--dir")
            opt.dir = value();
        else if (a == "--prep")
            opt.prep = value();
        else if (a == "--smoke")
            opt.smoke = true;
        else if (a == "--corrupt")
            opt.corrupt = true;
        else
            fatal("unknown argument ", a);
    }
    if (opt.dir.empty())
        fatal("--dir is required");
    if (opt.workload == "warm_sweep" && opt.prep.empty())
        fatal("warm_sweep needs --prep");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Options opt = parseArgs(argc, argv);
        if (opt.mode == "prep")
            return prep(opt);
        if (opt.mode != "run")
            fatal("unknown mode ", opt.mode);
        if (opt.workload == "cold_sweep")
            runCampaign(opt, false);
        else if (opt.workload == "warm_sweep")
            runCampaign(opt, true);
        else if (opt.workload == "served_mixed")
            runServed(opt);
        else
            fatal("unknown workload '", opt.workload, "'");
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench_runner: " << e.what() << "\n";
        return 2;
    }
}
