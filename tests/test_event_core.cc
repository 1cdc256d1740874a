/**
 * @file
 * Event-driven timing core against the per-cycle oracle.
 *
 * The timing loop steps a core only when its step can change state
 * and books the quiet steps in between in bulk; arbitration walks
 * candidate-warp masks. Neither may move a single count. The oracle
 * is tests/golden/event_core.txt, written by the per-cycle loop this
 * design replaced (every core stepped every shader cycle, every warp
 * slot visited by both arbiters). For every kernel of every workload
 * on both reference chips it holds a digest of the 1 us activity
 * trace and the end-of-kernel ChipActivity: the exact text on the
 * stock chips, a digest of that text under seeded scheduler /
 * scoreboard / issue-width / I-buffer / I-cache perturbations (which
 * keeps the fixture small).
 *
 * Regenerate only after an intentional timing-model change:
 *   GPUSIMPOW_REGEN_GOLDEN=1 ./test_event_core
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "config/gpu_config.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/gpu.hh"
#include "workloads/microbench.hh"
#include "workloads/workload.hh"

using namespace gpusimpow;

namespace {

/** Sampling interval of the recorded trace. */
constexpr double kSampleS = 1e-6;
/** Seeded perturbations per (workload, chip), on top of stock. */
constexpr unsigned kPerturbations = 2;

std::string
fixturePath()
{
    if (const char *env = std::getenv("GPUSIMPOW_TEST_DATA"))
        return std::string(env) + "/golden/event_core.txt";
#ifdef GPUSIMPOW_SOURCE_DIR
    return std::string(GPUSIMPOW_SOURCE_DIR) +
           "/tests/golden/event_core.txt";
#else
    return "tests/golden/event_core.txt";
#endif
}

bool
regenRequested()
{
    const char *env = std::getenv("GPUSIMPOW_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

uint64_t
fnv1a(uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One differential case: a workload on a (possibly perturbed) chip. */
struct Case
{
    std::string key;
    std::string workload;
    GpuConfig cfg;
    bool stock = true;
};

/**
 * Draw perturbation `variant` (1-based) of a chip for a workload: the
 * knobs that change which warps are arbitration candidates and when a
 * core has nothing to do. Odd variants schedule round-robin, even
 * ones greedy-then-oldest, so the variants of a pair never coincide.
 */
std::string
perturb(GpuConfig &cfg, const std::string &stream, unsigned variant)
{
    SplitMix64 rng(hashString(stream.c_str()) + variant);
    CoreConfig &core = cfg.core;
    core.sched_policy = variant % 2 ? "rr" : "gto";
    core.scoreboard = rng.nextBounded(2) != 0;
    core.issue_width = 1 + static_cast<unsigned>(rng.nextBounded(2));
    core.ibuffer_slots = 1 + static_cast<unsigned>(rng.nextBounded(4));
    // A small I-cache forces fetch stalls (64 B lines, 4 ways).
    static const unsigned icache[] = {0, 2048, 1024};
    if (unsigned bytes = icache[rng.nextBounded(3)])
        core.icache_bytes = bytes;
    std::ostringstream label;
    label << "sched=" << core.sched_policy
          << " scoreboard=" << core.scoreboard
          << " issue_width=" << core.issue_width
          << " ibuffer=" << core.ibuffer_slots
          << " icache=" << core.icache_bytes;
    return label.str();
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (const std::string &wl : workloads::listWorkloadNames()) {
        for (const bool gt240 : {true, false}) {
            const std::string chip = gt240 ? "gt240" : "gtx580";
            for (unsigned v = 0; v <= kPerturbations; ++v) {
                Case c;
                c.workload = wl;
                c.cfg = gt240 ? GpuConfig::gt240() : GpuConfig::gtx580();
                std::string label = "stock";
                if (v > 0) {
                    label = perturb(c.cfg, wl + "/" + chip, v);
                    c.stock = false;
                }
                c.key = wl + " " + chip + " " + label;
                cases.push_back(std::move(c));
            }
        }
    }
    return cases;
}

/**
 * Run every kernel of a workload and record a digest of its 1 us
 * trace deltas plus its end-of-kernel activity (text on stock chips,
 * digest of the text otherwise).
 */
std::string
recordCase(const Case &c)
{
    perf::Gpu gpu(c.cfg);
    auto wl = workloads::makeWorkload(c.workload);
    auto launches = wl->prepare(gpu);
    std::ostringstream out;
    for (const workloads::KernelLaunch &kl : launches) {
        uint64_t digest = 0xcbf29ce484222325ULL;
        uint64_t samples = 0;
        auto sampler = [&](const perf::ChipActivity &delta, double t0,
                           double t1) {
            std::ostringstream s;
            s << std::hexfloat << t0 << ' ' << t1 << '\n';
            delta.serialize(s);
            digest = fnv1a(digest, s.str());
            ++samples;
        };
        perf::RunResult r = gpu.run(kl.prog, kl.launch, sampler, kSampleS);
        std::ostringstream act;
        r.activity.serialize(act);
        out << "kernel " << kl.label << " cycles " << r.cycles
            << " samples " << samples << " trace " << std::hex << digest;
        if (c.stock)
            out << std::dec << '\n' << act.str();
        else
            out << " activity " << fnv1a(0xcbf29ce484222325ULL, act.str())
                << std::dec << '\n';
    }
    return out.str();
}

/** Fixture: "case <key>" line, record text, "end" line. */
std::map<std::string, std::string>
parseFixture(std::istream &in)
{
    std::map<std::string, std::string> records;
    std::string line;
    std::string key;
    std::string body;
    while (std::getline(in, line)) {
        if (line.rfind("case ", 0) == 0) {
            key = line.substr(5);
            body.clear();
        } else if (line == "end") {
            records[key] = body;
        } else {
            body += line + '\n';
        }
    }
    return records;
}

} // namespace

TEST(EventCore, MatchesPerCycleOracle)
{
    std::vector<Case> cases = allCases();
    if (regenRequested()) {
        std::ofstream out(fixturePath());
        ASSERT_TRUE(out) << "cannot write " << fixturePath();
        out << "# Per-cycle timing oracle: see tests/test_event_core.cc\n";
        for (const Case &c : cases)
            out << "case " << c.key << '\n' << recordCase(c) << "end\n";
        GTEST_SKIP() << "regenerated " << fixturePath();
    }
    std::ifstream in(fixturePath());
    ASSERT_TRUE(in) << "missing fixture " << fixturePath();
    std::map<std::string, std::string> oracle = parseFixture(in);
    ASSERT_EQ(oracle.size(), cases.size());
    for (const Case &c : cases) {
        auto it = oracle.find(c.key);
        ASSERT_NE(it, oracle.end()) << "no oracle record for " << c.key;
        EXPECT_EQ(recordCase(c), it->second) << c.key;
    }
}

TEST(EventCore, DramStallsBookEveryQuietCycle)
{
    // One warp per core chasing DRAM: nearly every resident cycle is
    // slept through, and each must still count as one fetch and one
    // issue arbitration in every sample.
    GpuConfig cfg = GpuConfig::gt240();
    perf::Gpu gpu(cfg);
    const unsigned iterations = 40;
    perf::LaunchConfig lc;
    lc.grid = {cfg.numCores(), 1};
    lc.block = {32, 1};
    uint32_t buf = gpu.allocator().alloc(lc.grid.x * 32 * 4 +
                                         iterations * 4096);
    perf::KernelProgram prog =
        workloads::makeLatencyBoundKernel(iterations, buf);

    const uint64_t interval = 1000;
    double interval_s = (interval + 0.5) / cfg.clocks.shaderHz();
    std::vector<perf::ChipActivity> samples;
    auto sampler = [&](const perf::ChipActivity &delta, double, double) {
        samples.push_back(delta);
    };
    obs::MetricsSnapshot before = obs::Registry::instance().snapshot();
    perf::RunResult r = gpu.run(prog, lc, sampler, interval_s);
    obs::MetricsSnapshot delta =
        obs::Registry::instance().snapshot().deltaFrom(before);

    ASSERT_GE(samples.size(), 3u);
    uint64_t covered = 0;
    for (size_t i = 0; i < samples.size(); ++i) {
        const perf::ChipActivity &s = samples[i];
        if (i + 1 < samples.size()) {
            EXPECT_EQ(s.shader_cycles, interval) << "sample " << i;
        }
        covered += s.shader_cycles;
        for (const perf::CoreActivity &core : s.cores) {
            EXPECT_EQ(core.fetch_arbitrations, core.cycles_resident);
            EXPECT_EQ(core.issue_arbitrations, core.cycles_resident);
        }
    }
    EXPECT_EQ(covered, r.cycles);
    uint64_t resident = 0;
    for (const perf::CoreActivity &core : r.activity.cores) {
        EXPECT_GT(core.cycles_resident, 0u);
        EXPECT_EQ(core.fetch_arbitrations, core.cycles_resident);
        EXPECT_EQ(core.issue_arbitrations, core.cycles_resident);
        resident += core.cycles_resident;
    }
    // The stalls were slept through, and the perf/* counters account
    // for every resident core-cycle exactly once.
    uint64_t slept = delta.counter("perf/core_cycles_slept");
    EXPECT_GT(slept, resident / 2);
    EXPECT_EQ(delta.counter("perf/core_steps") + slept, resident);
    EXPECT_EQ(delta.counter("perf/kernels"), 1u);
    EXPECT_EQ(delta.counter("perf/shader_cycles"), r.cycles);
    EXPECT_EQ(delta.counter("perf/warp_insts"), r.instructions);
    EXPECT_GT(r.activity.mem.dram_read_bursts, 0u);
    EXPECT_EQ(delta.counter("perf/dram_accesses"),
              r.activity.mem.dram_read_bursts +
                  r.activity.mem.dram_write_bursts);
}

TEST(EventCore, NoForwardProgressFailsClosed)
{
    // issue_width 0: warps fill their I-buffers, then no core has an
    // event left. max_blocks 0: no block can ever be placed. Both are
    // detected at once instead of spinning to the livelock guard.
    auto stuck = [](void (*edit)(GpuConfig &)) {
        GpuConfig cfg = GpuConfig::gt240();
        edit(cfg);
        perf::Gpu gpu(cfg);
        auto wl = workloads::makeWorkload("vectoradd");
        auto launches = wl->prepare(gpu);
        uint64_t start_ns = obs::monotonicNs();
        std::string message;
        try {
            gpu.run(launches.front().prog, launches.front().launch);
        } catch (const FatalError &e) {
            message = e.what();
        }
        EXPECT_LT(obs::monotonicNs() - start_ns, 10'000'000'000ull);
        return message;
    };
    std::string no_issue =
        stuck([](GpuConfig &c) { c.core.issue_width = 0; });
    EXPECT_NE(no_issue.find("stalled"), std::string::npos) << no_issue;
    EXPECT_NE(no_issue.find("issue_width"), std::string::npos) << no_issue;
    std::string no_blocks =
        stuck([](GpuConfig &c) { c.core.max_blocks = 0; });
    EXPECT_NE(no_blocks.find("no core can accept a block"),
              std::string::npos)
        << no_blocks;
    EXPECT_NE(no_blocks.find("max_blocks"), std::string::npos)
        << no_blocks;
}
