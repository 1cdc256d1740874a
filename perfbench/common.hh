/**
 * @file
 * Shared vocabulary of the campaign benchmark runner: the three
 * workloads' requests, host-side clocks and resource readings, the
 * correctness ledger behind `attempted`/`failed`, and the metric list
 * the runner prints. Everything here reaches the simulator only
 * through its public headers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "sim/request.hh"
#include "sim/engine.hh"
#include "sim/sweep.hh"

namespace perfbench {

using namespace gpusimpow;

/** Seed reserved for confirming claims; never used while tuning. */
constexpr uint64_t held_out_seed = 7919;

/** Trace sampling period of the cold/warm campaign, s (~1 us). */
constexpr double campaign_sample_s = 1e-6;
/** Engine workers of one cold/warm campaign. */
constexpr unsigned campaign_workers = 4;
/** Served workload: closed-loop clients x session workers = 4. */
constexpr unsigned served_clients = 2;
constexpr unsigned served_session_workers = 2;

/** Kernels issuing fewer warp instructions per resident core-cycle
 *  than this count as issue-sparse (backprop, kmeans measure
 *  0.005-0.026; matmul 0.12-0.20, mergesort up to 0.97). */
constexpr double issue_sparse_below = 0.05;

/** Host wall clock, s (steady). */
double nowS();
/** Process user+sys CPU, s. */
double cpuS();
/** Peak resident set of this process since the last
 *  resetPeakRss(), MB. */
double peakRssMb();
void resetPeakRss();
/** Host-wide CPU time stolen by the hypervisor so far, s (0 when
 *  unknown): recorded beside the timings as a noise indicator. */
double stealS();
/** Bytes this process moved through read()/write() so far. */
struct IoBytes
{
    uint64_t read = 0;
    uint64_t written = 0;
};
IoBytes ioBytes();

double median(std::vector<double> v);
/** Nearest-rank percentile, p in (0, 100]. */
double percentile(std::vector<double> v, double p);

/** 64-bit FNV-1a, as 16 hex digits. */
std::string fnv1a(const std::string &bytes);

/** Exact per-scenario record (label excluded): every simulated
 *  statistic the table rounds, as hex floats — two results are "the
 *  same" when these strings are equal. */
std::string exactRow(const sim::ScenarioResult &r);

/** Simulated-side totals of a result set. */
struct SimRecord
{
    std::string digest_text; // hashed into sim_digest
    uint64_t shader_cycles = 0;
    uint64_t instructions = 0;
    void add(const sim::SweepResult &table);
    std::string digest() const { return fnv1a(digest_text); }
    double ipc() const
    {
        return shader_cycles ? double(instructions) / shader_cycles
                             : 0.0;
    }
};

/** Counts every checked operation and every failure. */
struct Ledger
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures; // first few, for the record
    void check(bool ok, const std::string &what);
    void attempt(const std::string &what,
                 const std::function<void()> &op);
};

/** Metrics in print order: name -> (value, unit); each name once. */
struct Metrics
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        items;
    void set(const std::string &name, double value,
             const std::string &unit);
};

/** The cold/warm campaign: all Table I workloads x {GT240, GTX580}
 *  x 4 nodes x 4 supply-only points x {stock, liquid} = 768
 *  scenarios (smoke: a 2-workload slice for the self-check). */
sim::SweepRequest campaignRequest(bool smoke);
sim::EngineOptions campaignOptions(unsigned jobs);

/** One served job: a request and the template it was drawn from. */
struct ServedJob
{
    std::size_t template_id = 0;
    sim::SweepRequest request;
};
/** The served pool, in template order. */
std::vector<sim::SweepRequest> servedPool(bool smoke);
/** The seeded job sequence of one round: a shuffled fixed multiset
 *  of the pool, so every seed and round does the same work in a
 *  different order. */
std::vector<ServedJob> servedSequence(uint64_t seed, std::size_t round,
                                      bool smoke);
sim::EngineOptions servedOptions(unsigned jobs);

/** Compare two formatted tables line by line; every differing or
 *  missing line is one failed operation. */
void compareTables(Ledger &ledger, const std::string &want,
                   const std::string &got, const std::string &what);

/** Flip one character of a table (self-check corruption hook). */
std::string corrupt(std::string table);

/** Work directory for one run, removed when the guard dies. */
struct WorkDir
{
    std::filesystem::path path;
    explicit WorkDir(std::filesystem::path p);
    ~WorkDir();
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
