#include "common.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include <malloc.h>
#include <sys/resource.h>

#include "common/random.hh"
#include "common/strutil.hh"

namespace perfbench {

double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto s = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
    };
    return s(ru.ru_utime) + s(ru.ru_stime);
}

void
resetPeakRss()
{
    // Hand freed heap back first, so each campaign starts from its
    // live set as a fresh process would, not from whatever the
    // allocator kept from the previous one.
    malloc_trim(0);
    // "5" resets VmHWM to the current RSS (Linux >= 4.0); without it
    // the reading below stays the process-lifetime peak.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string key;
    while (in >> key) {
        if (key == "VmHWM:") {
            double kib = 0;
            in >> kib;
            return kib / 1024.0;
        }
        in.ignore(1 << 20, '\n');
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

double
stealS()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    uint64_t field[8] = {};
    in >> cpu;
    for (uint64_t &f : field)
        in >> f;
    return cpu == "cpu" ? double(field[7]) / 100.0 : 0.0; // USER_HZ
}

IoBytes
ioBytes()
{
    IoBytes io;
    std::ifstream in("/proc/self/io");
    std::string key;
    uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "rchar:")
            io.read = value;
        else if (key == "wchar:")
            io.written = value;
    }
    return io;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

std::string
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return strformat("%016llx", static_cast<unsigned long long>(h));
}

std::string
exactRow(const sim::ScenarioResult &r)
{
    std::string out = strformat(
        "t=%a e=%a p=%a s=%a a=%a v=%a hz=%a ok=%d th=%d tmax=%a "
        "thr=%d conv=%d fmin=%a",
        r.time_s, r.energy_j, r.avg_power_w,
        r.static_w, r.area_mm2, r.vdd, r.shader_hz, r.verified ? 1 : 0,
        r.thermal ? 1 : 0, r.t_max_k, r.throttled ? 1 : 0,
        r.thermal_converged ? 1 : 0, r.min_freq_scale);
    for (const sim::KernelResult &k : r.kernels) {
        const KernelRun &run = k.run;
        double card_w = run.report.totalPower() + run.report.dram_w;
        out += strformat(" |%s cyc=%llu ins=%llu t=%a E=%a", k.label.c_str(),
                         static_cast<unsigned long long>(run.perf.cycles),
                         static_cast<unsigned long long>(
                             run.perf.instructions),
                         run.perf.time_s, card_w * run.perf.time_s);
    }
    return out;
}

void
SimRecord::add(const sim::SweepResult &table)
{
    digest_text += table.formatTable();
    for (const sim::ScenarioResult &r : table.rows()) {
        digest_text += r.scenario.label + ' ' + exactRow(r);
        digest_text += '\n';
        for (const sim::KernelResult &k : r.kernels) {
            shader_cycles += k.run.perf.cycles;
            instructions += k.run.perf.instructions;
        }
    }
}

void
Ledger::check(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 8)
        failures.push_back(what);
}

void
Ledger::attempt(const std::string &what, const std::function<void()> &op)
{
    try {
        op();
    } catch (const std::exception &e) {
        check(false, what + ": " + e.what());
    }
}

void
Metrics::set(const std::string &name, double value,
             const std::string &unit)
{
    items.push_back({name, {value, unit}});
}

sim::SweepRequest
campaignRequest(bool smoke)
{
    if (smoke)
        return sim::SweepRequest()
            .withGpus("gt240")
            .withWorkloads("vectoradd,scalarprod")
            .withNodes("40,28")
            .withVf("0.95:1,1.05:1")
            .withCoolings("stock,liquid");
    return sim::SweepRequest()
        .withGpus("gt240,gtx580")
        .withWorkloads("all")
        .withNodes("40,32,28,20")
        .withVf("0.9:1,0.95:1,1:1,1.05:1")
        .withCoolings("stock,liquid");
}

sim::EngineOptions
campaignOptions(unsigned jobs)
{
    return sim::EngineOptions().withJobs(jobs).withTrace(
        true, campaign_sample_s);
}

std::vector<sim::SweepRequest>
servedPool(bool smoke)
{
    using sim::SweepRequest;
    auto gtx580 = [] { return SweepRequest().withGpus("gtx580"); };
    std::vector<SweepRequest> pool = {
        // Power-only grids over the dense kernels: the first job of
        // a kernel captures, the rest replay.
        gtx580().withWorkloads("matmul").withNodes("40,28"),
        gtx580()
            .withWorkloads("blackscholes")
            .withNodes("40,28")
            .withVf("0.9:1,1:1"),
        gtx580().withWorkloads("pathfinder").withCoolings("stock,liquid"),
        gtx580()
            .withWorkloads("heartwall")
            .withNodes("40,32")
            .withVf("0.95:1,1.05:1"),
        // Multi-kernel jobs sharing snapshot keys with the above.
        gtx580().withWorkloads("matmul,blackscholes").withCoolings("stock"),
        gtx580().withWorkloads("pathfinder,heartwall").withNodes("28"),
        // A clock change is a new timing key: its own capture.
        gtx580().withWorkloads("heartwall").withVf("1:0.9"),
        // Governed: the throttle feeds power back into timing, so
        // these always re-simulate.
        gtx580()
            .withWorkloads("matmul")
            .withCoolings("constrained")
            .withThrottle(true),
        gtx580()
            .withWorkloads("blackscholes")
            .withCoolings("constrained")
            .withThrottle(true),
    };
    if (smoke)
        pool = {SweepRequest().withWorkloads("vectoradd").withNodes("40,28"),
                SweepRequest()
                    .withWorkloads("vectoradd")
                    .withCoolings("constrained")
                    .withThrottle(true)};
    return pool;
}

std::vector<ServedJob>
servedSequence(uint64_t seed, std::size_t round, bool smoke)
{
    const std::vector<sim::SweepRequest> pool = servedPool(smoke);
    // Fixed multiset: the replayable templates thrice (repeats hit
    // the session), the new-clock and governed ones twice.
    std::vector<ServedJob> jobs;
    for (std::size_t t = 0; t < pool.size(); ++t) {
        const bool twice = smoke || t + 3 >= pool.size();
        for (unsigned k = 0; k < (twice ? 2u : 3u); ++k)
            jobs.push_back({t, pool[t]});
    }
    // One stream per (seed, round): a run samples several orders, so
    // its medians do not hinge on one order's makespan.
    SplitMix64 rng(SplitMix64(seed).next() + round);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.nextBounded(i)]);
    return jobs;
}

sim::EngineOptions
servedOptions(unsigned jobs)
{
    return sim::EngineOptions().withJobs(jobs);
}

void
compareTables(Ledger &ledger, const std::string &want,
              const std::string &got, const std::string &what)
{
    std::vector<std::string> a = split(want, '\n');
    std::vector<std::string> b = split(got, '\n');
    std::size_t n = std::max(a.size(), b.size());
    for (std::size_t i = 0; i < n; ++i) {
        bool same = i < a.size() && i < b.size() && a[i] == b[i];
        ledger.check(same, strformat("%s: table line %zu differs",
                                     what.c_str(), i));
    }
}

std::string
corrupt(std::string table)
{
    // Bump the last digit of the first data row.
    std::size_t row = table.find('\n');
    std::size_t pos = table.find_last_of("0123456789",
                                         table.find('\n', row + 1));
    if (pos != std::string::npos)
        table[pos] = table[pos] == '9' ? '0' : char(table[pos] + 1);
    return table;
}

WorkDir::WorkDir(std::filesystem::path p) : path(std::move(p))
{
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
}

WorkDir::~WorkDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

} // namespace perfbench
