/**
 * @file
 * perfbench_layers: the simulator's layered benchmark. Every number is
 * measured from outside the library, by timing calls into public entry
 * points and by reading the counters those calls already return.
 *
 * Workloads (one op = one allreduce, one training run, or one
 * runSimTraining call):
 *
 *   lp_ring_fattree1024  runLpAllreduce: a lossless, uncompressed 100 MB
 *                        ring on a k=16, 1024-host fat-tree (10 Gb/s,
 *                        2 us links), on a fresh LpFabric at width 1 and
 *                        again wide.
 *   train_hdc_zoo_b10    FuncTrainer: 4 nodes, buildHdcSmall, batch 16,
 *                        ring exchange, inceptionn_b10 with error
 *                        feedback; width 1 and again wide.
 *   sim_alexnet_lossy    runSimTraining: AlexNet, 4 workers, worker-
 *                        aggregator then ring, NIC engines at a fixed
 *                        wire ratio, Bernoulli loss 1e-4 over the
 *                        reliable transport.
 *
 * "Wide" is min(4, usable CPUs). --trace 0 prints the end-to-end
 * metrics. --trace 1 alternates untraced and traced repetitions (the
 * difference is the tracing overhead), then runs one traced op of every
 * other workload and the layer probes, and prints the per-layer
 * metrics; spans go to spans.json and the metrics to layers.json in
 * --out-dir. The last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics. See perfbench/README.md.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/comm_world.h"
#include "comm/gradient_codec.h"
#include "comm/lp_collectives.h"
#include "data/synthetic_digits.h"
#include "distrib/compute_model.h"
#include "distrib/func_trainer.h"
#include "distrib/sim_trainer.h"
#include "net/faults.h"
#include "net/lp_fabric.h"
#include "net/network.h"
#include "net/topology.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "sim/event_queue.h"
#include "sim/random.h"
#include "sim/thread_pool.h"
#include "tensor/gemm.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE ""
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

using namespace inc;

namespace {

using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------------
// Small helpers
// ------------------------------------------------------------------

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile, @p p in (0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

/** Independent 64-bit stream @p salt of the workload seed (splitmix64). */
uint64_t
derive(uint64_t seed, uint64_t salt)
{
    uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMib()
{
    long pages = 0;
    long resident = 0;
    if (FILE *f = std::fopen("/proc/self/statm", "r")) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

bool
bitsEqual(double a, double b)
{
    return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// ------------------------------------------------------------------
// Spans and results
// ------------------------------------------------------------------

/**
 * Spans the benchmark records around its own calls into each layer.
 * Kept in memory and written once, as a Chrome trace, when the run
 * ends. While disabled, open() does nothing.
 */
class SpanLog
{
  public:
    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(SpanLog *log, int id) : log_(log), id_(id) {}
        ~Scope()
        {
            if (log_)
                log_->close(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_;
        int id_;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span under the innermost open one. */
    Scope
    open(const char *layer, std::string name)
    {
        if (!enabled_)
            return Scope(nullptr, -1);
        const int id = static_cast<int>(spans_.size());
        spans_.push_back({layer, std::move(name),
                          stack_.empty() ? -1 : stack_.back(),
                          since(origin_), 0.0});
        stack_.push_back(id);
        return Scope(this, id);
    }

    bool
    writeChromeTrace(const std::filesystem::path &path) const
    {
        FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                         "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                         i ? "," : "", jsonEscape(s.name).c_str(),
                         s.layer, s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i,
                         s.parent);
        }
        std::fprintf(f, "]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        const char *layer;
        std::string name;
        int parent;
        double t0;
        double t1;
    };

    void
    close(int id)
    {
        spans_[static_cast<size_t>(id)].t1 = since(origin_);
        stack_.pop_back();
    }

    bool enabled_ = false;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Op tallies, metrics, and failure notes of one run. */
struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> failures;

    /** Count one op; a non-empty @p problem marks it failed. */
    void
    op(const std::string &what, const std::string &problem)
    {
        ++attempted;
        if (problem.empty())
            return;
        ++failed;
        failures.push_back(what + ": " + problem);
        std::fprintf(stderr, "[perfbench] FAILED %s: %s\n", what.c_str(),
                     problem.c_str());
    }

    void
    add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * How one workload repeats its ops. A repetition runs every op of the
 * workload once (both widths, or both algorithms). Repetitions continue
 * until @p seconds of wall time have passed, and at least @p minReps.
 */
struct Plan
{
    double seconds = 0.0;
    int minReps = 1;
    /** Odd repetitions traced, even ones not (the overhead pairs). */
    bool alternate = false;
    /** Every repetition traced (a one-shot layer probe). */
    bool allTraced = false;

    bool traced(int rep) const
    {
        return allTraced || (alternate && rep % 2 == 1);
    }
    /** Which inputs repetition @p rep uses: an untraced repetition and
     *  the traced one after it share theirs. */
    int input(int rep) const { return alternate ? rep / 2 : rep; }
    /** A traced run: report layer metrics, not end-to-end ones. */
    bool tracing() const { return alternate || allTraced; }
};

/**
 * Run @p body(input, traced) per @p plan. @p body returns the wall time
 * of its timed phase; those feed the tracing-overhead estimate.
 */
template <typename Body>
void
repeat(const Plan &plan, SpanLog &spans, Report &report, Body &&body)
{
    std::vector<double> plain, traced;
    const auto start = Clock::now();
    for (int rep = 0; rep < plan.minReps || since(start) < plan.seconds;
         ++rep) {
        const bool t = plan.traced(rep);
        spans.setEnabled(t);
        const double wall = body(plan.input(rep), t);
        (t ? traced : plain).push_back(wall);
        std::fprintf(stderr, "[perfbench] rep %d%s: %.4f s\n", rep,
                     t ? " (traced)" : "", wall);
    }
    spans.setEnabled(false);
    if (plan.alternate && !plain.empty() && !traced.empty()) {
        const double base = median(plain);
        const double over = median(traced) - base;
        report.add("bench.trace_overhead_s", over, "s");
        report.add("bench.trace_overhead_share", over / base, "ratio");
    }
}

/** What a run is asked to do. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

constexpr uint64_t kDefaultSeed = 1;

/**
 * Seed of input set @p input of a run: the run's own seed first, then
 * fresh ones derived from it. Training cost and loss recovery depend on
 * the inputs, so a run's median spans several input sets instead of
 * resting on one.
 */
uint64_t
inputSeed(uint64_t seed, int input)
{
    return input == 0 ? seed
                      : derive(seed, 100 + static_cast<uint64_t>(input));
}

/** Execution width of the "wide" runs. */
int
wideWidth()
{
    return std::min(4, usableCpus());
}

// ------------------------------------------------------------------
// lp_ring_fattree1024: sim/lp, net/lp_fabric, comm/lp_collectives
// ------------------------------------------------------------------

constexpr int kFatTreeK = 16;
constexpr uint64_t kLpGradientBytes = 100ull * 1000 * 1000;

struct LpRun
{
    LpAllreduceResult result;
    uint64_t delivered = 0;
    double buildS = 0.0;
    double runS = 0.0;
    // Filled only when layer detail is requested.
    uint64_t maxRunnable = 0;
    double imbalance = 0.0;
    uint64_t traceRecords = 0;
    double rssDeltaMib = 0.0;
};

/** Records in the fabric's always-on per-hop trace; 0 once the fabric
 *  no longer keeps one. */
template <typename Fabric>
uint64_t
traceRecordCount(const Fabric &fab)
{
    if constexpr (requires { fab.mergedTrace(); })
        return fab.mergedTrace().size();
    else
        return 0;
}

/** Build a fresh fabric of fat-tree radix @p k and run one ring. */
LpRun
runLpOnce(int k, uint64_t bytes, int width, bool detail, SpanLog &spans)
{
    LpRun out;
    const double rss0 = detail ? currentRssMib() : 0.0;
    const std::string w = ".w" + std::to_string(width);
    const auto t0 = Clock::now();
    std::unique_ptr<LpFabric> fab;
    {
        const auto span = spans.open("net.lp_fabric", "build" + w);
        fab = std::make_unique<LpFabric>(
            fatTreeTopology(k, 10e9, 2 * kMicrosecond), LpFabricConfig{},
            width);
    }
    out.buildS = since(t0);

    LpCollectiveConfig cc;
    cc.algorithm = LpAlgorithm::Ring;
    cc.gradientBytes = bytes;
    const auto t1 = Clock::now();
    {
        const auto span = spans.open("comm.lp_collectives",
                                     "runLpAllreduce" + w);
        out.result = runLpAllreduce(*fab, cc);
    }
    out.runS = since(t1);
    out.delivered = fab->deliveredBytes();

    if (detail) {
        const LpScheduler &sched = fab->scheduler();
        uint64_t busiest = 0;
        for (int lp = 0; lp < sched.lpCount(); ++lp)
            busiest = std::max(busiest, sched.executed(lp));
        const double mean = static_cast<double>(sched.executed()) /
                            static_cast<double>(sched.lpCount());
        out.imbalance = mean > 0.0 ? static_cast<double>(busiest) / mean
                                   : 0.0;
        out.maxRunnable = sched.maxRunnable();
        out.rssDeltaMib = currentRssMib() - rss0;
        const auto span = spans.open("net.lp_fabric", "mergedTrace" + w);
        out.traceRecords = traceRecordCount(*fab);
    }
    // Hand the fabric's memory back to the OS before the next op, so
    // peak RSS is one fabric's, whichever arena the last one used.
    fab.reset();
    malloc_trim(0);
    return out;
}

/** Empty when the two widths agree on every simulated output. */
std::string
checkLpPair(const LpRun &w1, const LpRun &wide, size_t hosts)
{
    const LpAllreduceResult &a = w1.result;
    const LpAllreduceResult &b = wide.result;
    if (a.hostDone.size() != hosts || b.hostDone.size() != hosts)
        return "hostDone has the wrong host count";
    if (a.finish == 0 ||
        *std::max_element(a.hostDone.begin(), a.hostDone.end()) != a.finish)
        return "finish is not the slowest host's done tick";
    if (a.finish != b.finish)
        return "finish differs between widths";
    if (a.hostDone != b.hostDone)
        return "hostDone differs between widths";
    if (w1.delivered == 0 || w1.delivered != wide.delivered)
        return "deliveredBytes differs between widths";
    return {};
}

void
lpWorkload(const Plan &plan, SpanLog &spans, Report &report)
{
    const int wide = wideWidth();
    const size_t hosts = static_cast<size_t>(kFatTreeK) * kFatTreeK *
                         kFatTreeK / 4;
    std::vector<double> setup, run1, runWide, tRun1, tRunWide, tBuild;
    LpRun detail;
    bool haveDetail = false;

    repeat(plan, spans, report, [&](int input, bool traced) {
        const auto span =
            spans.open("bench", "lp.input" + std::to_string(input));
        const bool wantDetail = traced && !haveDetail;
        LpRun a = runLpOnce(kFatTreeK, kLpGradientBytes, 1, wantDetail, spans);
        LpRun b = runLpOnce(kFatTreeK, kLpGradientBytes, wide, false, spans);
        std::fprintf(stderr, "[perfbench] lp run w1 %.4f s, wide %.4f s\n",
                     a.runS, b.runS);
        report.op("lp.w1", a.result.finish ? "" : "no completion");
        report.op("lp.wide", checkLpPair(a, b, hosts));
        setup.push_back(a.buildS);
        setup.push_back(b.buildS);
        (traced ? tRun1 : run1).push_back(a.runS);
        (traced ? tRunWide : runWide).push_back(b.runS);
        if (traced) {
            tBuild.push_back(a.buildS);
            tBuild.push_back(b.buildS);
        }
        const double wall = a.buildS + a.runS + b.buildS + b.runS;
        if (wantDetail) {
            detail = std::move(a);
            haveDetail = true;
        }
        return wall;
    });

    if (!plan.tracing()) {
        report.add("setup_s", median(setup), "s");
        report.add("run_s", median(run1), "s");
        report.add("run_s.wide", median(runWide), "s");
    }
    if (haveDetail) {
        const LpAllreduceResult &r = detail.result;
        const double events = static_cast<double>(r.events);
        report.add("sim.lp.events", events, "count");
        report.add("sim.lp.rounds", static_cast<double>(r.rounds), "count");
        report.add("sim.lp.events_per_round",
                   events / static_cast<double>(std::max<uint64_t>(1, r.rounds)),
                   "count");
        report.add("sim.lp.max_runnable",
                   static_cast<double>(detail.maxRunnable), "count");
        report.add("sim.lp.events_per_s.w1", events / median(tRun1), "1/s");
        report.add("sim.lp.events_per_s.wide", events / median(tRunWide),
                   "1/s");
        report.add("sim.lp.speedup_wide", median(tRun1) / median(tRunWide),
                   "ratio");
        report.add("sim.lp.imbalance", detail.imbalance, "ratio");
        report.add("net.lp_fabric.build_s", median(tBuild), "s");
        report.add("net.lp_fabric.trace_records",
                   static_cast<double>(detail.traceRecords), "count");
        report.add("net.lp_fabric.rss_delta_mib", detail.rssDeltaMib, "MiB");
    }
}

// ------------------------------------------------------------------
// train_hdc_zoo_b10: distrib/func_trainer, comm codec zoo, nn, tensor
// ------------------------------------------------------------------

constexpr int kTrainNodes = 4;
constexpr size_t kTrainBatch = 16;
constexpr uint64_t kTrainSteps = 10;
constexpr size_t kLossWindow = 5; ///< final loss = mean of the last steps
const char *const kTrainCodec = "inceptionn_b10";

/**
 * Final loss of the default seed, and the half-width of the window every
 * input set's final loss must fall into. Over 78 input sets the losses
 * spanned 1.15 .. 1.69; the half-width is twice the largest distance
 * from the pinned value. An untrained model, or one whose gradients do
 * not arrive, stays near ln 10 = 2.3. Re-pin both when the training
 * recipe changes.
 */
constexpr double kPinnedLoss = 1.3830866233096457;
constexpr double kLossHalfWidth = 0.6;

struct TrainRun
{
    double setupS = 0.0;
    double runS = 0.0;
    std::vector<double> stepS;
    double finalLoss = 0.0;
    std::vector<float> params;   ///< replica 0 after the last step
    /** Node 0's gradients at the first, middle and last step. */
    std::vector<float> gradient;
};

/** One training run from scratch at execution width @p width; a null
 *  @p codec trains lossless. */
TrainRun
runTrainOnce(uint64_t seed, int width, const GradientCodec *codec,
             SpanLog &spans)
{
    setGlobalThreadCount(width);
    const std::string w = ".w" + std::to_string(width);
    TrainRun out;
    std::unique_ptr<SyntheticDigits> train, test;
    std::unique_ptr<FuncTrainer> trainer;
    // Replica 0 is built first. Its layers live behind unique_ptrs, so
    // the ParamRefs taken here stay valid after the trainer moves the
    // Model into place: they are how the final parameters are read.
    std::vector<ParamRef> params;
    const auto t0 = Clock::now();
    {
        const auto span = spans.open("distrib.func_trainer", "setup" + w);
        train = std::make_unique<SyntheticDigits>(1600, derive(seed, 1));
        test = std::make_unique<SyntheticDigits>(400, derive(seed, 2));
        FuncTrainerConfig cfg;
        cfg.nodes = kTrainNodes;
        cfg.batchPerNode = kTrainBatch;
        cfg.sgd.learningRate = 0.02;
        cfg.sgd.lrDecayEvery = 0;
        cfg.sgd.clipGradNorm = 5.0;
        cfg.seed = derive(seed, 3);
        cfg.zooCodec = codec;
        cfg.errorFeedback = codec != nullptr;
        const FuncTrainer::ModelBuilder builder = [&params] {
            Model m = buildHdcSmall();
            if (params.empty())
                params = m.params();
            return m;
        };
        trainer = std::make_unique<FuncTrainer>(builder, *train, *test, cfg);
        trainer->captureGradientsAt({0, kTrainSteps / 2, kTrainSteps - 1});
    }
    out.setupS = since(t0);

    std::vector<double> losses;
    const auto t1 = Clock::now();
    for (uint64_t step = 0; step < kTrainSteps; ++step) {
        const auto s = spans.open("distrib.func_trainer",
                                  "train.step" + std::to_string(step) + w);
        const auto s0 = Clock::now();
        trainer->train(1);
        out.stepS.push_back(since(s0));
        losses.push_back(trainer->lastMeanLoss());
    }
    out.runS = since(t1);

    double tail = 0.0;
    for (size_t i = losses.size() - kLossWindow; i < losses.size(); ++i)
        tail += losses[i];
    out.finalLoss = tail / static_cast<double>(kLossWindow);
    for (const ParamRef &p : params) {
        const auto v = p.value->data();
        out.params.insert(out.params.end(), v.begin(), v.end());
    }
    for (const GradientTrace::Entry &e : trainer->gradientTrace().entries())
        out.gradient.insert(out.gradient.end(), e.gradient.begin(),
                            e.gradient.end());
    return out;
}

/**
 * Encode then decode @p values; empty when decode() accepts the wire
 * and every error is within errorBound(). @p corrupt, when set, edits
 * the wire in between (the gate's self-test).
 */
std::string
checkCodecRoundtrip(const GradientCodec &codec, std::span<const float> values,
                    const std::function<void(std::vector<uint8_t> &)> &corrupt =
                        {})
{
    if (values.empty())
        return "no gradient captured";
    std::vector<uint8_t> wire = codec.encode(values);
    if (corrupt)
        corrupt(wire);
    std::vector<float> back(values.size());
    if (!codec.decode(wire, back))
        return "decode() rejected the wire";
    const double bound = codec.errorBound(values);
    for (size_t i = 0; i < values.size(); ++i) {
        const double err = std::fabs(static_cast<double>(values[i]) -
                                     static_cast<double>(back[i]));
        if (!(err <= bound))
            return "error " + num(err) + " exceeds errorBound() " +
                   num(bound) + " at index " + std::to_string(i);
    }
    return {};
}

/** Empty when both widths trained bit-identically to a plausible loss. */
std::string
checkTrainPair(const TrainRun &w1, const TrainRun &wide, double lossLo,
               double lossHi)
{
    if (!std::isfinite(w1.finalLoss))
        return "final loss is not finite";
    if (!bitsEqual(w1.finalLoss, wide.finalLoss))
        return "final loss differs between widths (" + num(w1.finalLoss) +
               " vs " + num(wide.finalLoss) + ")";
    if (w1.params.empty() || w1.params.size() != wide.params.size() ||
        std::memcmp(w1.params.data(), wide.params.data(),
                    w1.params.size() * sizeof(float)) != 0)
        return "parameters differ between widths";
    if (w1.finalLoss < lossLo || w1.finalLoss > lossHi)
        return "final loss " + num(w1.finalLoss) + " outside [" +
               num(lossLo) + ", " + num(lossHi) + "]";
    return {};
}

/** Encode/decode throughput of @p codec on @p values (values per s). */
std::pair<double, double>
codecThroughput(const GradientCodec &codec, std::span<const float> values,
                SpanLog &spans)
{
    const auto span = spans.open("comm.codec", "throughput");
    std::vector<double> enc, dec;
    std::vector<float> back(values.size());
    const auto start = Clock::now();
    while (enc.size() < 5 || since(start) < 0.5) {
        const auto t0 = Clock::now();
        const std::vector<uint8_t> wire = codec.encode(values);
        const double e = since(t0);
        const auto t1 = Clock::now();
        const bool ok = codec.decode(wire, back);
        const double d = since(t1);
        if (!ok)
            break;
        enc.push_back(e);
        dec.push_back(d);
    }
    const double n = static_cast<double>(values.size());
    return {n / median(enc), n / median(dec)};
}

void
trainWorkload(const Plan &plan, uint64_t seed, SpanLog &spans,
              Report &report)
{
    const int wide = wideWidth();
    const auto codec = makeCodec(kTrainCodec);
    const double lossLo = kPinnedLoss - kLossHalfWidth;
    const double lossHi = kPinnedLoss + kLossHalfWidth;
    std::vector<double> setup, run1, runWide, tSteps;
    std::vector<float> gradient;

    repeat(plan, spans, report, [&](int input, bool traced) {
        const auto span =
            spans.open("bench", "train.input" + std::to_string(input));
        const uint64_t s = inputSeed(seed, input);
        const TrainRun a = runTrainOnce(s, 1, codec.get(), spans);
        const TrainRun b = runTrainOnce(s, wide, codec.get(), spans);
        report.op("train.w1", checkCodecRoundtrip(*codec, a.gradient));
        report.op("train.wide", checkTrainPair(a, b, lossLo, lossHi));
        std::fprintf(stderr, "[perfbench] train seed %llu final loss %s\n",
                     static_cast<unsigned long long>(s),
                     num(a.finalLoss).c_str());
        setup.push_back(a.setupS);
        setup.push_back(b.setupS);
        if (!traced) {
            run1.push_back(a.runS);
            runWide.push_back(b.runS);
        } else {
            tSteps.insert(tSteps.end(), a.stepS.begin(), a.stepS.end());
            gradient = a.gradient;
        }
        return a.setupS + a.runS + b.setupS + b.runS;
    });
    setGlobalThreadCount(1);

    if (!plan.tracing()) {
        report.add("setup_s", median(setup), "s");
        report.add("run_s", median(run1), "s");
        report.add("run_s.wide", median(runWide), "s");
    }
    if (!tSteps.empty() && !gradient.empty()) {
        const double p50 = percentile(tSteps, 50.0);
        report.add("distrib.func_trainer.step_s.p50", p50, "s");
        report.add("distrib.func_trainer.step_s.p90",
                   percentile(tSteps, 90.0), "s");
        const auto [enc, dec] = codecThroughput(*codec, gradient, spans);
        const CodecCostModel model = codec->cost();
        report.add("comm.codec.encode_values_per_s", enc, "1/s");
        report.add("comm.codec.decode_values_per_s", dec, "1/s");
        // The cost model's unit: fp32 input bytes per second.
        report.add("comm.codec.cost_model_ratio",
                   enc * 4.0 / model.encodeBytesPerSecond, "ratio");
        report.add("comm.codec.cost_model_ratio.decode",
                   dec * 4.0 / model.decodeBytesPerSecond, "ratio");
        // The codec's share of a step: what the same steps lose when
        // trained lossless, so the error-feedback bookkeeping counts too.
        const TrainRun lossless = runTrainOnce(seed, 1, nullptr, spans);
        report.add("comm.codec.step_share",
                   1.0 - percentile(lossless.stepS, 50.0) / p50, "ratio");
    }
}

// ------------------------------------------------------------------
// sim_alexnet_lossy: sim/event_queue, net/network, net/reliable,
// comm/comm_world and the serial collectives
// ------------------------------------------------------------------

constexpr int kSimWorkers = 4;
constexpr uint64_t kSimIterations = 2;
constexpr double kSimLossRate = 1e-4;
constexpr double kSimWireRatio = 3.5;

SimTrainerConfig
simConfig(ExchangeAlgorithm algorithm, uint64_t faultSeed, bool lossy)
{
    SimTrainerConfig cfg;
    cfg.workload = alexNetWorkload();
    cfg.workers = kSimWorkers;
    cfg.algorithm = algorithm;
    cfg.compressGradients = true;
    cfg.wireRatio = kSimWireRatio;
    cfg.iterations = kSimIterations;
    if (lossy) {
        cfg.faultInjection.enabled = true;
        cfg.faultInjection.faults.seed = faultSeed;
        cfg.faultInjection.faults.defaultLink.loss = LossKind::Bernoulli;
        cfg.faultInjection.faults.defaultLink.lossRate = kSimLossRate;
    }
    return cfg;
}

/** Simulated outputs of the default seed, pinned per algorithm. */
struct SimPin
{
    double seconds; ///< SimTrainerResult::totalSeconds
    uint64_t retransmits;
    uint64_t drops;
};
constexpr SimPin kPinnedWa{3.0888507399999998, 534, 519};
constexpr SimPin kPinnedRing{1.0439907799999999, 388, 388};

/**
 * Empty when @p r is sound: the run completed, it is no faster than
 * the lossless run @p lossless, it repeats @p first exactly, and, when
 * @p pin is given, it matches the pinned values.
 */
std::string
checkSimRun(const SimTrainerResult &r, const SimTrainerResult &first,
            const SimTrainerResult &lossless, const SimPin *pin)
{
    if (r.iterations != kSimIterations || !(r.totalSeconds > 0.0))
        return "run did not complete";
    if (r.totalSeconds < lossless.totalSeconds)
        return "lossy run is faster than the lossless one";
    if (!bitsEqual(r.totalSeconds, first.totalSeconds) ||
        r.retransmits != first.retransmits ||
        r.packetsDropped != first.packetsDropped)
        return "differs from the first repeat (" + num(r.totalSeconds) +
               " s, " + std::to_string(r.retransmits) + " retx, " +
               std::to_string(r.packetsDropped) + " drops)";
    if (pin && (!bitsEqual(r.totalSeconds, pin->seconds) ||
                r.retransmits != pin->retransmits ||
                r.packetsDropped != pin->drops))
        return "differs from the pinned default-seed values (" +
               num(r.totalSeconds) + " s, " +
               std::to_string(r.retransmits) + " retx, " +
               std::to_string(r.packetsDropped) + " drops)";
    return {};
}

/**
 * Build the inputs and the system runSimTraining sets up for one
 * algorithm: config, Network, FaultModel and reliable CommWorld.
 */
void
buildSimSystem(ExchangeAlgorithm algorithm, uint64_t faultSeed)
{
    const SimTrainerConfig cfg = simConfig(algorithm, faultSeed, true);
    EventQueue events;
    NetworkConfig net = cfg.netConfig;
    net.nodes = algorithm == ExchangeAlgorithm::WorkerAggregator
                    ? cfg.workers + 1
                    : cfg.workers;
    net.nicConfig.hasCompressionEngine = true;
    Network network(events, net);
    FaultModel faults(cfg.faultInjection.faults);
    network.attachFaults(&faults);
    TransportOptions transport;
    transport.reliable = true;
    transport.reliableConfig = cfg.faultInjection.reliable;
    const CommWorld comm(network, transport);
}

void
simWorkload(const Plan &plan, uint64_t seed, SpanLog &spans, Report &report)
{
    const ExchangeAlgorithm algos[2] = {ExchangeAlgorithm::WorkerAggregator,
                                        ExchangeAlgorithm::Ring};
    const SimPin *pins[2] = {&kPinnedWa, &kPinnedRing};
    const char *names[2] = {"wa", "ring"};
    SimTrainerResult lossless[2];
    for (int a = 0; a < 2; ++a)
        lossless[a] = runSimTraining(simConfig(algos[a], 0, false));
    /** Per input set: the first run of each algorithm, which every
     *  repeat must match. */
    std::vector<std::array<SimTrainerResult, 2>> first;

    const int widths[2] = {1, wideWidth()};
    std::vector<double> setup, run[2], tWall[2];
    SimTrainerResult traced0[2];
    bool haveTraced = false;
    constexpr int kBuildsPerSample = 1000;

    repeat(plan, spans, report, [&](int input, bool traced) {
        const auto span =
            spans.open("bench", "sim.input" + std::to_string(input));
        const uint64_t faultSeed = derive(inputSeed(seed, input), 4);
        const bool pinned = seed == kDefaultSeed && input == 0;
        const bool fresh = static_cast<size_t>(input) == first.size();
        if (fresh)
            first.emplace_back();
        const auto t0 = Clock::now();
        {
            const auto s = spans.open("net.network", "build");
            for (int i = 0; i < kBuildsPerSample; ++i)
                for (const ExchangeAlgorithm algo : algos)
                    buildSimSystem(algo, faultSeed);
        }
        setup.push_back(since(t0) / kBuildsPerSample);

        // The packet engine is serial; the wide pass shows whether the
        // global execution width changes its speed or its results.
        double total = 0.0;
        for (int wi = 0; wi < 2; ++wi) {
            setGlobalThreadCount(widths[wi]);
            const std::string w = ".w" + std::to_string(widths[wi]);
            double wall = 0.0;
            for (int a = 0; a < 2; ++a) {
                const SimTrainerConfig cfg =
                    simConfig(algos[a], faultSeed, true);
                const auto t1 = Clock::now();
                SimTrainerResult r;
                {
                    const auto s = spans.open(
                        "distrib.sim_trainer",
                        std::string("runSimTraining.") + names[a] + w);
                    r = runSimTraining(cfg);
                }
                const double took = since(t1);
                wall += took;
                auto &ref = first[static_cast<size_t>(input)][a];
                if (fresh && wi == 0)
                    ref = r;
                report.op(std::string("sim.") + names[a] + w,
                          checkSimRun(r, ref, lossless[a],
                                      pinned ? pins[a] : nullptr));
                if (traced && wi == 0) {
                    tWall[a].push_back(took /
                                       static_cast<double>(kSimIterations));
                    if (!haveTraced)
                        traced0[a] = r;
                }
            }
            if (!traced)
                run[wi].push_back(wall);
            total += wall;
        }
        setGlobalThreadCount(1);
        haveTraced = haveTraced || traced;
        return total;
    });

    if (!plan.tracing()) {
        report.add("setup_s", median(setup), "s");
        report.add("run_s", median(run[0]), "s");
        report.add("run_s.wide", median(run[1]), "s");
    }
    if (haveTraced) {
        const uint64_t retx = traced0[0].retransmits + traced0[1].retransmits;
        const uint64_t drops =
            traced0[0].packetsDropped + traced0[1].packetsDropped;
        report.add("net.reliable.retransmits", static_cast<double>(retx),
                   "count");
        report.add("net.reliable.packets_dropped", static_cast<double>(drops),
                   "count");
        report.add("net.reliable.spurious_retx",
                   static_cast<double>(retx) - static_cast<double>(drops),
                   "count");
        report.add("distrib.sim_trainer.wall_s_per_iter.wa", median(tWall[0]),
                   "s");
        report.add("distrib.sim_trainer.wall_s_per_iter.ring",
                   median(tWall[1]), "s");
    }
}

// ------------------------------------------------------------------
// Layer probes (traced runs only)
// ------------------------------------------------------------------

/** Wall time per call of @p fn: median over batches of @p perBatch. */
template <typename Fn>
double
timePerCall(int perBatch, double minSeconds, Fn &&fn)
{
    std::vector<double> samples;
    const auto start = Clock::now();
    while (samples.size() < 5 || since(start) < minSeconds) {
        const auto t0 = Clock::now();
        for (int i = 0; i < perBatch; ++i)
            fn();
        samples.push_back(since(t0) / perBatch);
    }
    return median(samples);
}

/** Schedule and drain no-op callbacks at seeded ticks. */
double
eventQueueNsPerEvent(uint64_t seed)
{
    constexpr int kEvents = 1 << 18;
    Rng rng(derive(seed, 5));
    std::vector<Tick> ticks(kEvents);
    for (Tick &t : ticks)
        t = rng.below(1000 * kMicrosecond);
    uint64_t fired = 0;
    const double perRun = timePerCall(1, 0.5, [&] {
        EventQueue q;
        for (const Tick t : ticks)
            q.schedule(t, [&fired] { ++fired; });
        q.run();
    });
    return perRun / kEvents * 1e9;
}

/** GFLOP/s of gemm over the HDC-small dense-layer shapes (batch 16):
 *  forward, weight-gradient and input-gradient products. */
double
gemmGflops(int width)
{
    setGlobalThreadCount(width);
    const size_t dims[][2] = {{784, 128}, {128, 128}, {128, 10}};
    struct Shape
    {
        size_t m, n, k;
    };
    std::vector<Shape> shapes;
    for (const auto &d : dims) {
        shapes.push_back({kTrainBatch, d[1], d[0]});
        shapes.push_back({d[0], d[1], kTrainBatch});
        shapes.push_back({kTrainBatch, d[0], d[1]});
    }
    double flops = 0.0;
    size_t most = 0;
    for (const Shape &s : shapes) {
        flops += 2.0 * static_cast<double>(s.m * s.n * s.k);
        most = std::max({most, s.m * s.k, s.k * s.n, s.m * s.n});
    }
    Rng rng(7);
    std::vector<float> a(most), b(most), c(most);
    for (float &v : a)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (float &v : b)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    const double perPass = timePerCall(20, 0.3, [&] {
        for (const Shape &s : shapes)
            gemm(Trans::No, Trans::No, s.m, s.n, s.k, 1.0f, a.data(), s.k,
                 b.data(), s.n, 0.0f, c.data(), s.n);
    });
    setGlobalThreadCount(1);
    return flops / perPass / 1e9;
}

/** One forward+backward of the HDC-small model on a batch of 16. */
double
fwdBwdSeconds(uint64_t seed)
{
    setGlobalThreadCount(1);
    Model model = buildHdcSmall();
    Rng rng(derive(seed, 6));
    model.init(rng);
    const SyntheticDigits data(kTrainBatch, derive(seed, 7));
    std::vector<size_t> idx(kTrainBatch);
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    const Batch batch = data.batch(idx);
    SoftmaxCrossEntropy loss;
    return timePerCall(20, 0.3, [&] {
        model.zeroGrads();
        const Tensor &logits = model.forward(batch.x, true);
        loss.forward(logits, batch.labels);
        model.backward(loss.backward());
    });
}

/** An empty parallelFor over the wide pool: the dispatch cost. */
double
threadPoolDispatchUs(int width)
{
    setGlobalThreadCount(width);
    const std::function<void(size_t, size_t)> noop = [](size_t, size_t) {};
    const double perCall = timePerCall(1000, 0.3, [&] {
        parallelFor(0, static_cast<size_t>(width), 1, noop);
    });
    setGlobalThreadCount(1);
    return perCall * 1e6;
}

void
layerProbes(uint64_t seed, SpanLog &spans, Report &report)
{
    spans.setEnabled(true);
    const int wide = wideWidth();
    {
        const auto s = spans.open("sim.event_queue", "probe");
        report.add("sim.event_queue.ns_per_event", eventQueueNsPerEvent(seed),
                   "ns");
    }
    {
        const auto s = spans.open("sim.thread_pool", "probe");
        report.add("sim.thread_pool.dispatch_us", threadPoolDispatchUs(wide),
                   "us");
    }
    {
        const auto s = spans.open("tensor.gemm", "probe");
        report.add("tensor.gemm.gflops.w1", gemmGflops(1), "GFLOP/s");
        report.add("tensor.gemm.gflops.wide", gemmGflops(wide), "GFLOP/s");
    }
    {
        const auto s = spans.open("nn.model", "probe");
        report.add("nn.fwd_bwd_s", fwdBwdSeconds(seed), "s");
    }
    spans.setEnabled(false);
}

// ------------------------------------------------------------------
// Correctness-gate self-test
// ------------------------------------------------------------------

/**
 * Feed each checker a sound output and deliberately corrupted copies;
 * returns the corruptions a checker failed to count as failed.
 */
std::vector<std::string>
gateSelfTest()
{
    std::vector<std::string> missed;
    auto expectFail = [&missed](const std::string &what,
                                const std::string &problem) {
        if (problem.empty())
            missed.push_back(what);
    };
    SpanLog off;

    // LP: a 16-host fat-tree at widths 1 and 2.
    const LpRun a = runLpOnce(4, 1000 * 1000, 1, false, off);
    const LpRun b = runLpOnce(4, 1000 * 1000, 2, false, off);
    if (!checkLpPair(a, b, 16).empty())
        missed.push_back("lp: sound pair rejected");
    LpRun bad = b;
    bad.result.finish += 1;
    expectFail("lp: finish", checkLpPair(a, bad, 16));
    bad = b;
    bad.result.hostDone[3] += 1;
    expectFail("lp: hostDone", checkLpPair(a, bad, 16));
    bad = b;
    bad.delivered -= 1;
    expectFail("lp: deliveredBytes", checkLpPair(a, bad, 16));

    // Train: parameters, loss, and the codec wire.
    TrainRun t1;
    t1.finalLoss = 0.5;
    t1.params = {0.25f, -1.0f, 3.0f};
    TrainRun t2 = t1;
    if (!checkTrainPair(t1, t2, 0.4, 0.6).empty())
        missed.push_back("train: sound pair rejected");
    t2.params[1] = std::nextafter(t2.params[1], 0.0f);
    expectFail("train: parameter", checkTrainPair(t1, t2, 0.4, 0.6));
    t2 = t1;
    t2.finalLoss = std::nextafter(0.5, 1.0);
    expectFail("train: loss across widths", checkTrainPair(t1, t2, 0.4, 0.6));
    expectFail("train: loss window", checkTrainPair(t1, t1, 0.6, 0.7));
    const auto codec = makeCodec(kTrainCodec);
    std::vector<float> g(4096);
    Rng rng(9);
    for (float &v : g)
        v = static_cast<float>(rng.gaussian(0.0, 0.04));
    if (!checkCodecRoundtrip(*codec, g).empty())
        missed.push_back("codec: sound wire rejected");
    expectFail("codec: truncated wire",
               checkCodecRoundtrip(*codec, g, [](std::vector<uint8_t> &w) {
                   w.resize(w.size() / 2);
               }));
    expectFail("codec: flipped payload",
               checkCodecRoundtrip(*codec, g, [](std::vector<uint8_t> &w) {
                   for (size_t i = 24; i < w.size(); i += 7)
                       w[i] ^= 0x5A;
               }));

    // Sim: repeat determinism and the pins.
    SimTrainerResult s;
    s.iterations = kSimIterations;
    s.totalSeconds = 2.0;
    s.retransmits = 10;
    s.packetsDropped = 8;
    SimTrainerResult lossless = s;
    lossless.totalSeconds = 1.5;
    const SimPin pin{2.0, 10, 8};
    if (!checkSimRun(s, s, lossless, &pin).empty())
        missed.push_back("sim: sound run rejected");
    SimTrainerResult badSim = s;
    badSim.retransmits += 1;
    expectFail("sim: retransmits", checkSimRun(badSim, s, lossless, nullptr));
    badSim = s;
    badSim.totalSeconds = std::nextafter(2.0, 3.0);
    expectFail("sim: seconds", checkSimRun(badSim, s, lossless, nullptr));
    expectFail("sim: pin", checkSimRun(badSim, badSim, lossless, &pin));
    SimTrainerResult slower = s;
    slower.totalSeconds = 3.0;
    expectFail("sim: faster than lossless",
               checkSimRun(s, s, slower, nullptr));
    return missed;
}

// ------------------------------------------------------------------
// Environment stamp and output
// ------------------------------------------------------------------

/** Empty when the build may report numbers; else why not. */
std::string
buildRefusal()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
#if !defined(__OPTIMIZE__)
    return "unoptimised build (flags: '" + flags + "')";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
    if (flags.find("-fsanitize") != std::string::npos)
        return "sanitizer build (flags: '" + flags + "')";
    if (flags.find("-O0") != std::string::npos)
        return "-O0 build (flags: '" + flags + "')";
    return {};
}

std::string
sanitizerName()
{
    const std::string flags = PERFBENCH_CXX_FLAGS;
    const size_t at = flags.find("-fsanitize=");
    if (at == std::string::npos)
        return "none";
    const size_t end = flags.find(' ', at);
    return flags.substr(at + 11, end == std::string::npos ? end : end - at - 11);
}

std::string
envJson(const Options &opt)
{
    std::string j = "{";
    j += "\"nproc\": " + std::to_string(usableCpus());
    j += ", \"wide_width\": " + std::to_string(wideWidth());
    j += ", \"compiler\": \"" + jsonEscape(PERFBENCH_COMPILER) + "\"";
    j += ", \"build_type\": \"" + jsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
    j += ", \"cxx_flags\": \"" + jsonEscape(PERFBENCH_CXX_FLAGS) + "\"";
    j += ", \"sanitizer\": \"" + jsonEscape(sanitizerName()) + "\"";
    j += ", \"git_commit\": \"" + jsonEscape(opt.commit) + "\"";
    j += ", \"source_digest\": \"" + jsonEscape(opt.sourceDigest) + "\"";
    j += ", \"workload\": \"" + jsonEscape(opt.workload) + "\"";
    j += ", \"seed\": " + std::to_string(opt.seed);
    j += ", \"seconds\": " + num(opt.seconds);
    j += ", \"trace\": " + std::string(opt.trace ? "1" : "0");
    j += "}";
    return j;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string j = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        j += (i ? ", \"" : "\"") + jsonEscape(m.name) +
             "\": {\"value\": " + num(m.value) + ", \"unit\": \"" +
             jsonEscape(m.unit) + "\"}";
    }
    return j + "}";
}

bool
writeFile(const std::filesystem::path &path, const std::string &text)
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--out-dir DIR] [--commit ID] "
                 "[--source-digest HEX]\n"
                 "workloads: lp_ring_fattree1024 train_hdc_zoo_b10 "
                 "sim_alexnet_lossy\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        if (key == "--workload")
            opt.workload = val;
        else if (key == "--seed")
            opt.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            opt.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            opt.trace = std::strtol(val, nullptr, 10) != 0;
        else if (key == "--out-dir")
            opt.outDir = val;
        else if (key == "--commit")
            opt.commit = val;
        else if (key == "--source-digest")
            opt.sourceDigest = val;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 ||
        (opt.workload != "lp_ring_fattree1024" &&
         opt.workload != "train_hdc_zoo_b10" &&
         opt.workload != "sim_alexnet_lossy"))
        return usage(argv[0]);

    if (const std::string why = buildRefusal(); !why.empty()) {
        std::fprintf(stderr, "[perfbench] refusing to measure: %s\n",
                     why.c_str());
        return 3;
    }
    const std::string env = envJson(opt);
    std::printf("env %s\n", env.c_str());

    const std::vector<std::string> missed = gateSelfTest();
    for (const std::string &m : missed)
        std::fprintf(stderr, "[perfbench] gate self-test missed: %s\n",
                     m.c_str());

    Report report;
    SpanLog spans;
    setGlobalThreadCount(1);
    const Plan own = {opt.seconds, 3, opt.trace, false};
    const Plan probe = {0.0, 1, false, true};
    const bool lp = opt.workload == "lp_ring_fattree1024";
    const bool train = opt.workload == "train_hdc_zoo_b10";
    const bool sim = opt.workload == "sim_alexnet_lossy";
    if (!opt.trace) {
        if (lp)
            lpWorkload(own, spans, report);
        if (train)
            trainWorkload(own, opt.seed, spans, report);
        if (sim)
            simWorkload(own, opt.seed, spans, report);
        report.add("peak_rss_mib", peakRssMib(), "MiB");
    } else {
        // The workload's own layers come from its traced repetitions;
        // every other layer from one traced op of the workload that
        // exercises it, so each traced run reports every layer metric.
        lpWorkload(lp ? own : probe, spans, report);
        trainWorkload(train ? own : probe, opt.seed, spans, report);
        simWorkload(sim ? own : probe, opt.seed, spans, report);
        layerProbes(opt.seed, spans, report);
    }

    const bool correct = report.failed == 0 && missed.empty();
    std::printf("%-40s %22s  %s\n", "metric", "value", "unit");
    for (const Metric &m : report.metrics)
        std::printf("%-40s %22.6g  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("ops attempted %llu, failed %llu, gate self-test %s\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                missed.empty() ? "ok" : "MISSED CORRUPTIONS");

    const std::string result =
        "{\"correct\": " + std::string(correct ? "true" : "false") +
        ", \"attempted\": " + std::to_string(report.attempted) +
        ", \"failed\": " + std::to_string(report.failed) +
        ", \"metrics\": " + metricsJson(report.metrics) + "}";
    if (!opt.outDir.empty()) {
        namespace fs = std::filesystem;
        std::error_code ec;
        fs::create_directories(opt.outDir, ec);
        std::string failures = "[";
        for (size_t i = 0; i < report.failures.size(); ++i)
            failures += (i ? ", \"" : "\"") +
                        jsonEscape(report.failures[i]) + "\"";
        failures += "]";
        const std::string file = "{\"env\": " + env + ", \"result\": " +
                                 result + ", \"failures\": " + failures +
                                 "}\n";
        const fs::path dir(opt.outDir);
        bool ok = writeFile(dir / "result.json", file);
        if (opt.trace) {
            ok = spans.writeChromeTrace(dir / "spans.json") && ok;
            ok = writeFile(dir / "layers.json", file) && ok;
        }
        if (!ok)
            std::fprintf(stderr, "[perfbench] could not write %s\n",
                         opt.outDir.c_str());
    }
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
    return 0;
}
