// Composed-stack benchmark: the LAKE stack as deployed, driven by
// LinnOS-shaped scoring traffic, measured end to end and layer by
// layer from the outside.
//
// One process runs one workload (see README.md for why each exists):
//
//   serve_gpu         TrafficGenerator -> ScoreServer -> policy ->
//                     LakeMlp over lakeLib/channel/lakeD, 1 device
//   capture_cpu       begin/capture x5/commit + ScoreServer submit per
//                     I/O completion; batches stay below the crossover
//   capture_gpu_fast  the same capture path above the crossover with
//                     the SoA plane, lakeLib pipelining and streaming
//   serve_fleet       the serving path over 4 devices / 4 lakeD shards
//                     placed by the FleetRouter, ~10x one device's load
//
// Offered rates are absolute and pinned in kWorkloads; nothing here is
// calibrated from the code under test. Arrivals are open-loop Poisson
// over 64 tenants and every latency is taken from the request's
// scheduled arrival on the virtual clock, so virtual metrics are exact
// for a seed. Host metrics come from repeated, freshly booted timed
// phases, with the ML compute pool pinned to one thread.
//
// Every repeat is gated: each score equals the CPU-oracle label of its
// vector, every arrival has exactly one outcome, arena allocations and
// stream credits return to their post-boot baseline, and the virtual
// results are identical across repeats. Any violation exits non-zero.
//
// --trace 1 adds span recording in this file around each call into a
// layer (request factory, capture calls, ScoreServer calls, classifier
// callbacks, featurize, CPU/GPU inference, the generator's run()), and
// reports the per-layer metrics and a layer budget whose rows sum to
// the end-to-end mean, in virtual and host ns per vector.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/thread_pool.h"
#include "base/time.h"
#include "core/lake.h"
#include "ml/backends.h"
#include "ml/mlp.h"
#include "policy/policy.h"
#include "registry/manager.h"
#include "remote/fleet.h"
#include "serve/serve.h"
#include "serve/traffic.h"
#include "storage/linnos.h"

using namespace lake;

namespace {

/// @name Pinned inputs (shared by every workload)
/// @{
constexpr std::size_t kTenants = 64;
constexpr std::size_t kMaxBatch = 32;
/** LinnOS GPU crossover batch (Table 3; storage::E2eConfig default). */
constexpr std::size_t kCrossover = 8;
/** Registries per lane for the single-device workloads. */
constexpr std::size_t kShardRegs = 4;
/** Latency limit on p99: about ten NVMe reads. */
constexpr double kLimitUs = 1000.0;
constexpr double kMaxFailRatio = 0.01;
/** SLO ladder: rung k offers kLadderBase * kLadderStep^k vectors/s. */
constexpr double kLadderBase = 10000.0;
constexpr double kLadderStep = 1.05;
constexpr int kLadderRungs = 160;
/** Model weights come from this fixed seed; nothing is trained. */
constexpr std::uint64_t kModelSeed = 42;
constexpr Nanos kTick = 50_us;
/** Commit the offered rates below were sized at. */
constexpr const char *kSizedAt = "6eda378";
/**
 * Size of the ML compute pool (base::ThreadPool::global()) while
 * measuring. One thread runs every parallelFor inline on the driving
 * thread: the default pool (one thread per vCPU) wakes its workers
 * about six times per GPU batch, so on a shared VM host time would
 * measure the scheduler. The traced run also times repeats with the
 * default-size pool and reports the pool's cost as ml.pool_slowdown.
 */
constexpr std::size_t kComputeThreads = 1;
/// @}

constexpr const char *kSys = "stackbench";

enum class Path
{
    Serve,
    Capture,
};

struct Workload
{
    const char *name;
    Path path;
    std::size_t devices;
    /** SoA plane + submitView, lakeLib pipelining, streaming DMA. */
    bool fast;
    /** Offered load, vectors per virtual second (absolute). */
    double rate_vps;
    /** Arrivals per timed repeat, per SLO probe, and in smoke mode. */
    std::size_t arrivals;
    std::size_t probe_arrivals;
    std::size_t smoke_arrivals;
};

const Workload kWorkloads[] = {
    // 0.8 x the 382.6k vectors/s one-device GPU ceiling of fleet_scaling.
    {"serve_gpu", Path::Serve, 1, false, 306000.0, 60000, 12000, 4000},
    {"capture_cpu", Path::Capture, 1, false, 5000.0, 40000, 12000, 4000},
    {"capture_gpu_fast", Path::Capture, 1, true, 180000.0, 60000, 12000,
     4000},
    // 10 x the one-device ceiling, spread over 4 devices.
    {"serve_fleet", Path::Serve, 4, false, 3826000.0, 96000, 24000, 8000},
};

const std::array<std::string, storage::kLinnosHistory> kLatFeature = {
    "io_lat0", "io_lat1", "io_lat2", "io_lat3"};

std::int64_t
hostNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One LinnOS request: pending I/Os plus four latency-history values. */
struct Io
{
    std::uint32_t pend = 0;
    std::array<std::uint32_t, storage::kLinnosHistory> lat{};
};

Io
drawIo(Rng &rng)
{
    Io io;
    io.pend = static_cast<std::uint32_t>(rng.uniformInt(0, 31));
    for (std::uint32_t &l : io.lat)
        l = static_cast<std::uint32_t>(rng.uniformInt(50, 2000));
    return io;
}

/** Copies batch-view rows into one dense matrix (LakeMlp's input). */
ml::Matrix
gather(const std::vector<ml::MatrixView> &views, std::size_t rows)
{
    ml::Matrix x(rows, storage::kLinnosFeatures);
    std::size_t r = 0;
    for (const ml::MatrixView &mv : views)
        for (std::size_t i = 0; i < mv.rows(); ++i, ++r)
            std::memcpy(x.row(r), mv.row(i),
                        storage::kLinnosFeatures * sizeof(float));
    return x;
}

registry::Schema
linnosSchema()
{
    registry::Schema schema;
    schema.add("pend_ios");
    for (const std::string &f : kLatFeature)
        schema.add(f);
    return schema;
}

/// @name Span recording (trace mode only)
/// @{

enum Layer : std::uint8_t
{
    kRun,       //!< TrafficGenerator::run() / the capture event loop
    kFactory,   //!< request factory callback
    kCapture,   //!< begin/capture x5/commit + batch retrieval
    kSubmit,    //!< ScoreServer submit/submitView/poll/flushAll
    kClassify,  //!< classifier callback body (bench bookkeeping)
    kFeaturize, //!< featurize / view gather
    kMlCpu,     //!< CpuMlp::classify
    kMlGpu,     //!< LakeMlp::tryClassify (+ shard activation)
    kLayers,
};

const char *const kLayerName[kLayers] = {
    "run", "factory", "capture", "submit",
    "classify", "featurize", "ml_cpu", "ml_gpu"};

struct Span
{
    std::uint8_t layer;
    std::int32_t parent;
    std::int64_t h0, h1;
    Nanos v0, v1;
};

/**
 * In-memory span log. Every layer call of one stack happens on the
 * driving thread (the ScoreServer flushes inline), so a plain stack
 * gives each span its parent.
 */
class SpanLog
{
  public:
    bool on = false;
    std::vector<Span> spans;

    std::int32_t
    open(Layer l, Nanos v)
    {
        auto id = static_cast<std::int32_t>(spans.size());
        spans.push_back(
            Span{l, open_.empty() ? -1 : open_.back(), hostNs(), 0, v, 0});
        open_.push_back(id);
        return id;
    }

    void
    close(std::int32_t id, Nanos v)
    {
        spans[id].h1 = hostNs();
        spans[id].v1 = v;
        open_.pop_back();
    }

  private:
    std::vector<std::int32_t> open_;
};

class Scope
{
  public:
    Scope(SpanLog &log, Layer l, const Clock &clock)
        : log_(log), clock_(clock), id_(log.on ? log.open(l, clock.now()) : -1)
    {}
    ~Scope()
    {
        if (id_ >= 0)
            log_.close(id_, clock_.now());
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log_;
    const Clock &clock_;
    std::int32_t id_;
};

/// @}

/** Per-engine classifier tallies (always on; clock and counter reads). */
struct Tally
{
    std::uint64_t cpu_batches = 0, gpu_batches = 0;
    std::uint64_t cpu_vectors = 0, gpu_vectors = 0;
    Nanos cpu_virt = 0, gpu_virt = 0;
    Nanos gpu_kernel = 0, gpu_copy = 0, gpu_remote = 0;
    /** Vector-weighted virtual ns: each vector waits for its batch. */
    double w_cpu = 0, w_kernel = 0, w_copy = 0, w_remote = 0;
    std::uint64_t fallbacks = 0;
    std::uint64_t htod_bytes = 0;
};

/** One remoting lane: the core Lake lane or one fleet device. */
struct Lane
{
    std::size_t index = 0;
    Clock *clock = nullptr;
    shm::ShmArena *arena = nullptr;
    gpu::Device *dev = nullptr;
    remote::LakeShard *shard = nullptr; //!< null on the core lane
    ml::KernelCpu *cpu = nullptr;
    registry::RegistryManager *mgr = nullptr;
    std::string sys;
    std::vector<std::string> regs;
    std::unique_ptr<Rng> fv_rng;

    // Declaration order is teardown order reversed: the generator and
    // the manager's ScoreServer drain through the MLPs, so they go
    // first.
    std::unique_ptr<ml::KernelCpu> own_cpu;
    std::unique_ptr<ml::CpuMlp> cpu_mlp;
    std::unique_ptr<ml::LakeMlp> gpu_mlp;
    std::unique_ptr<registry::RegistryManager> own_mgr;
    std::unique_ptr<serve::TrafficGenerator> gen;
};

/** Raw outcome of one timed phase (all virtual except host_s). */
struct PhaseResult
{
    std::uint64_t arrivals = 0, completions = 0;
    std::uint64_t bucket_rejects = 0, queue_sheds = 0, backpressure = 0;
    std::uint64_t server_sheds = 0, server_rejects = 0, failures = 0;
    std::uint64_t flushes = 0, commits = 0;
    std::vector<std::int64_t> lat_ns; //!< sorted
    Nanos horizon = 0;
    double coalesce_wait_ns = 0; //!< capture path: mean enqueue->scored
    double host_s = 0;
    std::vector<std::string> violations;
};

struct LaneCounters
{
    std::uint64_t calls, doorbells, bytes, retries, faults, flushed;
    std::uint64_t daemon_cmds, messages, msg_bytes, launches;
    Nanos compute_busy, copy_busy, clock;
};

/**
 * One booted stack for one workload at one offered rate. Constructing
 * it is the set-up the benchmark times: boot, model upload, registry
 * and classifier wiring.
 */
class Stack
{
  public:
    Stack(const Workload &w, const ml::Mlp &model, double rate_vps,
          std::uint64_t seed, bool traced)
        : w_(w), model_(model), rate_(rate_vps), seed_(seed)
    {
        spans_.on = traced;
        core::LakeConfig cfg;
        cfg.scoring.enabled = true;
        cfg.scoring.max_batch = kMaxBatch;
        cfg.scoring.queue_capacity = 256;
        if (w.fast) {
            cfg.soa_plane.enabled = true;
            cfg.soa_plane.slack = 4 * kMaxBatch;
            cfg.pipeline.enabled = true;
            cfg.streaming.enabled = true;
        }
        if (w.devices > 1) {
            cfg.fleet.enabled = true;
            cfg.fleet.devices = w.devices;
            cfg.fleet.shards = w.devices;
        }
        lake_ = std::make_unique<core::Lake>(cfg);
        if (w.devices > 1)
            bootFleet();
        else
            bootCoreLane();
        if (w.path == Path::Serve)
            bootGenerators();
        for (Lane &ln : lanes_)
            baseline_allocs_.push_back(ln.arena->liveAllocs());
        if (lake_->streaming())
            baseline_credits_ = lake_->streaming()->freeBuffers();
    }

    ~Stack()
    {
        for (Lane &ln : lanes_)
            ln.gen.reset();
        // The core lane's registries live in the Lake, which outlives
        // the classifiers' captures: drain and unregister them first.
        if (!lanes_.empty() && lanes_[0].own_mgr == nullptr) {
            registry::RegistryManager &mgr = *lanes_[0].mgr;
            mgr.disableScoring();
            for (const std::string &r : lanes_[0].regs)
                mgr.destroyRegistry(r, lanes_[0].sys);
        }
        while (!lanes_.empty())
            lanes_.pop_back();
        router_.reset();
        lake_.reset();
    }

    Stack(const Stack &) = delete;
    Stack &operator=(const Stack &) = delete;

    /** Runs the timed phase: @p arrivals open-loop Poisson requests. */
    PhaseResult run(std::size_t arrivals);

    /** Remoting/device counters summed over lanes. */
    LaneCounters counters() const;

    const Tally &tally() const { return tally_; }
    const SpanLog &spans() const { return spans_; }
    core::Lake &lake() { return *lake_; }
    std::size_t lanes() const { return lanes_.size(); }
    const Lane &lane(std::size_t i) const { return lanes_[i]; }
    remote::FleetRouter *router() { return router_.get(); }
    const std::vector<std::uint64_t> &laneVectors() const
    {
        return lane_vectors_;
    }

    /** Resolved configuration, for the provenance line. */
    std::string describe() const;

  private:
    void bootCoreLane();
    void bootFleet();
    void wireLane(Lane &ln);
    void bootGenerators();

    ml::Matrix featurize(const std::vector<registry::FeatureVector> &fvs,
                         const Clock &clock);
    std::vector<float> scoreCpu(Lane &ln, const ml::Matrix &x);
    std::vector<float> scoreGpu(Lane &home, const std::string &key,
                                const ml::Matrix &x);
    void recordOracle(const ml::Matrix &x, const std::vector<int> &labels);
    void recordCpu(std::size_t rows, Nanos vdur);

    PhaseResult runServe(std::size_t arrivals);
    PhaseResult runCapture(std::size_t arrivals);
    void checkOracle(PhaseResult &r);
    void checkBaselines(PhaseResult &r);

    const Workload &w_;
    const ml::Mlp &model_;
    double rate_;
    std::uint64_t seed_;

    std::unique_ptr<core::Lake> lake_;
    std::unique_ptr<remote::FleetRouter> router_;
    std::vector<Lane> lanes_;
    Tally tally_;
    SpanLog spans_;
    std::vector<std::uint64_t> lane_vectors_;
    std::vector<std::size_t> baseline_allocs_;
    std::size_t baseline_credits_ = 0;

    /** Classifier-boundary oracle record: inputs and returned labels. */
    std::vector<float> oracle_x_;
    std::vector<int> oracle_y_;
};

void
Stack::bootCoreLane()
{
    core::Lake &lake = *lake_;
    lanes_.resize(1);
    Lane &ln = lanes_[0];
    ln.clock = &lake.clock();
    ln.arena = &lake.arena();
    ln.dev = &lake.device();
    ln.cpu = &lake.kernelCpu();
    ln.mgr = &lake.registries();
    ln.sys = kSys;
    for (std::size_t i = 0; i < kShardRegs; ++i)
        ln.regs.push_back("shard" + std::to_string(i));
    // Paper default: synchronous copies. The fast workload stages
    // asynchronously so the stream pool carries the transfers.
    ln.gpu_mlp = std::make_unique<ml::LakeMlp>(model_, lake.lib(),
                                               /*sync_copy=*/!w_.fast,
                                               kMaxBatch);
    if (w_.fast)
        ln.gpu_mlp->enableStreaming(lake.streaming());
    wireLane(ln);
}

void
Stack::bootFleet()
{
    core::Lake &lake = *lake_;
    remote::ShardFleet &shards = *lake.shardFleet();
    // fleet_scaling's placement: a device counts as contended only near
    // saturation (the default 40% parks an overloaded fleet on the
    // CPU), and pending depth breaks ties.
    policy::FleetPlacementPolicy::Config pcfg;
    pcfg.contention.exec_threshold = 95.0;
    pcfg.depth_weight = 1.0;
    router_ = std::make_unique<remote::FleetRouter>(shards, pcfg);
    lanes_.resize(w_.devices);
    for (std::size_t d = 0; d < w_.devices; ++d) {
        Lane &ln = lanes_[d];
        remote::LakeShard &sh = shards.shardFor(d);
        ln.index = d;
        ln.shard = &sh;
        ln.clock = &sh.clock();
        ln.arena = &sh.arena();
        ln.dev = &lake.fleet()->at(d);
        ln.own_cpu = std::make_unique<ml::KernelCpu>(
            sh.clock(), gpu::CpuSpec::xeonGold6226R());
        ln.cpu = ln.own_cpu.get();
        ln.own_mgr = std::make_unique<registry::RegistryManager>(sh.clock());
        ln.mgr = ln.own_mgr.get();
        // One subsystem per device: a coalesced flush dispatches through
        // the subsystem's first registry, so devices must not share one.
        ln.sys = std::string(kSys) + ".dev" + std::to_string(d);
        ln.regs.push_back("dev" + std::to_string(d));
        router_->lastPlacement(ln.regs[0]);
        {
            std::lock_guard<std::mutex> lock(sh.mu());
            if (sh.activate(shards.localIndex(d)) != gpu::CuResult::Success)
                throw std::runtime_error("device activation failed");
            ln.gpu_mlp = std::make_unique<ml::LakeMlp>(
                model_, sh.lib(), /*sync_copy=*/true, kMaxBatch);
        }
        wireLane(ln);
    }
}

ml::Matrix
Stack::featurize(const std::vector<registry::FeatureVector> &fvs,
                 const Clock &clock)
{
    Scope s(spans_, kFeaturize, clock);
    ml::Matrix x(fvs.size(), storage::kLinnosFeatures);
    for (std::size_t r = 0; r < fvs.size(); ++r) {
        std::array<std::uint32_t, storage::kLinnosHistory> hist{};
        for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
            hist[h] = static_cast<std::uint32_t>(fvs[r].get(kLatFeature[h]));
        storage::encodeLinnosFeatures(
            static_cast<std::uint32_t>(fvs[r].get("pend_ios")), hist,
            x.row(r));
    }
    return x;
}

void
Stack::recordOracle(const ml::Matrix &x, const std::vector<int> &labels)
{
    oracle_x_.insert(oracle_x_.end(), x.data(),
                     x.data() + x.rows() * x.cols());
    oracle_y_.insert(oracle_y_.end(), labels.begin(), labels.end());
}

void
Stack::recordCpu(std::size_t rows, Nanos vdur)
{
    ++tally_.cpu_batches;
    tally_.cpu_vectors += rows;
    tally_.cpu_virt += vdur;
    tally_.w_cpu += static_cast<double>(vdur) * static_cast<double>(rows);
}

std::vector<float>
Stack::scoreCpu(Lane &ln, const ml::Matrix &x)
{
    Nanos v0 = ln.clock->now();
    std::vector<int> labels;
    {
        Scope s(spans_, kMlCpu, *ln.clock);
        labels = ln.cpu_mlp->classify(x);
    }
    recordCpu(x.rows(), ln.clock->now() - v0);
    recordOracle(x, labels);
    lane_vectors_[ln.index] += labels.size();
    return std::vector<float>(labels.begin(), labels.end());
}

std::vector<float>
Stack::scoreGpu(Lane &home, const std::string &key, const ml::Matrix &x)
{
    Lane *ln = &home;
    std::size_t dev = home.index;
    if (router_) {
        dev = router_->lastPlacement(key);
        router_->noteDispatch(dev, x.rows());
        ln = &lanes_[dev];
    }
    Result<std::vector<int>> res =
        Status(Code::Unavailable, "not dispatched");
    Nanos v0 = ln->clock->now();
    Nanos k0 = ln->dev->computeBusy().totalBusy();
    Nanos c0 = ln->dev->copyBusy().totalBusy();
    {
        Scope s(spans_, kMlGpu, *ln->clock);
        if (ln->shard != nullptr) {
            std::lock_guard<std::mutex> lock(ln->shard->mu());
            remote::ShardFleet &shards = *lake_->shardFleet();
            if (ln->shard->activate(shards.localIndex(dev)) ==
                gpu::CuResult::Success)
                res = ln->gpu_mlp->tryClassify(x);
        } else {
            res = ln->gpu_mlp->tryClassify(x);
        }
    }
    if (router_)
        router_->noteDone(dev);
    if (!res.isOk()) {
        // Mid-batch remoting failure: finish on the CPU, the same
        // contract as core::Lake call sites.
        ++tally_.fallbacks;
        if (ln->shard != nullptr)
            ln->shard->health().fallbacks.fetch_add(1);
        else
            lake_->noteFallback();
        return scoreCpu(home, x);
    }
    // A batch's virtual time splits into device kernel time, the copy
    // time the kernel does not hide, and the rest: remoting.
    Nanos d = ln->clock->now() - v0;
    Nanos kern = std::min(ln->dev->computeBusy().totalBusy() - k0, d);
    Nanos copy = std::min(ln->dev->copyBusy().totalBusy() - c0, d - kern);
    Nanos rem = d - kern - copy;
    double n = static_cast<double>(x.rows());
    ++tally_.gpu_batches;
    tally_.gpu_vectors += x.rows();
    tally_.gpu_virt += d;
    tally_.gpu_kernel += kern;
    tally_.gpu_copy += copy;
    tally_.gpu_remote += rem;
    tally_.w_kernel += n * static_cast<double>(kern);
    tally_.w_copy += n * static_cast<double>(copy);
    tally_.w_remote += n * static_cast<double>(rem);
    tally_.htod_bytes += x.rows() * x.cols() * sizeof(float);
    std::vector<int> labels = res.takeValue();
    recordOracle(x, labels);
    lane_vectors_[dev] += labels.size();
    return std::vector<float>(labels.begin(), labels.end());
}

void
Stack::wireLane(Lane &ln)
{
    lane_vectors_.resize(lanes_.size(), 0);
    ln.cpu_mlp = std::make_unique<ml::CpuMlp>(model_, *ln.cpu);
    Lane *lp = &ln;
    for (const std::string &name : ln.regs) {
        Status st = ln.mgr->createRegistry(name, ln.sys, linnosSchema(),
                                           w_.fast ? 4 * kMaxBatch : 8);
        if (!st.isOk())
            throw std::runtime_error("createRegistry: " + st.toString());
        registry::Registry *reg = ln.mgr->find(name, ln.sys);
        if (w_.fast) {
            // Seal-time encoder: the LinnOS float row is built once per
            // commit and scored in place.
            reg->soa()->setFloatEncoder(
                storage::kLinnosFeatures,
                [](const registry::SoaStore::RowReader &row, float *out) {
                    std::array<std::uint32_t, storage::kLinnosHistory>
                        hist{};
                    for (std::size_t h = 0; h < storage::kLinnosHistory;
                         ++h)
                        hist[h] = static_cast<std::uint32_t>(
                            row.value(static_cast<std::uint32_t>(1 + h)));
                    storage::encodeLinnosFeatures(
                        static_cast<std::uint32_t>(row.value(0)), hist,
                        out);
                });
            // The store carves its float plane on the first commit; do
            // that here so the arena baseline is taken after it.
            registry::CaptureHandle cap = ln.mgr->captureHandle(name, ln.sys);
            cap.beginFvCapture(0);
            cap.commitFvCapture(0);
            st = reg->registerViewClassifier(
                registry::Arch::Cpu,
                [this, lp](const registry::FvBatchView &v) {
                    Scope s(spans_, kClassify, *lp->clock);
                    std::vector<ml::MatrixView> views = v.matrixViews();
                    Nanos v0 = lp->clock->now();
                    std::vector<int> labels;
                    {
                        Scope m(spans_, kMlCpu, *lp->clock);
                        labels = lp->cpu_mlp->classify(views);
                    }
                    recordCpu(v.size(), lp->clock->now() - v0);
                    recordOracle(gather(views, v.size()), labels);
                    lane_vectors_[lp->index] += labels.size();
                    return std::vector<float>(labels.begin(), labels.end());
                });
            if (st.isOk())
                st = reg->registerViewClassifier(
                    registry::Arch::Gpu,
                    [this, lp, name](const registry::FvBatchView &v) {
                        Scope s(spans_, kClassify, *lp->clock);
                        ml::Matrix x = [&] {
                            Scope f(spans_, kFeaturize, *lp->clock);
                            return gather(v.matrixViews(), v.size());
                        }();
                        return scoreGpu(*lp, name, x);
                    });
        } else {
            st = reg->registerClassifier(
                registry::Arch::Cpu,
                [this, lp](const std::vector<registry::FeatureVector> &fvs) {
                    Scope s(spans_, kClassify, *lp->clock);
                    return scoreCpu(*lp, featurize(fvs, *lp->clock));
                });
            if (st.isOk())
                st = reg->registerClassifier(
                    registry::Arch::Gpu,
                    [this, lp, name](
                        const std::vector<registry::FeatureVector> &fvs) {
                        Scope s(spans_, kClassify, *lp->clock);
                        return scoreGpu(*lp, name,
                                        featurize(fvs, *lp->clock));
                    });
        }
        if (!st.isOk())
            throw std::runtime_error("classifier wiring: " + st.toString());
        if (router_)
            reg->registerPolicy(router_->policyFor(name));
        else
            reg->registerPolicy(lake_->degradationGuard(
                std::make_unique<policy::BatchThresholdPolicy>(kCrossover)));
    }
    if (ln.own_mgr) {
        registry::ScoringConfig scfg;
        scfg.enabled = true;
        scfg.max_batch = kMaxBatch;
        scfg.queue_capacity = 256;
        Status st = ln.mgr->enableScoring(scfg);
        if (!st.isOk())
            throw std::runtime_error("enableScoring: " + st.toString());
    }
    ln.fv_rng = std::make_unique<Rng>(seed_ * 0x9e3779b97f4a7c15ull +
                                      0xfeed + ln.index);
}

void
Stack::bootGenerators()
{
    const std::size_t per_lane = kTenants / lanes_.size();
    for (Lane &ln : lanes_) {
        serve::ServeConfig cfg;
        cfg.enabled = true;
        cfg.tenants = per_lane;
        cfg.rate_rps = rate_ / static_cast<double>(kTenants);
        cfg.seed = seed_ * 1000003ull + 0x1a4e + 97 * ln.index;
        cfg.bucket_rate = 2.0 * cfg.rate_rps;
        cfg.bucket_burst = 16.0;
        cfg.queue_capacity = 64;
        cfg.drr_quantum = 4;
        cfg.pump_interval = kTick;
        cfg.shards = ln.regs.size();
        ln.gen = std::make_unique<serve::TrafficGenerator>(
            *ln.mgr, *ln.clock, cfg, ln.sys, ln.regs);
        Lane *lp = &ln;
        ln.gen->setRequestFactory([this, lp](std::size_t, Nanos now) {
            Scope s(spans_, kFactory, *lp->clock);
            Io io = drawIo(*lp->fv_rng);
            registry::FeatureVector fv;
            fv.ts_begin = now;
            fv.ts_end = now;
            fv.values[registry::featureKey("pend_ios")] = {io.pend};
            for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
                fv.values[registry::featureKey(kLatFeature[h])] = {
                    io.lat[h]};
            return fv;
        });
    }
}

LaneCounters
Stack::counters() const
{
    LaneCounters c{};
    auto add = [&c](remote::LakeLib &lib, remote::LakeDaemon &daemon,
                    channel::Channel &chan) {
        c.calls += lib.calls();
        c.doorbells += lib.doorbells();
        c.bytes += lib.bytesMarshalled();
        c.retries += lib.retries();
        c.faults += lib.faultsSeen();
        c.flushed += lib.batchesFlushed();
        c.daemon_cmds += daemon.commandsHandled();
        c.messages += chan.messagesSent();
        c.msg_bytes += chan.bytesSent();
    };
    core::Lake &lake = *lake_;
    add(lake.lib(), lake.daemon(), lake.channel());
    if (remote::ShardFleet *sf = lake.shardFleet())
        for (std::size_t k = 0; k < sf->size(); ++k)
            add(sf->shard(k).lib(), sf->shard(k).daemon(),
                sf->shard(k).channel());
    for (const Lane &ln : lanes_) {
        c.launches += ln.dev->launches();
        c.compute_busy += ln.dev->computeBusy().totalBusy();
        c.copy_busy += ln.dev->copyBusy().totalBusy();
        c.clock += ln.clock->now();
    }
    return c;
}

PhaseResult
Stack::run(std::size_t arrivals)
{
    // Size the oracle record up front: growing it inside the timed phase
    // would time the benchmark's own copies and page faults.
    oracle_x_.assign(arrivals * model_.config().input, 0.0f);
    oracle_x_.clear();
    oracle_y_.assign(arrivals, 0);
    oracle_y_.clear();
    PhaseResult r = w_.path == Path::Serve ? runServe(arrivals)
                                           : runCapture(arrivals);
    std::sort(r.lat_ns.begin(), r.lat_ns.end());
    checkOracle(r);
    checkBaselines(r);
    return r;
}

PhaseResult
Stack::runServe(std::size_t arrivals)
{
    PhaseResult r;
    const Nanos duration = static_cast<Nanos>(
        static_cast<double>(arrivals) / rate_ * 1e9);
    r.horizon = duration;
    std::vector<std::uint64_t> flush0, shed0, rej0;
    for (Lane &ln : lanes_) {
        flush0.push_back(ln.mgr->scorer()->flushes());
        shed0.push_back(ln.mgr->scorer()->shed());
        rej0.push_back(ln.mgr->scorer()->rejected());
    }
    std::int64_t h0 = hostNs();
    // Each device's shard has its own clock and one device, so the
    // generators run one after another over the same virtual window.
    // (run() restarts its schedule at the shard clock, so slicing a run
    // would hide the backlog a slice leaves behind.)
    for (Lane &ln : lanes_) {
        Scope sc(spans_, kRun, *ln.clock);
        ln.gen->run(duration);
    }
    r.host_s = static_cast<double>(hostNs() - h0) / 1e9;

    for (std::size_t i = 0; i < lanes_.size(); ++i) {
        Lane &ln = lanes_[i];
        serve::ServeSummary s = ln.gen->summary(duration);
        r.arrivals += s.arrivals;
        r.completions += s.completions;
        r.bucket_rejects += s.bucket_rejects;
        r.queue_sheds += s.queue_sheds;
        r.backpressure += s.backpressure;
        r.failures += s.failures;
        r.flushes += ln.mgr->scorer()->flushes() - flush0[i];
        r.server_sheds += ln.mgr->scorer()->shed() - shed0[i];
        r.server_rejects += ln.mgr->scorer()->rejected() - rej0[i];
        if (s.queued_residual != 0)
            r.violations.push_back("requests left queued after drain");
        if (s.arrivals != s.bucket_rejects + s.queue_sheds + s.failures +
                              s.completions ||
            s.arrivals != s.admits + s.bucket_rejects)
            r.violations.push_back("arrival outcomes not conserved");
        // Rebuild each tenant's latency samples (integer virtual ns)
        // from its sorted tracker: rank i sits at p = 100 i / (n - 1).
        for (const serve::Tenant &t : ln.gen->tenantStates()) {
            std::size_t n = t.latency_us.count();
            for (std::size_t k = 0; k < n; ++k) {
                double p = n == 1 ? 0.0
                                  : 100.0 * static_cast<double>(k) /
                                        static_cast<double>(n - 1);
                r.lat_ns.push_back(
                    std::llround(t.latency_us.percentile(p) * 1000.0));
            }
        }
    }
    if (r.lat_ns.size() != r.completions)
        r.violations.push_back("latency samples != completions");
    return r;
}

PhaseResult
Stack::runCapture(std::size_t arrivals)
{
    PhaseResult r;
    Lane &ln = lanes_[0];
    Clock &clock = *ln.clock;
    registry::ScoreServer &server = *ln.mgr->scorer();
    const std::uint64_t flush0 = server.flushes(), shed0 = server.shed(),
                        rej0 = server.rejected();

    std::vector<registry::CaptureHandle> caps;
    std::vector<registry::Registry *> regs;
    for (const std::string &name : ln.regs) {
        caps.push_back(ln.mgr->captureHandle(name, ln.sys));
        regs.push_back(ln.mgr->find(name, ln.sys));
    }
    std::vector<Nanos> last_ts(regs.size(), 0);

    struct Outcome
    {
        std::vector<Io> ios;
        std::vector<Nanos> sched;
        std::vector<float> score;
        std::vector<std::uint8_t> outcomes;
        std::vector<std::uint8_t> done;
        std::vector<std::int64_t> lat;
        double wait_ns = 0;
        std::uint64_t failures = 0;
    } out;
    out.ios.reserve(arrivals);
    out.outcomes.assign(arrivals, 0);
    out.done.assign(arrivals, 0);
    out.score.assign(arrivals, -1.0f);
    out.sched.reserve(arrivals);
    out.lat.reserve(arrivals);

    using Event = std::pair<Nanos, std::size_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>> heap;
    Rng arr_rng(seed_ * 1000003ull + 0x1a4e);
    const double gap_ns = 1e9 * static_cast<double>(kTenants) / rate_;
    const Nanos start = clock.now();
    for (std::size_t t = 0; t < kTenants; ++t)
        heap.push({start + static_cast<Nanos>(arr_rng.exponential(gap_ns)),
                   t});
    Nanos next_tick = start + kTick;
    std::uint64_t rejects = 0, gather_errors = 0;

    std::int64_t h0 = hostNs();
    {
        Scope root(spans_, kRun, clock);
        while (out.ios.size() < arrivals) {
            Nanos ta = heap.top().first;
            if (next_tick < ta) {
                clock.advanceTo(next_tick);
                Scope s(spans_, kSubmit, clock);
                server.poll(clock.now());
                next_tick += kTick;
                continue;
            }
            clock.advanceTo(ta);
            std::size_t tenant = heap.top().second;
            heap.pop();
            heap.push(
                {ta + static_cast<Nanos>(arr_rng.exponential(gap_ns)),
                 tenant});

            // One I/O completion: LinnOS captures its features into the
            // device's registry, then asks for a score.
            const std::size_t seq = out.ios.size();
            const std::size_t d = tenant % regs.size();
            Io io = drawIo(*ln.fv_rng);
            out.ios.push_back(io);
            out.sched.push_back(ta);
            Nanos ts = std::max(ta, last_ts[d] + 1);
            last_ts[d] = ts;
            std::vector<registry::FeatureVector> fvs;
            registry::FvBatchView view;
            {
                Scope s(spans_, kCapture, clock);
                registry::CaptureHandle &cap = caps[d];
                cap.beginFvCapture(ts);
                cap.captureFeatureCol(0, io.pend);
                for (std::size_t h = 0; h < storage::kLinnosHistory; ++h)
                    cap.captureFeatureCol(static_cast<std::uint32_t>(1 + h),
                                          io.lat[h]);
                cap.commitFvCapture(ts);
                if (w_.fast)
                    view = regs[d]->tailView(1);
                else
                    fvs = regs[d]->getFeatures(ts);
            }
            if ((w_.fast ? view.size() : fvs.size()) != 1)
                ++gather_errors;
            auto cb = [o = &out, seq](const registry::ScoreResult &res) {
                ++o->outcomes[seq];
                if (!res.status.isOk() || res.scores.size() != 1) {
                    ++o->failures;
                    return;
                }
                o->done[seq] = 1;
                o->score[seq] = res.scores[0];
                o->lat.push_back(
                    static_cast<std::int64_t>(res.scored - o->sched[seq]));
                o->wait_ns += static_cast<double>(res.scored - res.enqueued);
            };
            Status st;
            {
                Scope s(spans_, kSubmit, clock);
                st = w_.fast
                         ? server.submitView(regs[d]->name(), ln.sys,
                                             std::move(view), 0, cb)
                         : server.submit(regs[d]->name(), ln.sys,
                                         std::move(fvs), 0, cb);
            }
            if (!st.isOk()) {
                ++out.outcomes[seq];
                ++rejects;
            }
        }
        Scope s(spans_, kSubmit, clock);
        server.flushAll(clock.now());
    }
    r.host_s = static_cast<double>(hostNs() - h0) / 1e9;

    r.arrivals = out.ios.size();
    r.commits = out.ios.size();
    r.completions = out.lat.size();
    r.failures = out.failures;
    r.server_rejects = server.rejected() - rej0;
    r.server_sheds = server.shed() - shed0;
    r.flushes = server.flushes() - flush0;
    r.horizon = out.sched.empty() ? 0 : out.sched.back() - start;
    r.lat_ns = std::move(out.lat);
    r.coalesce_wait_ns =
        r.completions ? out.wait_ns / static_cast<double>(r.completions) : 0;
    if (rejects != r.server_rejects)
        r.violations.push_back("submit rejections disagree with server");
    if (gather_errors != 0)
        r.violations.push_back("committed vector not found for scoring");
    std::size_t bad = 0;
    for (std::size_t i = 0; i < r.arrivals; ++i)
        bad += out.outcomes[i] != 1;
    if (bad != 0)
        r.violations.push_back(std::to_string(bad) +
                               " arrivals without exactly one outcome");
    // Delivered scores against the CPU oracle, vector by vector.
    ml::Matrix x(r.arrivals, storage::kLinnosFeatures);
    for (std::size_t i = 0; i < r.arrivals; ++i)
        storage::encodeLinnosFeatures(out.ios[i].pend, out.ios[i].lat,
                                      x.row(i));
    std::vector<int> want = model_.classify(x);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < r.arrivals; ++i)
        if (out.done[i] && out.score[i] != static_cast<float>(want[i]))
            ++wrong;
    if (wrong != 0)
        r.violations.push_back(std::to_string(wrong) +
                               " delivered scores differ from the oracle");
    return r;
}

void
Stack::checkOracle(PhaseResult &r)
{
    const std::size_t n = oracle_y_.size();
    if (n == 0)
        return;
    ml::Matrix x(n, storage::kLinnosFeatures);
    std::memcpy(x.data(), oracle_x_.data(), oracle_x_.size() * sizeof(float));
    std::vector<int> want = model_.classify(x);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < n; ++i)
        wrong += want[i] != oracle_y_[i];
    if (wrong != 0)
        r.violations.push_back(std::to_string(wrong) +
                               " classifier labels differ from the oracle");
    if (w_.path == Path::Serve && n != r.completions)
        r.violations.push_back("scored vectors != completions");
}

void
Stack::checkBaselines(PhaseResult &r)
{
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (lanes_[i].arena->liveAllocs() != baseline_allocs_[i])
            r.violations.push_back("arena live allocations of lane " +
                                   std::to_string(i) +
                                   " did not return to baseline");
    if (lake_->streaming() &&
        lake_->streaming()->freeBuffers() != baseline_credits_)
        r.violations.push_back("stream credits did not return to baseline");
}

std::string
Stack::describe() const
{
    char buf[1024];
    std::snprintf(
        buf, sizeof(buf),
        "{\"path\":\"%s\",\"devices\":%zu,\"shards\":%zu,\"registries\":%zu,"
        "\"soa_plane\":%s,\"pipeline\":%s,\"streaming\":%s,"
        "\"rate_vps\":%.1f,\"tenants\":%zu,\"max_batch\":%zu,"
        "\"crossover\":%zu,\"max_delay_us\":50,\"tick_us\":50,"
        "\"queue_capacity\":256,\"compute_threads\":%zu,\"policy\":\"%s\"}",
        w_.path == Path::Serve ? "serve" : "capture", w_.devices,
        w_.devices, lanes_.size() * lanes_[0].regs.size(),
        w_.fast ? "true" : "false", w_.fast ? "true" : "false",
        w_.fast ? "true" : "false", rate_, kTenants, kMaxBatch, kCrossover,
        kComputeThreads, router_ ? "fleet-placement(exec_threshold=95,depth_weight=1)"
                : "degradation-guard(batch-threshold)");
    return buf;
}

/// @name Metrics
/// @{

double
pct(const std::vector<std::int64_t> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return static_cast<double>(sorted[lo]) * (1.0 - frac) +
           static_cast<double>(sorted[hi]) * frac;
}

double
failRatio(const PhaseResult &r)
{
    // Conservation is checked separately, so every arrival that did not
    // complete was a bucket reject, a queue shed, a ScoreServer
    // shed/reject, or a failure.
    if (r.arrivals == 0)
        return 1.0;
    return static_cast<double>(r.arrivals - r.completions) /
           static_cast<double>(r.arrivals);
}

/** Quantile @p q in [0, 1], interpolated between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

using Metrics = std::vector<std::pair<std::string, std::pair<double, const char *>>>;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool smoke = false;
    std::string spans_out;
    std::string git_rev = "unknown";
};

/** Runs one SLO probe: does the workload's shape meet the limit at @p rate? */
bool
probe(const Workload &w, const ml::Mlp &model, double rate,
      std::uint64_t seed, std::size_t arrivals,
      std::vector<std::string> &violations)
{
    Stack st(w, model, rate, seed, false);
    PhaseResult r = st.run(arrivals);
    for (const std::string &v : r.violations)
        violations.push_back("probe@" + std::to_string(rate) + ": " + v);
    return pct(r.lat_ns, 99.0) / 1000.0 <= kLimitUs &&
           failRatio(r) <= kMaxFailRatio;
}

double
ladderRate(int k)
{
    return kLadderBase * std::pow(kLadderStep, k);
}

/** Highest passing rung by bisection (the pass region is a prefix). */
double
sloRate(const Workload &w, const ml::Mlp &model, std::uint64_t seed,
        std::size_t arrivals, std::vector<std::string> &violations,
        int &probes)
{
    int lo = -1, hi = kLadderRungs;
    while (hi - lo > 1) {
        int mid = (lo + hi) / 2;
        ++probes;
        if (probe(w, model, ladderRate(mid), seed, arrivals, violations))
            lo = mid;
        else
            hi = mid;
    }
    return lo < 0 ? 0.0 : ladderRate(lo);
}

/// @}

/** Per-repeat host observations of the traced run. */
struct HostLayers
{
    double run_ns = 0;
    std::array<double, kLayers> self{};
};

HostLayers
hostLayers(const SpanLog &log)
{
    HostLayers h;
    std::vector<double> child(log.spans.size(), 0.0);
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        double d = static_cast<double>(s.h1 - s.h0);
        if (s.parent >= 0)
            child[s.parent] += d;
        else
            h.run_ns += d;
    }
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        h.self[s.layer] += static_cast<double>(s.h1 - s.h0) - child[i];
    }
    return h;
}

bool
writeSpans(const SpanLog &log, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[\n");
    std::int64_t base = log.spans.empty() ? 0 : log.spans[0].h0;
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
        const Span &s = log.spans[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                     "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"virt_ns\":%llu,"
                     "\"virt_dur_ns\":%llu,\"parent\":%d}}\n",
                     i ? "," : "", kLayerName[s.layer],
                     static_cast<double>(s.h0 - base) / 1e3,
                     static_cast<double>(s.h1 - s.h0) / 1e3,
                     static_cast<unsigned long long>(s.v0),
                     static_cast<unsigned long long>(s.v1 - s.v0), s.parent);
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &m)
{
    std::string s = "{\"correct\": ";
    s += correct ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(attempted);
    s += ", \"failed\": " + std::to_string(failed);
    s += ", \"metrics\": {";
    for (std::size_t i = 0; i < m.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      i ? ", " : "", m[i].first.c_str(), m[i].second.first,
                      m[i].second.second);
        s += buf;
    }
    s += "}}";
    std::printf("%s\n", s.c_str());
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto val = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (k == "--smoke") {
            a.smoke = true;
            continue;
        }
        if (!(v = val()))
            return false;
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::string(v) == "1";
        else if (k == "--spans-out")
            a.spans_out = v;
        else if (k == "--git-rev")
            a.git_rev = v;
        else
            return false;
    }
    return !a.workload.empty() && a.seconds > 0;
}

int
runBenchmark(int argc, char **argv)
{
    // LAKE_* variables reconfigure the runtime behind the benchmark's
    // back (LAKE_OBS_TRACE turns tracing on in every Lake,
    // LAKE_CPU_THREADS resizes the pool): refuse to measure under them.
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "LAKE_", 5) == 0) {
            std::string name(*e, std::strcspn(*e, "="));
            std::fprintf(stderr,
                         "stack_e2e: refusing to run with %s set; unset "
                         "every LAKE_* variable\n",
                         name.c_str());
            return 2;
        }

    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: stack_e2e --workload NAME --seed N --seconds S "
                     "--trace 0|1 [--smoke] [--spans-out PATH]\n"
                     "       [--git-rev REV]\n");
        return 2;
    }
    const Workload *wp = nullptr;
    for (const Workload &w : kWorkloads)
        if (a.workload == w.name)
            wp = &w;
    if (!wp) {
        std::fprintf(stderr, "stack_e2e: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    const Workload &w = *wp;
    const std::size_t arrivals = a.smoke ? w.smoke_arrivals : w.arrivals;
    const std::size_t probe_arrivals =
        a.smoke ? w.smoke_arrivals : w.probe_arrivals;

    base::ThreadPool::resetGlobal(kComputeThreads);
    Rng model_rng(kModelSeed);
    const ml::Mlp model(ml::MlpConfig::linnos(), model_rng);

    std::vector<std::string> violations;
    // Host rate of each repeat (completions per wall second of its timed
    // phase) by kind: untraced, traced, untraced on the default-size
    // pool. On a shared VM a repeat runs at one of a few speeds that
    // last seconds and lie up to 1.6x apart, and runs differ in how long
    // they spend at the fast ones. Every run spends time at the slow
    // speed, so the reported rate is a low quantile of the repeats.
    constexpr double kRateQuantile = 0.1;
    enum Kind { kUntraced, kTraced, kPooled };
    std::vector<double> setup_s, rates[3];
    std::vector<HostLayers> layers;
    PhaseResult first;
    LaneCounters c0{}, c1{};
    Tally tally;
    std::uint64_t highwater = 0, live_end = 0, migrations = 0;
    Nanos stalled = 0;
    std::uint64_t stalls = 0;
    double skew = 1.0, vec_maxmin = 1.0, virt_elapsed_s = 0;
    std::uint64_t attempted = 0, failed = 0;
    std::string config;
    SpanLog last_spans;

    // Timed repeats: each boots a fresh stack (set-up, timed) and runs
    // the same seeded arrivals (timed phase). In trace mode untraced,
    // traced and default-pool repeats take turns so trace.overhead and
    // ml.pool_slowdown compare like with like.
    const std::int64_t t_start = hostNs();
    const std::size_t min_reps = a.trace ? 6 : 3;
    for (std::size_t rep = 0;; ++rep) {
        double elapsed = static_cast<double>(hostNs() - t_start) / 1e9;
        if (rep >= min_reps && (elapsed >= a.seconds || rep >= 400))
            break;
        const Kind kind = a.trace ? static_cast<Kind>(rep % 3) : kUntraced;
        const bool traced = kind == kTraced;
        if (a.trace)
            base::ThreadPool::resetGlobal(kind == kPooled ? 0
                                                          : kComputeThreads);
        std::int64_t b0 = hostNs();
        Stack st(w, model, w.rate_vps, a.seed, traced);
        double boot = static_cast<double>(hostNs() - b0) / 1e9;
        LaneCounters pre = st.counters();
        PhaseResult r = st.run(arrivals);
        LaneCounters post = st.counters();
        for (const std::string &v : r.violations)
            violations.push_back(v);
        attempted += r.arrivals;
        failed += r.failures;
        setup_s.push_back(boot);
        rates[kind].push_back(static_cast<double>(r.completions) / r.host_s);
        if (traced)
            layers.push_back(hostLayers(st.spans()));
        if (rep == 0) {
            first = r;
            c0 = pre;
            c1 = post;
            tally = st.tally();
            config = st.describe();
            virt_elapsed_s = toSec(post.clock - pre.clock) /
                             static_cast<double>(st.lanes());
            for (std::size_t i = 0; i < st.lanes(); ++i) {
                highwater = std::max<std::uint64_t>(
                    highwater, st.lane(i).arena->highwater());
                live_end += st.lane(i).arena->liveAllocs();
            }
            if (auto *orch = st.lake().streaming()) {
                stalls = orch->stats().credit_stalls;
                stalled = orch->stats().stalled_ns;
            }
            if (st.router()) {
                migrations = st.router()->migrations();
                Nanos lo = 0, hi = 0;
                for (std::size_t i = 0; i < st.lanes(); ++i) {
                    Nanos t = st.lane(i).clock->now();
                    lo = i == 0 ? t : std::min(lo, t);
                    hi = std::max(hi, t);
                }
                // An idle shard or device (min 0) divides by 1, so a
                // collapsed placement reads as a huge ratio, not as 0.
                skew = static_cast<double>(hi) / std::max<Nanos>(lo, 1);
                const auto &lv = st.laneVectors();
                auto [mn, mx] = std::minmax_element(lv.begin(), lv.end());
                vec_maxmin = static_cast<double>(*mx) /
                             std::max<std::uint64_t>(*mn, 1);
            }
        } else if (r.lat_ns != first.lat_ns ||
                   r.completions != first.completions ||
                   failRatio(r) != failRatio(first)) {
            violations.push_back("virtual results differ between repeats "
                                 "of the same seed");
        }
        if (traced)
            last_spans = st.spans();
    }

    base::ThreadPool::resetGlobal(kComputeThreads);
    std::vector<std::string> probe_violations;
    int probes = 0;
    const std::int64_t s0 = hostNs();
    double slo = sloRate(w, model, a.seed, probe_arrivals, probe_violations,
                         probes);
    const double slo_host_s = static_cast<double>(hostNs() - s0) / 1e9;
    violations.insert(violations.end(), probe_violations.begin(),
                      probe_violations.end());

    const PhaseResult &r = first;
    const double n = static_cast<double>(std::max<std::uint64_t>(r.completions, 1));
    const double p50 = pct(r.lat_ns, 50.0) / 1e3;
    const double p99 = pct(r.lat_ns, 99.0) / 1e3;
    const double p999 = pct(r.lat_ns, 99.9) / 1e3;
    std::uint64_t ok = 0;
    double lat_sum = 0;
    for (std::int64_t l : r.lat_ns) {
        ok += l <= static_cast<std::int64_t>(kLimitUs * 1000);
        lat_sum += static_cast<double>(l);
    }
    const double goodput = static_cast<double>(ok) / toSec(r.horizon);
    const double fail_ratio = failRatio(r);
    if (r.completions < 10000 && !a.smoke)
        violations.push_back("fewer than 10000 completions per run");

    // Layer budget in virtual ns per completed vector: the classifier
    // rows are what each vector's batch spent; the rest of its latency
    // (tenant queue, coalescing, policy probes, generator lag) is wait.
    const double mean_lat = lat_sum / n;
    const double v_cpu = tally.w_cpu / n, v_remote = tally.w_remote / n,
                 v_copy = tally.w_copy / n, v_kernel = tally.w_kernel / n;
    const double v_wait = mean_lat - v_cpu - v_remote - v_copy - v_kernel;
    if (v_wait < 0)
        violations.push_back("virtual budget has a negative wait residual");

    std::printf("stackbench %s seed=%llu%s: %zu repeats in %.1f s, SLO "
                "search %d probes in %.1f s\n",
                w.name, static_cast<unsigned long long>(a.seed),
                a.smoke ? " (smoke)" : "", setup_s.size(),
                static_cast<double>(s0 - t_start) / 1e9, probes, slo_host_s);
    std::printf("provenance {\"git_rev\":\"%s\",\"sized_at\":\"%s\","
                "\"build_type\":\"%s\",\"flags\":\"%s\",\"compiler\":\"%s\","
                "\"nproc\":%u,\"workload\":\"%s\",\"seed\":%llu,"
                "\"arrivals\":%zu,\"probe_arrivals\":%zu,\"limit_us\":%.0f,"
                "\"ladder\":\"%.0f*%.2f^k,k<%d\",\"config\":%s}\n",
                a.git_rev.c_str(), kSizedAt, STACKBENCH_BUILD_TYPE,
                STACKBENCH_FLAGS, __VERSION__,
                std::thread::hardware_concurrency(), w.name,
                static_cast<unsigned long long>(a.seed), arrivals,
                probe_arrivals, kLimitUs, kLadderBase, kLadderStep,
                kLadderRungs, config.c_str());

    Metrics m;
    auto add = [&m](const char *k, double v, const char *u) {
        m.push_back({k, {v, u}});
    };
    const double setup = median(setup_s);
    const std::vector<double> &hv = rates[kUntraced];
    const double hvps = quantile(hv, kRateQuantile);
    const double peak = peakRssMb();
    std::printf("host_vps over %zu untraced repeats: min %.0f p10 %.0f "
                "q1 %.0f median %.0f q3 %.0f max %.0f\n",
                hv.size(), quantile(hv, 0), hvps, quantile(hv, 0.25),
                median(hv), quantile(hv, 0.75), quantile(hv, 1));
    std::printf("e2e p50_us=%.3f p99_us=%.3f p999_us=%.3f samples=%llu "
                "goodput_vps=%.1f slo_rate_vps=%.1f fail_ratio=%.6f "
                "host_vps=%.1f setup_s=%.4f peak_rss_mb=%.1f\n",
                p50, p99, p999,
                static_cast<unsigned long long>(r.completions), goodput, slo,
                fail_ratio, hvps, setup, peak);

    if (!a.trace) {
        add("p50_us", p50, "us");
        add("p99_us", p99, "us");
        add("p999_us", p999, "us");
        add("goodput_vps", goodput, "1/s");
        add("slo_rate_vps", slo, "1/s");
        add("served_ratio",
            static_cast<double>(r.completions) /
                static_cast<double>(std::max<std::uint64_t>(r.arrivals, 1)),
            "ratio");
        add("host_vps", hvps, "1/s");
        add("setup_s", setup, "s");
        add("peak_rss_mb", peak, "MB");
    } else {
        const double gb = static_cast<double>(
            std::max<std::uint64_t>(tally.gpu_batches, 1));
        const double msgs = static_cast<double>(c1.messages - c0.messages);
        const double virt = virt_elapsed_s > 0 ? virt_elapsed_s * 1e9 : 1;
        const double devs = static_cast<double>(w.devices);

        // Host budget per completed vector from the traced repeats
        // (medians per row); rows sum to the traced end-to-end mean.
        std::vector<double> hb[6];
        for (const HostLayers &h : layers) {
            double bench = h.self[kFactory] + h.self[kFeaturize] +
                           h.self[kClassify];
            double rows[6] = {bench / n,
                              h.self[kCapture] / n,
                              (h.self[kRun] + h.self[kSubmit]) / n,
                              h.self[kMlCpu] / n,
                              h.self[kMlGpu] / n,
                              h.run_ns / n};
            for (double v : rows)
                if (v < 0)
                    violations.push_back("host budget row is negative");
            double sum = rows[0] + rows[1] + rows[2] + rows[3] + rows[4];
            if (std::fabs(sum - rows[5]) > 1e-6 * rows[5] + 1e-9)
                violations.push_back("host budget rows do not sum to the "
                                     "end-to-end mean");
            for (int i = 0; i < 6; ++i)
                hb[i].push_back(rows[i]);
        }
        const double cpu_vec = static_cast<double>(
            std::max<std::uint64_t>(tally.cpu_vectors, 1));
        // Per-layer host numbers for ML calls come from the spans.
        std::vector<double> cpu_host, gpu_host;
        for (const HostLayers &h : layers) {
            cpu_host.push_back(h.self[kMlCpu] / cpu_vec);
            gpu_host.push_back(h.self[kMlGpu] / gb);
        }
        std::vector<double> cap_host;
        for (const HostLayers &h : layers)
            cap_host.push_back(r.commits ? h.self[kCapture] / r.commits : 0);

        add("e2e.latency_samples", static_cast<double>(r.completions), "count");
        add("remote.calls", static_cast<double>(c1.calls - c0.calls), "count");
        add("remote.calls_per_batch",
            tally.gpu_batches ? (c1.calls - c0.calls) / gb : 0, "count");
        add("remote.doorbells_per_batch",
            tally.gpu_batches ? (c1.doorbells - c0.doorbells) / gb : 0,
            "count");
        add("remote.virt_ns",
            tally.gpu_batches ? tally.gpu_remote / gb : 0, "ns");
        add("remote.bytes_marshalled",
            tally.gpu_batches ? (c1.bytes - c0.bytes) / gb : 0, "B/batch");
        add("remote.retries", static_cast<double>(c1.retries - c0.retries),
            "count");
        add("remote.faults_seen", static_cast<double>(c1.faults - c0.faults),
            "count");
        add("remote.cpu_fallbacks", static_cast<double>(tally.fallbacks),
            "count");
        add("remote.daemon_commands",
            static_cast<double>(c1.daemon_cmds - c0.daemon_cmds), "count");
        add("remote.batches_flushed",
            static_cast<double>(c1.flushed - c0.flushed), "count");
        add("remote.stream_credit_stalls", static_cast<double>(stalls),
            "count");
        add("remote.stream_stalled_us", toUs(stalled), "us");
        add("remote.fleet_migrations", static_cast<double>(migrations),
            "count");
        add("remote.fleet_makespan_skew", skew, "ratio");
        add("channel.messages", msgs, "count");
        add("channel.bytes_per_message",
            msgs > 0 ? (c1.msg_bytes - c0.msg_bytes) / msgs : 0, "B");
        add("gpu.launches_per_batch",
            tally.gpu_batches ? (c1.launches - c0.launches) / gb : 0,
            "count");
        add("gpu.compute_busy_pct",
            100.0 * static_cast<double>(c1.compute_busy - c0.compute_busy) /
                (virt * devs),
            "%");
        add("gpu.copy_busy_pct",
            100.0 * static_cast<double>(c1.copy_busy - c0.copy_busy) /
                (virt * devs),
            "%");
        add("gpu.kernel_virt_ns",
            tally.gpu_batches ? tally.gpu_kernel / gb : 0, "ns");
        add("gpu.copy_virt_ns", tally.gpu_batches ? tally.gpu_copy / gb : 0,
            "ns");
        add("gpu.htod_bytes",
            tally.gpu_batches ? static_cast<double>(tally.htod_bytes) / gb : 0,
            "B/batch");
        add("gpu.fleet_vectors_maxmin", vec_maxmin, "ratio");
        add("registry.commits", static_cast<double>(r.commits), "count");
        add("registry.capture_host_ns", median(cap_host), "ns");
        add("registry.flushes", static_cast<double>(r.flushes), "count");
        add("registry.batch_mean",
            r.flushes ? static_cast<double>(tally.cpu_vectors +
                                            tally.gpu_vectors) /
                            static_cast<double>(r.flushes)
                      : 0,
            "vectors");
        add("registry.coalesce_wait_us",
            w.path == Path::Capture
                ? (r.coalesce_wait_ns - v_cpu - v_remote - v_copy - v_kernel) /
                      1e3
                : 0,
            "us");
        add("registry.server_sheds", static_cast<double>(r.server_sheds),
            "count");
        add("registry.server_rejects", static_cast<double>(r.server_rejects),
            "count");
        add("ml.cpu_host_ns", median(cpu_host), "ns");
        add("ml.cpu_virt_ns",
            tally.cpu_vectors ? tally.cpu_virt / cpu_vec : 0, "ns");
        add("ml.gpu_host_ns", tally.gpu_batches ? median(gpu_host) : 0, "ns");
        add("ml.gpu_virt_ns", tally.gpu_batches ? tally.gpu_virt / gb : 0,
            "ns");
        add("policy.gpu_batches", static_cast<double>(tally.gpu_batches),
            "count");
        add("policy.cpu_batches", static_cast<double>(tally.cpu_batches),
            "count");
        add("serve.arrivals", static_cast<double>(r.arrivals), "count");
        add("serve.bucket_rejects", static_cast<double>(r.bucket_rejects),
            "count");
        add("serve.queue_sheds", static_cast<double>(r.queue_sheds), "count");
        add("serve.backpressure", static_cast<double>(r.backpressure),
            "count");
        add("serve.fail_ratio", fail_ratio, "ratio");
        add("serve.queue_wait_us", w.path == Path::Serve ? v_wait / 1e3 : 0,
            "us");
        add("serve.self_host_ns",
            w.path == Path::Serve ? median(hb[2]) : 0, "ns");
        add("shm.highwater_bytes", static_cast<double>(highwater), "B");
        add("shm.live_allocs_end", static_cast<double>(live_end), "count");
        const double traced_vps = quantile(rates[kTraced], kRateQuantile);
        const double pooled_vps = quantile(rates[kPooled], kRateQuantile);
        add("trace.overhead", hvps / traced_vps,
            "ratio");
        add("ml.pool_slowdown", hvps / pooled_vps, "ratio");
        add("budget.virt.wait_ns", v_wait, "ns");
        add("budget.virt.ml_cpu_ns", v_cpu, "ns");
        add("budget.virt.remote_ns", v_remote, "ns");
        add("budget.virt.gpu_copy_ns", v_copy, "ns");
        add("budget.virt.gpu_kernel_ns", v_kernel, "ns");
        add("budget.virt.total_ns", mean_lat, "ns");
        add("budget.host.bench_ns", median(hb[0]), "ns");
        add("budget.host.registry_ns", median(hb[1]), "ns");
        add("budget.host.dispatch_ns", median(hb[2]), "ns");
        add("budget.host.ml_cpu_ns", median(hb[3]), "ns");
        add("budget.host.ml_gpu_ns", median(hb[4]), "ns");
        add("budget.host.total_ns", median(hb[5]), "ns");

        std::printf("layer budget, ns per completed vector (virtual | host, "
                    "traced medians)\n");
        const char *vrow[] = {"wait", "ml_cpu", "remote", "gpu_copy",
                              "gpu_kernel"};
        const double vval[] = {v_wait, v_cpu, v_remote, v_copy, v_kernel};
        for (int i = 0; i < 5; ++i)
            std::printf("  virt  %-12s %14.1f\n", vrow[i], vval[i]);
        std::printf("  virt  %-12s %14.1f  (mean latency)\n", "= total",
                    mean_lat);
        const char *hrow[] = {"bench", "registry", "dispatch", "ml_cpu",
                              "ml_gpu"};
        for (int i = 0; i < 5; ++i)
            std::printf("  host  %-12s %14.1f\n", hrow[i], median(hb[i]));
        std::printf("  host  %-12s %14.1f  (traced run() time per vector)\n",
                    "= total", median(hb[5]));
        std::printf("trace.overhead %.3f (untraced %.0f / traced %.0f vps)\n",
                    hvps / traced_vps, hvps, traced_vps);
        std::printf("ml.pool_slowdown %.3f (%zu threads %.0f / default "
                    "%zu-thread pool %.0f vps)\n",
                    hvps / pooled_vps, kComputeThreads, hvps,
                    base::ThreadPool::configuredThreads(), pooled_vps);
        if (!a.spans_out.empty() && !writeSpans(last_spans, a.spans_out))
            violations.push_back("cannot write spans to " + a.spans_out);
    }

    for (const std::string &v : violations)
        std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
    const bool correct = violations.empty();
    std::fflush(stdout);
    printResult(correct, attempted, failed, m);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runBenchmark(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "stack_e2e: %s\n", e.what());
        return 1;
    }
}
