/**
 * @file
 * SmartSAGE end-to-end benchmark.
 *
 *   sagebench --workload narrow|wide [--seed N] [--seconds S]
 *             [--trace 0|1] [--out-dir DIR]      (defaults: 1, 30, 0, .)
 *   sagebench --selftest
 *
 * One run builds one input set from the seed and measures four phases
 * on it, calling the library only through its public functions:
 *
 *  1. setup: graph, feature table, model and the simulated systems,
 *     built three times (the median is `setup_s`);
 *  2. functional GraphSAGE training on host threads after a warm-up,
 *     for S seconds and at least 100 steps (`runSamplingPipeline`
 *     feeding `SageModel::trainStep`);
 *  3. modeled training of the paper's three design points (isp-hwsw,
 *     direct-io, ssd-mmap) with `GnnSystem::runPipeline`, one thread;
 *  4. modeled open-loop serving at a fixed rate (`runServingLoad`), and
 *     a bisection for the highest rate that meets the 1 ms p99 SLO.
 *
 * Outputs are checked against properties of the method (checks.hh).
 * The last line of standard output is one JSON object with `correct`,
 * `attempted`, `failed` and the metrics: end-to-end metrics with
 * --trace 0, per-layer metrics with --trace 1. A traced run replaces
 * trainStep on every other pair of batches by the same public layer
 * calls made one at a time, wraps the sampler in a timing decorator, records a
 * span around every call and writes a Chrome trace plus a per-layer
 * metrics file into --out-dir. Wall-clock metrics come from medians
 * over many operations; simulated-time metrics are a pure function of
 * the seed and repeat bit for bit.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "checks.hh"
#include "core/scenario.hh"
#include "core/serving.hh"
#include "core/system.hh"
#include "gnn/model.hh"
#include "gnn/sampler.hh"
#include "gnn/tensor.hh"
#include "graph/powerlaw.hh"
#include "host/feature_cache.hh"
#include "host/io_path.hh"
#include "pipeline/producer.hh"
#include "sim/random.hh"
#include "sim/thread_pool.hh"
#include "ssd/ssd_device.hh"
#include "trace.hh"

using namespace smartsage;
using sagebench::Span;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** CPUs this process may run on (the container's share, not the
 *  machine's). */
unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return 1;
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * One workload's make-up. Both graphs hold ~33.5M edges, so the CSR
 * (134 MB) outgrows the last level cache; they differ in what
 * dominates the training step.
 */
struct Spec
{
    const char *name;
    std::uint64_t nodes;
    double avg_degree;
    unsigned dim;    //!< feature width
    unsigned hidden; //!< hidden layer width
    unsigned classes;
    std::vector<unsigned> fanouts;
    std::size_t batch;
    unsigned samplers;          //!< sampler threads beside the trainer
    std::size_t warmup_batches; //!< trained, not timed
    std::size_t chunk_batches;  //!< batches per runSamplingPipeline call
    std::size_t sim_batches;    //!< simulated batches per design point
    double cache_fraction;      //!< serving feature cache; 0 = none
    std::size_t serve_requests; //!< requests per serving run
    double serve_qps;           //!< the fixed offered rate
};

// narrow: aggregation/scatter and the gather dominate a ~20 ms step,
// and the one sampler thread makes runSamplingPipeline fall back to
// serial produce-then-consume. Serving warms a 40% LRU cache.
const Spec kNarrow{
    "narrow", 1u << 21, 16.0, 32, 32, 16, {25, 10}, 1024, 1, 40, 64,
    48, 0.4, 150000, 100000.0};

// wide: layer-0 GEMMs dominate a ~130 ms step; two samplers overlap
// the trainer. Serving goes to direct I/O with no cache.
const Spec kWide{
    "wide", 1u << 19, 64.0, 256, 256, 16, {10, 5}, 512, 2, 4, 8,
    48, 0.0, 100000, 100000.0};

/**
 * Degree cap of both power-law graphs. Under the generator's default
 * cap (half the nodes) a few giant hubs, whose sizes vary from seed to
 * seed, decide how many flash pages a batch reads: modeled throughput
 * then moved ~10% between seeds. At 16384 it moves ~1%.
 */
constexpr std::uint64_t kMaxDegree = 16384;
constexpr double kDefaultSeed = 1;
constexpr double kDefaultSeconds = 30;
constexpr double kSloUs = 1000.0;      //!< serving p99 limit
constexpr unsigned kServeFanout = 10;  //!< entries per lookup
constexpr std::size_t kSetupReps = 3;  //!< setups per run
constexpr std::size_t kCheckBatches = 4; //!< payload checks per backend
constexpr std::size_t kSimReps = 3;      //!< runPipeline calls per backend
constexpr std::size_t kEvalBatches = 4;  //!< held-out batches
constexpr std::size_t kLogitRows = 16;   //!< rows recomputed in double
/** Timed steps per run at least: ten lie beyond the reported p90. */
constexpr std::size_t kMinTimedSteps = 100;
const char *const kBackends[] = {"isp-hwsw", "direct-io", "ssd-mmap"};
/** Span names of producer().startBatch and the BatchJob::step loop. */
const char *const kSimSpans[][2] = {
    {"sim.isp-hwsw.startBatch", "sim.isp-hwsw.replay"},
    {"sim.direct-io.startBatch", "sim.direct-io.replay"},
    {"sim.ssd-mmap.startBatch", "sim.ssd-mmap.replay"}};

/** Independent sub-seeds, all derived from --seed. */
struct Seeds
{
    std::uint64_t graph, features, model, train, sim, serve, heldout;

    explicit Seeds(std::uint64_t seed)
    {
        sim::Rng root(seed);
        graph = root.fork(1).next();
        features = root.fork(2).next();
        model = root.fork(3).next();
        train = root.fork(4).next();
        sim = root.fork(5).next();
        serve = root.fork(6).next();
        heldout = root.fork(7).next();
    }
};

/** Everything set-up builds; systems reference the workload, so the
 *  instance is built in place and never moves. */
struct Instance
{
    std::unique_ptr<core::Workload> workload;
    std::unique_ptr<gnn::SageModel> model;
    std::vector<std::unique_ptr<core::GnnSystem>> design;
    std::unique_ptr<core::GnnSystem> serving;
};

core::SystemConfig
systemConfig(const Spec &spec, const Seeds &seeds, const char *backend)
{
    core::SystemConfig cfg;
    cfg.backend = backend;
    cfg.fanouts = spec.fanouts;
    cfg.hidden_dim = spec.hidden;
    cfg.pipeline.num_batches = spec.sim_batches;
    cfg.pipeline.batch_size = spec.batch;
    cfg.pipeline.seed = seeds.sim;
    return cfg;
}

/** The serving system: direct I/O, behind the LRU feature cache with
 *  MSHRs when the workload has one. */
core::SystemConfig
servingConfig(const Spec &spec, const Seeds &seeds)
{
    core::SystemConfig cfg = systemConfig(spec, seeds, "direct-io");
    if (spec.cache_fraction > 0 &&
        !(core::applyKnob(cfg, {"cache.capacity_fraction",
                                spec.cache_fraction}) &&
          core::applyKnob(cfg, {"cache.policy", 0}) &&
          core::applyKnob(cfg, {"cache.mshr.enabled", 1}))) {
        std::fprintf(stderr, "sagebench: cache knobs rejected\n");
        std::exit(2);
    }
    return cfg;
}

std::unique_ptr<Instance>
buildInstance(const Spec &spec, const Seeds &seeds)
{
    auto inst = std::make_unique<Instance>();
    graph::PowerLawParams params;
    params.num_nodes = spec.nodes;
    params.avg_degree = spec.avg_degree;
    params.max_degree = kMaxDegree;
    params.seed = seeds.graph;
    graph::CsrGraph g;
    {
        Span s("graph.build");
        g = graph::generatePowerLaw(params);
    }
    {
        Span s("gnn.feature_table.build");
        inst->workload = std::make_unique<core::Workload>(core::Workload{
            graph::DatasetId::Amazon, std::move(g),
            gnn::FeatureTable(spec.nodes, spec.dim, spec.classes,
                              seeds.features)});
    }
    {
        Span s("gnn.model.build");
        gnn::ModelConfig mc;
        mc.in_dim = spec.dim;
        mc.hidden_dim = spec.hidden;
        mc.num_classes = spec.classes;
        mc.depth = static_cast<unsigned>(spec.fanouts.size());
        mc.seed = seeds.model;
        inst->model = std::make_unique<gnn::SageModel>(mc);
    }
    for (std::size_t b = 0; b < std::size(kBackends); ++b) {
        Span s("core.system.build", b);
        inst->design.push_back(std::make_unique<core::GnnSystem>(
            systemConfig(spec, seeds, kBackends[b]), *inst->workload));
    }
    {
        Span s("core.system.build", std::size(kBackends));
        inst->serving = std::make_unique<core::GnnSystem>(
            servingConfig(spec, seeds), *inst->workload);
    }
    return inst;
}

/** Metric sink: name -> (value, unit), printed in insertion order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double value, const char *unit)
    {
        all_finite_ = all_finite_ && std::isfinite(value);
        if (!index_.count(name)) {
            index_[name] = rows_.size();
            rows_.push_back({name, value, unit});
        } else {
            rows_[index_[name]].value = value;
        }
    }

    std::string
    json() const
    {
        std::ostringstream os;
        os.precision(17);
        os << "{";
        for (std::size_t i = 0; i < rows_.size(); ++i)
            os << (i ? ", " : "") << "\"" << rows_[i].name
               << "\": {\"value\": " << finite(rows_[i].value)
               << ", \"unit\": \"" << rows_[i].unit << "\"}";
        os << "}";
        return os.str();
    }

    bool allFinite() const { return all_finite_; }

    void
    print(FILE *out) const
    {
        for (const Row &r : rows_)
            std::fprintf(out, "  %-44s %16.6g %s\n", r.name.c_str(),
                         r.value, r.unit);
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
    std::map<std::string, std::size_t> index_;
    bool all_finite_ = true;

    /** JSON has no NaN or infinity; such a value fails the run. */
    static double finite(double v) { return std::isfinite(v) ? v : -1.0; }
};

/** Operation accounting shared by every phase. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;

    void
    fail(const char *what, const std::string &why, std::uint64_t ops = 1)
    {
        failed += ops;
        correct = false;
        std::fprintf(stderr, "sagebench: check failed (%s): %s\n", what,
                     why.c_str());
    }
};

/** Sampler decorator that times each call on whichever thread runs it
 *  (traced runs only). */
class TimedSampler final : public gnn::AnySampler
{
  public:
    explicit TimedSampler(const gnn::AnySampler &inner) : inner_(inner) {}

    void
    sampleInto(const graph::CsrGraph &graph,
               const std::vector<graph::LocalNodeId> &targets,
               sim::Rng &rng, gnn::SampleScratch &scratch,
               gnn::Subgraph &out,
               gnn::SampleVisitor *visitor) const override
    {
        {
            Span s("gnn.sampler.sampleInto", targets.front());
            inner_.sampleInto(graph, targets, rng, scratch, out, visitor);
        }
        calls.fetch_add(1, std::memory_order_relaxed);
        edges.fetch_add(out.totalSampledEdges(), std::memory_order_relaxed);
        input_rows.fetch_add(out.inputNodes().size(),
                             std::memory_order_relaxed);
    }

    mutable std::atomic<std::uint64_t> calls{0}, edges{0}, input_rows{0};

  private:
    const gnn::AnySampler &inner_;
};

/**
 * trainStep spelled out as the public layer calls it makes, each in its
 * own span. Parameters evolve exactly as under trainStep.
 */
class TracedStep
{
  public:
    double
    run(gnn::SageModel &model, const gnn::Subgraph &sg,
        const gnn::FeatureTable &ft, std::uint64_t id)
    {
        Span step("gnn.model.step", id);
        auto &layers = model.mutableLayers();
        ctxs_.resize(layers.size());
        {
            Span s("gnn.feature_table.gather", id);
            ft.gather(sg.inputNodes(), act_a_);
        }
        gnn::Tensor2D *cur = &act_a_, *nxt = &act_b_;
        for (std::size_t l = 0; l < layers.size(); ++l) {
            Span s(name(l, 0), id);
            layers[l].forwardInto(*cur, sg.blocks[sg.depth() - 1 - l],
                                  ctxs_[l], *nxt);
            std::swap(cur, nxt);
        }
        {
            Span s("gnn.feature_table.labels", id);
            ft.labelsInto(sg.targets(), labels_);
        }
        double loss;
        {
            Span s("gnn.tensor.loss", id);
            loss = gnn::softmaxCrossEntropy(*cur, labels_, grad_a_);
        }
        gnn::Tensor2D *d = &grad_a_, *dn = &grad_b_;
        for (std::size_t l = layers.size(); l-- > 0;) {
            {
                Span s(name(l, 1), id);
                layers[l].backwardInto(*d, ctxs_[l], grads_, *dn);
            }
            {
                Span s(name(l, 2), id);
                layers[l].applyGrads(grads_, model.config().learning_rate);
            }
            std::swap(d, dn);
        }
        return loss;
    }

    /** Span names must outlive the recorder, so they are literals. */
    static const char *
    name(std::size_t layer, int kind)
    {
        static const char *const names[][3] = {
            {"gnn.layers.l0.forward", "gnn.layers.l0.backward",
             "gnn.layers.l0.sgd"},
            {"gnn.layers.l1.forward", "gnn.layers.l1.backward",
             "gnn.layers.l1.sgd"},
        };
        return names[layer][kind];
    }

  private:
    std::vector<gnn::SageContext> ctxs_;
    gnn::Tensor2D act_a_, act_b_, grad_a_, grad_b_;
    gnn::SageLayerGrads grads_;
    std::vector<std::uint32_t> labels_;
};

struct TrainResult
{
    std::size_t timed_batches = 0;
    double wall_s = 0;
    double cpu_s = 0;
    std::vector<double> step_ms;
    std::vector<double> losses;
    double heldout_accuracy = 0;
    // traced runs
    std::vector<double> wait_ms;
    unsigned producers = 1;
    std::uint64_t sampled = 0, sampled_edges = 0, sampled_rows = 0;
};

/** Phase 2: functional training; checks the trained payloads, the
 *  model's arithmetic and that it learned. */
TrainResult
trainPhase(const Spec &spec, const Seeds &seeds, Instance &inst,
           double seconds, bool traced, Outcome &outcome)
{
    const graph::CsrGraph &graph = inst.workload->graph;
    const gnn::FeatureTable &ft = inst.workload->features;
    gnn::SageModel &model = *inst.model;

    const unsigned samplers =
        std::max(1u, std::min(spec.samplers, usableCpus() - 1));
    sim::ThreadPool pool(samplers);
    gnn::SageSampler plain(spec.fanouts);
    TimedSampler timed(plain);
    const gnn::AnySampler &sampler =
        traced ? static_cast<const gnn::AnySampler &>(timed) : plain;
    TracedStep traced_step;

    pipeline::ParallelSampleConfig psc;
    psc.workers = samplers;
    psc.batch_size = spec.batch;
    psc.seed = seeds.train;

    TrainResult res;
    res.producers = samplers;
    res.step_ms.reserve(1 << 16);
    res.losses.reserve(1 << 16);
    res.wait_ms.reserve(1 << 16);
    std::vector<std::uint8_t> trained(graph.numNodes(), 0);
    std::vector<std::pair<std::size_t, gnn::Subgraph>> kept;
    std::unordered_map<graph::LocalNodeId, std::size_t> first_target;
    const std::size_t keep[] = {0, 1, spec.warmup_batches,
                                spec.warmup_batches + 1};

    std::size_t next = 0;
    bool timing = false;
    auto runChunk = [&](std::size_t count) {
        psc.first_batch = next;
        psc.num_batches = count;
        auto last = Clock::now();
        pipeline::runSamplingPipeline(
            graph, sampler, psc, &pool,
            [&](std::size_t i, pipeline::FunctionalBatch &&b) {
                const std::size_t id = next + i;
                const auto t0 = Clock::now();
                if (traced) {
                    res.wait_ms.push_back(
                        std::chrono::duration<double, std::milli>(t0 - last)
                            .count());
                    first_target.emplace(b.targets.front(), id);
                }
                double loss;
                // Alternate in pairs, so both step flavors see batches
                // from every producer thread.
                if (traced && (id >> 1) % 2) {
                    loss = traced_step.run(model, b.subgraph, ft, id);
                } else {
                    Span s("gnn.model.trainStep", id);
                    loss = model.trainStep(b.subgraph, ft);
                }
                last = Clock::now();
                if (timing)
                    res.step_ms.push_back(
                        std::chrono::duration<double, std::milli>(last - t0)
                            .count());
                res.losses.push_back(loss);
                for (graph::LocalNodeId t : b.targets)
                    trained[t] = 1;
                if (std::find(std::begin(keep), std::end(keep), id) !=
                    std::end(keep))
                    kept.emplace_back(id, b.subgraph);
                last = Clock::now();
            });
        next += count;
    };

    {
        Span s("phase.train.warmup");
        runChunk(spec.warmup_batches);
    }
    {
        Span s("phase.train.timed");
        timing = true;
        const double cpu0 = processCpuSeconds();
        const auto t0 = Clock::now();
        do {
            runChunk(spec.chunk_batches);
        } while (secondsSince(t0) < seconds ||
                 res.step_ms.size() < kMinTimedSteps);
        res.wall_s = secondsSince(t0);
        res.cpu_s = processCpuSeconds() - cpu0;
        res.timed_batches = next - spec.warmup_batches;
    }
    outcome.attempted += next;
    res.sampled = timed.calls;
    res.sampled_edges = timed.edges;
    res.sampled_rows = timed.input_rows;

    // Every loss must be a number; the kept batches must be valid
    // samples of the graph.
    for (double loss : res.losses)
        if (!std::isfinite(loss))
            outcome.fail("loss", "non-finite training loss");
    std::string why;
    for (const auto &[id, sg] : kept)
        if (!sagebench::checkSubgraph(graph, sg, spec.fanouts, why))
            outcome.fail("trained batch", why);

    // Held-out batches: targets drawn from nodes never trained on.
    sim::Rng rng(seeds.heldout);
    gnn::SampleScratch scratch;
    std::size_t hits = 0, total = 0;
    for (std::size_t e = 0; e < kEvalBatches; ++e) {
        std::vector<graph::LocalNodeId> targets;
        while (targets.size() < spec.batch) {
            const auto v = static_cast<graph::LocalNodeId>(
                rng.nextBounded(graph.numNodes()));
            if (!trained[v]) {
                trained[v] = 2; // held out once, never twice
                targets.push_back(v);
            }
        }
        gnn::Subgraph sg;
        plain.sampleInto(graph, targets, rng, scratch, sg);
        if (!sagebench::checkSubgraph(graph, sg, spec.fanouts, why))
            outcome.fail("held-out batch", why);
        const gnn::Tensor2D logits = model.forward(sg, ft, nullptr);
        const auto preds = gnn::argmaxRows(logits);
        for (std::size_t r = 0; r < preds.size(); ++r)
            hits += preds[r] == ft.label(targets[r]);
        total += preds.size();
        if (e == 0) {
            std::vector<std::size_t> rows;
            for (std::size_t r = 0; r < kLogitRows; ++r)
                rows.push_back(r * (spec.batch / kLogitRows));
            if (!sagebench::checkLogits(model, sg, ft, logits, rows, why))
                outcome.fail("logits", why);
        }
    }
    res.heldout_accuracy = static_cast<double>(hits) / total;
    if (!sagebench::checkLearning(res.losses, res.heldout_accuracy,
                                  spec.classes, why))
        outcome.fail("learning", why);

    // Name sampler spans by the batch they served (the sampler sees
    // the batch's targets, not its index).
    if (sagebench::Recorder *rec = sagebench::activeRecorder()) {
        for (sagebench::SpanRecord &s : rec->spans()) {
            if (std::string_view(s.name) != "gnn.sampler.sampleInto")
                continue;
            auto it = first_target.find(static_cast<graph::LocalNodeId>(s.id));
            if (it != first_target.end())
                s.id = it->second;
        }
    }
    return res;
}

struct SimCell
{
    pipeline::PipelineResult result;
    double host_s = 0;
    double ssd_buffer_hit = 0;
    double flash_pages = 0;
    double page_cache_hit = -1; //!< ssd-mmap only
    double scratchpad_hit = -1; //!< direct-io only
    std::vector<double> trace_ms;
    double replay_s = 0;
    std::uint64_t steps = 0;
};

/** Phase 3: the three design points, simulated. */
std::vector<SimCell>
simPhase(const Spec &spec, const Seeds &seeds, Instance &inst,
         Outcome &outcome)
{
    const graph::CsrGraph &graph = inst.workload->graph;
    gnn::SageSampler plain(spec.fanouts);
    gnn::SampleScratch scratch;
    std::vector<SimCell> cells;
    std::string why;
    for (std::size_t b = 0; b < inst.design.size(); ++b) {
        core::GnnSystem &sys = *inst.design[b];
        SimCell cell;
        {
            Span s("core.GnnSystem.runPipeline", b);
            const auto t0 = Clock::now();
            cell.result = sys.runPipeline();
            cell.host_s = secondsSince(t0);
        }
        outcome.attempted += spec.sim_batches;
        if (cell.result.batches != spec.sim_batches ||
            cell.result.makespan == 0)
            outcome.fail(kBackends[b],
                         "design point did not complete its batches",
                         spec.sim_batches);
        if (ssd::SsdDevice *ssd = sys.ssd()) {
            cell.ssd_buffer_hit = ssd->pageBuffer().hitRate();
            cell.flash_pages =
                static_cast<double>(ssd->flashArray().pagesRead());
        }
        if (auto *mm = dynamic_cast<host::MmapEdgeStore *>(sys.edgeStore()))
            cell.page_cache_hit = mm->pageCacheHitRate();
        if (auto *dio =
                dynamic_cast<host::DirectIoEdgeStore *>(sys.edgeStore()))
            cell.scratchpad_hit = dio->scratchpadHitRate();

        // More repetitions on freshly built systems (a second
        // runPipeline on one system starts behind the SSD timelines the
        // first left busy). Host time is the median; the simulated
        // result must repeat bit for bit.
        std::vector<double> host = {cell.host_s};
        for (std::size_t r = 1; r < kSimReps; ++r) {
            core::GnnSystem fresh(systemConfig(spec, seeds, kBackends[b]),
                                  *inst.workload);
            Span s("core.GnnSystem.runPipeline", b);
            const auto t0 = Clock::now();
            const pipeline::PipelineResult again = fresh.runPipeline();
            host.push_back(secondsSince(t0));
            outcome.attempted += spec.sim_batches;
            if (again.makespan != cell.result.makespan ||
                again.stages.total() != cell.result.stages.total() ||
                again.gpu_idle_frac != cell.result.gpu_idle_frac)
                outcome.fail(kBackends[b],
                             "simulated result differs between identical "
                             "runs",
                             spec.sim_batches);
        }
        cell.host_s = median(host);

        // A backend changes timing, never payload: replay a few batches
        // through producer() and compare with the plain sampler.
        pipeline::SubgraphProducer &producer = sys.producer();
        producer.reset();
        sim::Tick clock = 0;
        for (std::size_t k = 0; k < kCheckBatches; ++k) {
            sim::Rng rng = sim::Rng(seeds.sim).fork(1000 + k);
            std::vector<graph::LocalNodeId> targets;
            gnn::selectTargetsInto(graph, spec.batch, rng, scratch,
                                   targets);
            sim::Rng plain_rng = rng;
            std::unique_ptr<pipeline::BatchJob> job;
            {
                Span s(kSimSpans[b][0], k);
                const auto t0 = Clock::now();
                job = producer.startBatch(targets, rng);
                cell.trace_ms.push_back(secondsSince(t0) * 1e3);
            }
            {
                Span s(kSimSpans[b][1], k);
                const auto t0 = Clock::now();
                while (!job->done()) {
                    clock = job->step(clock);
                    ++cell.steps;
                }
                cell.replay_s += secondsSince(t0);
            }
            ++outcome.attempted;
            gnn::Subgraph produced = job->takeSubgraph();
            gnn::Subgraph ref;
            plain.sampleInto(graph, targets, plain_rng, scratch, ref);
            if (!sagebench::sameSubgraph(produced, ref, why) ||
                !sagebench::checkSubgraph(graph, produced, spec.fanouts,
                                          why))
                outcome.fail(kBackends[b], why);
        }
        cells.push_back(std::move(cell));
    }
    return cells;
}

struct ServeOutcome
{
    core::ServingResult fixed;
    double host_s = 0;
    double max_qps = 0;
    double cache_hit = 0;
    double piggyback = 0;
    double storage_cmds = 0;
};

/** Phase 4: fixed-rate serving, then the SLO rate bisection. */
ServeOutcome
servePhase(const Spec &spec, const Seeds &seeds, Instance &inst,
           bool bisect, Outcome &outcome)
{
    core::GnnSystem &sys = *inst.serving;
    core::ServingConfig sc;
    sc.arrival_qps = spec.serve_qps;
    sc.poisson = false; // fixed schedule: achieved vs offered is exact
    sc.num_requests = spec.serve_requests;
    sc.fanout = kServeFanout;
    sc.seed = seeds.serve;

    ServeOutcome out;
    {
        Span s("core.runServingLoad", 0);
        const auto t0 = Clock::now();
        out.fixed = core::runServingLoad(sys, sc);
        out.host_s = secondsSince(t0);
    }
    outcome.attempted += out.fixed.requests;
    std::string why;
    if (!sagebench::checkServing(out.fixed, why)) {
        const std::uint64_t lost = out.fixed.requests - out.fixed.completed_ok;
        outcome.fail("serving", why, std::max<std::uint64_t>(lost, 1));
    }
    if (const host::FeatureCacheStore *cache = sys.featureCache()) {
        const host::FeatureCacheStats &cs = cache->stats();
        out.cache_hit = cs.hitRate();
        out.piggyback = cs.misses ? static_cast<double>(cs.mshr_piggybacks) /
                                        static_cast<double>(cs.misses)
                                  : 0.0;
    }
    out.storage_cmds =
        static_cast<double>(sys.edgeStore()->ioChannel().submitted()) /
        static_cast<double>(out.fixed.requests);

    if (!bisect)
        return out;
    // Highest rate with p99 <= SLO and no growing backlog (achieved at
    // least 99% of offered), bisected to 0.1% so the figure carries
    // the seed's own digits rather than a grid point. Each probe gets a
    // freshly built system: a second runServingLoad on one system
    // starts behind the SSD timelines the first run left busy.
    const core::SystemConfig cfg = servingConfig(spec, seeds);
    std::uint64_t probe = 1;
    auto meets = [&](double qps) {
        sc.arrival_qps = qps;
        Span s("core.runServingLoad", probe++);
        core::GnnSystem fresh(cfg, sys.workload());
        const core::ServingResult r = core::runServingLoad(fresh, sc);
        return r.p99_us() <= kSloUs && r.achieved_qps >= 0.99 * qps &&
               r.completed_ok == r.requests;
    };
    double lo = spec.serve_qps, hi = 2 * lo;
    if (!(out.fixed.p99_us() <= kSloUs &&
          out.fixed.achieved_qps >= 0.99 * lo)) {
        outcome.fail("serving", "the fixed rate misses the SLO");
        return out;
    }
    while (meets(hi)) {
        lo = hi;
        hi *= 2;
    }
    while (hi - lo > 1e-3 * lo) {
        const double mid = 0.5 * (lo + hi);
        (meets(mid) ? lo : hi) = mid;
    }
    out.max_qps = lo;
    return out;
}

/** GEMM throughput at layer 0's own shapes (traced runs). */
void
gemmProbe(const Spec &spec, std::size_t rows, sagebench::Recorder &rec,
          Metrics &m)
{
    sim::Rng rng(17);
    const auto a = gnn::Tensor2D::uniform(rows, spec.dim, 1.0f, rng);
    const auto w = gnn::Tensor2D::uniform(spec.dim, spec.hidden, 1.0f, rng);
    const auto d = gnn::Tensor2D::uniform(rows, spec.hidden, 1.0f, rng);
    gnn::Tensor2D c;
    const double flops = 2.0 * rows * spec.dim * spec.hidden;
    auto time = [&](const char *name, auto &&fn) {
        std::vector<double> t;
        for (int r = 0; r < 9; ++r) {
            const std::int64_t t0 = rec.nowNs();
            {
                Span s(name, r);
                fn();
            }
            t.push_back((rec.nowNs() - t0) * 1e-9);
        }
        return flops / median(t) * 1e-9;
    };
    m.set("gnn.tensor.gemm_gflops",
          time("gnn.tensor.matmulInto", [&] { gnn::matmulInto(a, w, c); }),
          "GFLOP/s");
    m.set("gnn.tensor.gemm_tn_gflops",
          time("gnn.tensor.matmulTNInto", [&] { gnn::matmulTNInto(a, d, c); }),
          "GFLOP/s");
    m.set("gnn.tensor.gemm_nt_gflops",
          time("gnn.tensor.matmulNTInto", [&] { gnn::matmulNTInto(d, w, c); }),
          "GFLOP/s");
}

/** Per-layer metrics from the recorded spans of a traced run. */
void
layerMetrics(const Spec &spec, const sagebench::Recorder &rec,
             const TrainResult &train, Metrics &m)
{
    std::map<std::string, std::vector<double>> ms;
    for (const auto &s : rec.spans())
        ms[s.name].push_back(s.durationNs() * 1e-6);
    auto med = [&](const char *name) { return median(ms[name]); };

    m.set("graph.build_s", med("graph.build") * 1e-3, "s");
    m.set("gnn.sampler.ms_per_batch", med("gnn.sampler.sampleInto"), "ms");
    const double calls = static_cast<double>(std::max<std::uint64_t>(
        train.sampled, 1));
    m.set("gnn.sampler.edges_per_batch", train.sampled_edges / calls,
          "count");
    m.set("gnn.sampler.input_rows_per_batch", train.sampled_rows / calls,
          "count");
    m.set("gnn.feature_table.gather_ms_per_batch",
          med("gnn.feature_table.gather"), "ms");
    m.set("gnn.feature_table.labels_ms", med("gnn.feature_table.labels"),
          "ms");
    const std::size_t depth = spec.fanouts.size();
    // SGD per batch: the sum of every layer's applyGrads span.
    std::vector<double> sgd(ms["gnn.layers.l0.sgd"].size(), 0.0);
    for (std::size_t l = 0; l < depth; ++l) {
        const std::string p = "gnn.layers.l" + std::to_string(l);
        m.set(p + ".forward_ms", median(ms[p + ".forward"]), "ms");
        m.set(p + ".backward_ms", median(ms[p + ".backward"]), "ms");
        const auto &v = ms[p + ".sgd"];
        for (std::size_t i = 0; i < std::min(v.size(), sgd.size()); ++i)
            sgd[i] += v[i];
    }
    m.set("gnn.layers.sgd_ms", median(sgd), "ms");
    m.set("gnn.tensor.loss_ms", med("gnn.tensor.loss"), "ms");

    // Per-stage sum against the step it decomposes, and against
    // trainStep itself on the interleaved batches.
    double stages = med("gnn.feature_table.gather") +
                    med("gnn.feature_table.labels") +
                    med("gnn.tensor.loss") + median(sgd);
    for (std::size_t l = 0; l < depth; ++l) {
        const std::string p = "gnn.layers.l" + std::to_string(l);
        stages += median(ms[p + ".forward"]) + median(ms[p + ".backward"]);
    }
    const double step = med("gnn.model.trainStep");
    m.set("gnn.model.train_step_ms", step, "ms");
    m.set("gnn.model.stage_sum_ms", stages, "ms");
    m.set("gnn.model.stage_sum_frac", stages / step, "ratio");
    const std::vector<std::int64_t> self = rec.selfTimes();
    std::vector<double> step_self;
    for (std::size_t i = 0; i < rec.spans().size(); ++i)
        if (std::string_view(rec.spans()[i].name) == "gnn.model.step")
            step_self.push_back(self[i] * 1e-6);
    m.set("gnn.model.step_self_ms", median(step_self), "ms");

    double wait = 0;
    for (double w : train.wait_ms)
        wait += w;
    m.set("pipeline.consumer_wait_ms_per_batch",
          train.wait_ms.empty() ? 0.0 : wait / train.wait_ms.size(), "ms");
    double sampling = 0, train_wall = 0;
    for (double v : ms["gnn.sampler.sampleInto"])
        sampling += v;
    for (const char *p : {"phase.train.warmup", "phase.train.timed"})
        for (double v : ms[p])
            train_wall += v;
    m.set("pipeline.sampler_busy_frac",
          sampling / (train_wall * train.producers), "frac");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: sagebench --workload narrow|wide [--seed N] "
                 "[--seconds S] [--trace 0|1] [--out-dir DIR]\n"
                 "       sagebench --selftest\n");
    return 2;
}

bool
parseNumber(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out_dir = ".";
    double seed = kDefaultSeed, seconds = kDefaultSeconds, trace = 0;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--selftest") {
            selftest = true;
        } else if (arg == "--workload" && has_value) {
            workload = argv[++i];
        } else if (arg == "--out-dir" && has_value) {
            out_dir = argv[++i];
        } else if (arg == "--seed" && has_value) {
            if (!parseNumber(argv[++i], seed) || seed < 0 ||
                seed > 9007199254740992.0 || seed != std::floor(seed))
                return usage();
        } else if (arg == "--seconds" && has_value) {
            if (!parseNumber(argv[++i], seconds) || seconds <= 0 ||
                seconds > 600)
                return usage();
        } else if (arg == "--trace" && has_value) {
            if (!parseNumber(argv[++i], trace) || (trace != 0 && trace != 1))
                return usage();
        } else {
            return usage();
        }
    }
    if (selftest)
        return sagebench::runSelfTest() == 0 ? 0 : 1;
    const Spec *spec = workload == "narrow" ? &kNarrow
                       : workload == "wide" ? &kWide
                                            : nullptr;
    if (!spec)
        return usage();

    const bool traced = trace == 1;
    const Seeds seeds(static_cast<std::uint64_t>(seed));
    sagebench::Recorder recorder;
    if (traced)
        sagebench::setActiveRecorder(&recorder);

    // 1. setup, several times; the last instance is measured.
    std::vector<double> setup_s;
    std::unique_ptr<Instance> inst;
    for (std::size_t r = 0; r < kSetupReps; ++r) {
        inst.reset();
        Span s("phase.setup", r);
        const auto t0 = Clock::now();
        inst = buildInstance(*spec, seeds);
        setup_s.push_back(secondsSince(t0));
    }
    std::fprintf(stderr, "sagebench %s seed %.0f: %llu nodes, %llu edges\n",
                 spec->name, seed,
                 static_cast<unsigned long long>(
                     inst->workload->graph.numNodes()),
                 static_cast<unsigned long long>(
                     inst->workload->graph.numEdges()));

    Outcome outcome;
    TrainResult train;
    auto t_phase = Clock::now();
    {
        Span s("phase.train");
        train = trainPhase(*spec, seeds, *inst, seconds, traced, outcome);
    }
    const double train_phase_s = secondsSince(t_phase);
    std::vector<SimCell> cells;
    double sim_host_s = 0;
    t_phase = Clock::now();
    {
        Span s("phase.sim");
        cells = simPhase(*spec, seeds, *inst, outcome);
        for (const SimCell &c : cells)
            sim_host_s += c.host_s;
    }
    const double sim_phase_s = secondsSince(t_phase);
    ServeOutcome serve;
    t_phase = Clock::now();
    {
        Span s("phase.serve");
        serve = servePhase(*spec, seeds, *inst, !traced, outcome);
    }
    std::fprintf(stderr,
                 "sagebench %s: phases setup %.1f s, train %.1f s, sim "
                 "%.1f s, serve %.1f s\n",
                 spec->name, std::accumulate(setup_s.begin(), setup_s.end(), 0.0),
                 train_phase_s, sim_phase_s, secondsSince(t_phase));

    Metrics m;
    if (!traced) {
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        m.set("setup_s", median(setup_s), "s");
        m.set("peak_rss_mib", ru.ru_maxrss / 1024.0, "MiB");
        m.set("train_batches_per_s", train.timed_batches / train.wall_s,
              "batches/s");
        m.set("train_step_ms_p50", quantile(train.step_ms, 0.5), "ms");
        m.set("train_step_ms_p90", quantile(train.step_ms, 0.9), "ms");
        m.set("train_cpu_ms_per_batch",
              train.cpu_s * 1e3 / train.timed_batches, "ms");
        m.set("sim_host_batches_per_s",
              static_cast<double>(cells.size() * spec->sim_batches) /
                  sim_host_s,
              "batches/s");
        for (std::size_t b = 0; b < cells.size(); ++b)
            m.set(std::string("sim_batches_per_s.") + kBackends[b],
                  cells[b].result.throughput(), "batches/sim-s");
        m.set("sim_serve_p99_us", serve.fixed.p99_us(), "sim-us");
        m.set("sim_serve_max_qps", serve.max_qps, "req/sim-s");
    } else {
        // Layer-0 GEMM shapes: its destinations are frontier[depth-1].
        gnn::SageSampler plain(spec->fanouts);
        sim::Rng rng(seeds.heldout);
        std::vector<graph::LocalNodeId> targets;
        gnn::SampleScratch scratch;
        gnn::selectTargetsInto(inst->workload->graph, spec->batch, rng,
                               scratch, targets);
        gnn::Subgraph sg;
        plain.sampleInto(inst->workload->graph, targets, rng, scratch, sg);
        gemmProbe(*spec, sg.frontiers[sg.depth() - 1].size(), recorder, m);
        layerMetrics(*spec, recorder, train, m);
        for (std::size_t b = 0; b < cells.size(); ++b) {
            const SimCell &c = cells[b];
            const std::string p = std::string("sim.") + kBackends[b];
            const double n = static_cast<double>(c.result.batches);
            m.set(p + ".trace_ms_per_batch", median(c.trace_ms), "ms");
            m.set(p + ".replay_us_per_step", c.replay_s * 1e6 / c.steps,
                  "us");
            m.set(p + ".steps_per_batch",
                  static_cast<double>(c.steps) / kCheckBatches, "count");
            const pipeline::StageBreakdown &st = c.result.stages;
            m.set(p + ".stage.sampling_ms", st.sampling * 1e3 / n, "sim-ms");
            m.set(p + ".stage.feature_ms", st.feature * 1e3 / n, "sim-ms");
            m.set(p + ".stage.transfer_ms", st.transfer * 1e3 / n, "sim-ms");
            m.set(p + ".stage.gpu_ms", st.gpu * 1e3 / n, "sim-ms");
            m.set(p + ".stage.other_ms", st.other * 1e3 / n, "sim-ms");
            m.set(p + ".gpu_idle_frac", c.result.gpu_idle_frac, "frac");
            m.set(p + ".ssd_buffer_hit_frac", c.ssd_buffer_hit, "frac");
            m.set(p + ".flash_pages_read", c.flash_pages, "count");
            if (c.page_cache_hit >= 0)
                m.set(p + ".page_cache_hit_frac", c.page_cache_hit, "frac");
            if (c.scratchpad_hit >= 0)
                m.set(p + ".scratchpad_hit_frac", c.scratchpad_hit, "frac");
        }
        m.set("serve.cache_hit_frac", serve.cache_hit, "frac");
        m.set("serve.mshr_piggyback_frac", serve.piggyback, "frac");
        m.set("serve.storage_cmds_per_request", serve.storage_cmds, "count");
        m.set("serve.queue_wait_us", serve.fixed.mean_queue_wait_us, "sim-us");
        m.set("serve.peak_outstanding",
              static_cast<double>(serve.fixed.peak_outstanding), "count");
        m.set("serve.host_us_per_request",
              serve.host_s * 1e6 / serve.fixed.requests, "us");

        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);
        const std::string stem = out_dir + "/" + spec->name + "-seed" +
                                 std::to_string(static_cast<long long>(seed));
        if (!recorder.writeChromeTrace(stem + ".trace.json"))
            std::fprintf(stderr, "sagebench: cannot write %s.trace.json\n",
                         stem.c_str());
        std::ofstream(stem + ".layers.json") << m.json() << "\n";
    }

    std::fprintf(stderr, "sagebench %s: %zu trained batches (%zu timed), "
                 "held-out accuracy %.3f\n",
                 spec->name, train.losses.size(), train.timed_batches,
                 train.heldout_accuracy);
    m.print(stderr);
    if (!m.allFinite())
        outcome.fail("metrics", "a metric is not a finite number");
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                m.json().c_str());
    return 0;
}
