#include "checks.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "core/system.hh"
#include "gnn/sampler.hh"
#include "graph/powerlaw.hh"
#include "pipeline/producer.hh"
#include "sim/random.hh"

namespace sagebench
{

using namespace smartsage;

namespace
{

template <typename... Args>
bool
reject(std::string &why, const Args &...parts)
{
    std::ostringstream os;
    (os << ... << parts);
    why = os.str();
    return false;
}

/** An activation row in double plus the same row computed on absolute
 *  values, which scales the rounding bound. */
struct Act
{
    std::vector<double> v;
    std::vector<double> mag;
};

/** Memoized double-precision forward over the rows one target needs. */
class Recompute
{
  public:
    Recompute(const gnn::SageModel &model, const gnn::Subgraph &sg,
              const gnn::FeatureTable &features)
        : model_(model), sg_(sg), features_(features),
          memo_(sg.frontiers.size())
    {
    }

    /** Activation of position @p pos of frontier @p level. */
    const Act &
    at(std::size_t level, std::uint32_t pos)
    {
        auto found = memo_[level].find(pos);
        if (found != memo_[level].end())
            return found->second;
        Act act = level == sg_.depth() ? input(pos) : layer(level, pos);
        return memo_[level].emplace(pos, std::move(act)).first->second;
    }

  private:
    const gnn::SageModel &model_;
    const gnn::Subgraph &sg_;
    const gnn::FeatureTable &features_;
    std::vector<std::unordered_map<std::uint32_t, Act>> memo_;

    Act
    input(std::uint32_t pos)
    {
        const graph::LocalNodeId node = sg_.frontiers.back()[pos];
        gnn::Tensor2D row;
        features_.gather(std::span<const graph::LocalNodeId>(&node, 1),
                         row);
        Act act;
        for (float x : row.data()) {
            act.v.push_back(x);
            act.mag.push_back(std::fabs(x));
        }
        return act;
    }

    Act
    layer(std::size_t level, std::uint32_t pos)
    {
        // Frontier `level` is the output of layer depth - 1 - level,
        // which consumes block `level`.
        const gnn::SageMeanLayer &l =
            model_.layers()[sg_.depth() - 1 - level];
        const gnn::SampledBlock &block = sg_.blocks[level];
        const unsigned in = l.inDim(), out = l.outDim();

        const Act self = at(level + 1, pos);
        Act agg{std::vector<double>(in, 0.0), std::vector<double>(in, 0.0)};
        const std::uint32_t lo = block.offsets[pos];
        const std::uint32_t hi = block.offsets[pos + 1];
        for (std::uint32_t e = lo; e < hi; ++e) {
            const Act &src = at(level + 1, block.src_index[e]);
            for (unsigned i = 0; i < in; ++i) {
                agg.v[i] += src.v[i];
                agg.mag[i] += src.mag[i];
            }
        }
        if (hi > lo) {
            for (unsigned i = 0; i < in; ++i) {
                agg.v[i] /= static_cast<double>(hi - lo);
                agg.mag[i] /= static_cast<double>(hi - lo);
            }
        }

        Act res{std::vector<double>(out), std::vector<double>(out)};
        for (unsigned j = 0; j < out; ++j) {
            double v = l.biasRow().at(0, j);
            double m = std::fabs(v);
            for (unsigned i = 0; i < in; ++i) {
                const double ws = l.wSelf().at(i, j);
                const double wn = l.wNeigh().at(i, j);
                v += self.v[i] * ws + agg.v[i] * wn;
                m += self.mag[i] * std::fabs(ws) +
                     agg.mag[i] * std::fabs(wn);
            }
            res.v[j] = l.hasRelu() ? std::max(0.0, v) : v;
            res.mag[j] = m;
        }
        return res;
    }
};

} // namespace

bool
checkSubgraph(const graph::CsrGraph &graph, const gnn::Subgraph &sg,
              const std::vector<unsigned> &fanouts, std::string &why)
{
    if (sg.frontiers.size() != fanouts.size() + 1 ||
        sg.blocks.size() != fanouts.size())
        return reject(why, "subgraph depth ", sg.blocks.size(),
                      " does not match ", fanouts.size(), " fanouts");

    std::unordered_set<graph::LocalNodeId> seen;
    for (graph::LocalNodeId t : sg.targets())
        if (!seen.insert(t).second)
            return reject(why, "targets not distinct: node ", t,
                          " appears twice");

    std::vector<graph::LocalNodeId> picked, neigh;
    for (std::size_t h = 0; h < sg.blocks.size(); ++h) {
        const auto &dsts = sg.frontiers[h];
        const auto &srcs = sg.frontiers[h + 1];
        const gnn::SampledBlock &block = sg.blocks[h];
        if (srcs.size() < dsts.size() ||
            !std::equal(dsts.begin(), dsts.end(), srcs.begin()))
            return reject(why, "frontier ", h + 1,
                          " does not start with frontier ", h);
        if (block.offsets.size() != dsts.size() + 1 ||
            block.offsets.back() != block.src_index.size())
            return reject(why, "block ", h, " offsets malformed");

        for (std::size_t d = 0; d < dsts.size(); ++d) {
            const graph::LocalNodeId u = dsts[d];
            const std::uint32_t lo = block.offsets[d];
            const std::uint32_t hi = block.offsets[d + 1];
            const std::uint64_t want =
                std::min<std::uint64_t>(fanouts[h], graph.degree(u));
            if (hi < lo || hi - lo != want)
                return reject(why, "block ", h, " node ", u, " has ",
                              hi - lo, " samples, want min(fanout ",
                              fanouts[h], ", degree ", graph.degree(u),
                              ") = ", want);
            auto adj = graph.neighbors(u);
            picked.clear();
            for (std::uint32_t e = lo; e < hi; ++e) {
                if (block.src_index[e] >= srcs.size())
                    return reject(why, "block ", h, " src index ",
                                  block.src_index[e], " out of range");
                const graph::LocalNodeId v = srcs[block.src_index[e]];
                if (std::find(adj.begin(), adj.end(), v) == adj.end())
                    return reject(why, "block ", h, " edge ", u, " -> ",
                                  v, " is not a CSR edge");
                picked.push_back(v);
            }
            // At or below the fanout the sampler takes every neighbor
            // slot, so the samples are the neighbor multiset.
            if (graph.degree(u) <= fanouts[h]) {
                neigh.assign(adj.begin(), adj.end());
                std::sort(neigh.begin(), neigh.end());
                std::sort(picked.begin(), picked.end());
                if (neigh != picked)
                    return reject(why, "block ", h, " node ", u,
                                  " missed a neighbor at degree <= "
                                  "fanout");
            }
        }
    }
    return true;
}

bool
sameSubgraph(const gnn::Subgraph &a, const gnn::Subgraph &b,
             std::string &why)
{
    if (a.frontiers != b.frontiers)
        return reject(why, "frontiers differ");
    if (a.blocks.size() != b.blocks.size())
        return reject(why, "depth differs");
    for (std::size_t h = 0; h < a.blocks.size(); ++h)
        if (a.blocks[h].offsets != b.blocks[h].offsets ||
            a.blocks[h].src_index != b.blocks[h].src_index)
            return reject(why, "block ", h, " differs");
    return true;
}

bool
checkLogits(const gnn::SageModel &model, const gnn::Subgraph &sg,
            const gnn::FeatureTable &features, const gnn::Tensor2D &logits,
            const std::vector<std::size_t> &rows, std::string &why)
{
    if (logits.rows() != sg.targets().size() ||
        logits.cols() != model.config().num_classes)
        return reject(why, "logits shape ", logits.rows(), "x",
                      logits.cols(), " does not match the batch");

    // Longest chain of float roundings behind one logit: per layer the
    // neighbor mean, two in-dim dot products and the bias.
    std::size_t n = 0;
    for (std::size_t l = 0; l < model.layers().size(); ++l) {
        const gnn::SampledBlock &block = sg.blocks[sg.depth() - 1 - l];
        std::uint32_t widest = 0;
        for (std::size_t d = 0; d + 1 < block.offsets.size(); ++d)
            widest = std::max(widest, block.offsets[d + 1] - block.offsets[d]);
        n += 2 * model.layers()[l].inDim() + widest + 3;
    }
    n = std::min<std::size_t>(n, 1 << 20);
    const double u = std::numeric_limits<float>::epsilon() / 2;
    const double gamma = n * u / (1.0 - n * u);

    Recompute ref(model, sg, features);
    for (std::size_t r : rows) {
        const Act &act = ref.at(0, static_cast<std::uint32_t>(r));
        for (std::size_t j = 0; j < logits.cols(); ++j) {
            const double got = logits.at(r, j);
            const double tol = 2.0 * gamma * act.mag[j] + 1e-30;
            if (!(std::fabs(got - act.v[j]) <= tol))
                return reject(why, "logit [", r, "][", j, "] = ", got,
                              ", double recomputation ", act.v[j],
                              ", rounding bound ", tol);
        }
    }
    return true;
}

bool
checkLearning(const std::vector<double> &losses, double heldout_accuracy,
              unsigned classes, std::string &why)
{
    if (losses.size() < 10)
        return reject(why, "only ", losses.size(),
                      " trained batches; need 10 to compare tenths");
    const std::size_t tenth = losses.size() / 10;
    double first = 0, last = 0;
    for (std::size_t i = 0; i < tenth; ++i) {
        first += losses[i];
        last += losses[losses.size() - 1 - i];
    }
    first /= tenth;
    last /= tenth;
    if (!(last < first))
        return reject(why, "mean loss of the last tenth ", last,
                      " is not below the first tenth ", first);
    const double floor = 2.0 / classes;
    if (!(heldout_accuracy >= floor))
        return reject(why, "held-out accuracy ", heldout_accuracy,
                      " below twice chance ", floor);
    return true;
}

bool
checkServing(const core::ServingResult &result, std::string &why)
{
    const std::uint64_t shed =
        result.shed_error + result.shed_timeout + result.shed_admission;
    if (result.completed_ok + shed != result.requests)
        return reject(why, "completed ", result.completed_ok, " + shed ",
                      shed, " != offered ", result.requests);
    if (shed != 0)
        return reject(why, shed, " requests shed at the fixed rate");
    return true;
}

int
runSelfTest()
{
    int bad = 0;
    // Each case: the clean input must pass, the corrupted one must be
    // rejected, and the reason must name the corrupted property.
    auto expect = [&bad](const char *name, bool clean, std::string clean_why,
                         bool corrupt, const std::string &corrupt_why,
                         const char *keyword) {
        const bool ok = clean && !corrupt &&
                        corrupt_why.find(keyword) != std::string::npos;
        std::fprintf(stderr, "selftest %-22s %s  (clean: %s; corrupt: %s)\n",
                     name, ok ? "ok  " : "FAIL",
                     clean ? "pass" : clean_why.c_str(),
                     corrupt ? "accepted" : corrupt_why.c_str());
        bad += ok ? 0 : 1;
    };

    graph::PowerLawParams params;
    params.num_nodes = 4096;
    params.avg_degree = 16;
    params.seed = 5;
    core::Workload wl{graph::DatasetId::Reddit,
                      graph::generatePowerLaw(params),
                      gnn::FeatureTable(4096, 8, 4, 6)};
    const std::vector<unsigned> fanouts = {5, 3};
    gnn::SageSampler sampler(fanouts);
    sim::Rng rng(11);
    gnn::SampleScratch scratch;
    std::vector<graph::LocalNodeId> targets;
    gnn::Subgraph sg;
    gnn::selectTargetsInto(wl.graph, 64, rng, scratch, targets);
    sampler.sampleInto(wl.graph, targets, rng, scratch, sg);

    std::string w0, w1;
    const bool clean = checkSubgraph(wl.graph, sg, fanouts, w0);
    {
        // A non-edge: point one layer-1 sample at a frontier node that
        // is not a neighbor of its destination.
        gnn::Subgraph bad_sg = sg;
        gnn::SampledBlock &b = bad_sg.blocks[0];
        for (std::size_t d = 0; d < bad_sg.frontiers[0].size(); ++d) {
            if (b.offsets[d] == b.offsets[d + 1])
                continue;
            const graph::LocalNodeId u = bad_sg.frontiers[0][d];
            auto adj = wl.graph.neighbors(u);
            const auto &srcs = bad_sg.frontiers[1];
            auto it = std::find_if(srcs.begin(), srcs.end(), [&](auto v) {
                return v != u &&
                       std::find(adj.begin(), adj.end(), v) == adj.end();
            });
            b.src_index[b.offsets[d]] =
                static_cast<std::uint32_t>(it - srcs.begin());
            break;
        }
        const bool corrupt = checkSubgraph(wl.graph, bad_sg, fanouts, w1);
        expect("block-edge", clean, w0, corrupt, w1, "not a CSR edge");
    }
    {
        // One sample too few: drop a destination's last sample.
        gnn::Subgraph bad_sg = sg;
        gnn::SampledBlock &b = bad_sg.blocks[1];
        std::size_t d = 0;
        while (b.offsets[d] == b.offsets[d + 1])
            ++d;
        b.src_index.erase(b.src_index.begin() + b.offsets[d + 1] - 1);
        for (std::size_t k = d + 1; k < b.offsets.size(); ++k)
            --b.offsets[k];
        const bool corrupt = checkSubgraph(wl.graph, bad_sg, fanouts, w1);
        expect("samples-per-dst", clean, w0, corrupt, w1, "samples");
    }
    {
        // A repeated target (kept in every frontier prefix).
        gnn::Subgraph bad_sg = sg;
        for (auto &f : bad_sg.frontiers)
            f[1] = f[0];
        const bool corrupt = checkSubgraph(wl.graph, bad_sg, fanouts, w1);
        expect("distinct-targets", clean, w0, corrupt, w1, "distinct");
    }

    {
        // A perturbed weight: the reference recomputes from a model
        // whose output-layer weight on target 0's largest hidden
        // activation moved by 0.01.
        gnn::ModelConfig mc;
        mc.in_dim = 8;
        mc.hidden_dim = 16;
        mc.num_classes = 4;
        mc.depth = 2;
        gnn::SageModel model(mc);
        std::vector<gnn::SageContext> ctxs;
        gnn::Tensor2D logits = model.forward(sg, wl.features, &ctxs);
        const std::vector<std::size_t> rows = {0, 1, 2, 3, 17, 63};
        const bool ok = checkLogits(model, sg, wl.features, logits, rows, w0);
        auto h = ctxs[1].h_self.row(0);
        const std::size_t k =
            std::max_element(h.begin(), h.end(),
                             [](float a, float b) {
                                 return std::fabs(a) < std::fabs(b);
                             }) -
            h.begin();
        gnn::SageModel perturbed = model;
        perturbed.mutableLayers()[1].mutableWSelf().at(k, 0) += 0.01f;
        const bool corrupt =
            checkLogits(perturbed, sg, wl.features, logits, rows, w1);
        expect("logits", ok, w0, corrupt, w1, "rounding bound");
    }

    {
        std::vector<double> losses;
        for (int i = 0; i < 100; ++i)
            losses.push_back(2.0 - 0.01 * i);
        const bool ok = checkLearning(losses, 0.6, 4, w0);
        std::reverse(losses.begin(), losses.end());
        const bool corrupt = checkLearning(losses, 0.6, 4, w1);
        expect("loss-decreases", ok, w0, corrupt, w1, "last tenth");
        std::reverse(losses.begin(), losses.end());
        const bool chance = checkLearning(losses, 0.25, 4, w1);
        expect("heldout-accuracy", ok, w0, chance, w1, "accuracy");
    }

    {
        // A backend must hand back the plain sampler's payload.
        core::SystemConfig cfg;
        cfg.backend = "isp-hwsw";
        cfg.fanouts = fanouts;
        core::GnnSystem system(cfg, wl);
        sim::Rng stream(21);
        sim::Rng plain_rng = stream;
        system.producer().reset();
        auto job = system.producer().startBatch(targets, stream);
        for (sim::Tick t = 0; !job->done();)
            t = job->step(t);
        gnn::Subgraph produced = job->takeSubgraph();
        gnn::Subgraph plain;
        sampler.sampleInto(wl.graph, targets, plain_rng, scratch, plain);
        const bool ok = sameSubgraph(produced, plain, w0);
        produced.blocks[1].src_index[0] ^= 1;
        const bool corrupt = sameSubgraph(produced, plain, w1);
        expect("backend-payload", ok, w0, corrupt, w1, "differs");
    }

    {
        core::SystemConfig cfg;
        cfg.backend = "direct-io";
        cfg.fanouts = fanouts;
        core::GnnSystem system(cfg, wl);
        core::ServingConfig sc;
        sc.arrival_qps = 2000;
        sc.num_requests = 256;
        core::ServingResult res = core::runServingLoad(system, sc);
        const bool ok = checkServing(res, w0);
        core::ServingResult dropped = res;
        --dropped.completed_ok;
        const bool corrupt = checkServing(dropped, w1);
        expect("serving-dropped", ok, w0, corrupt, w1, "!= offered");
        core::ServingResult shed = res;
        --shed.completed_ok;
        ++shed.shed_timeout;
        const bool corrupt_shed = checkServing(shed, w1);
        expect("serving-shed", ok, w0, corrupt_shed, w1, "shed at");
    }
    std::fprintf(stderr, "selftest: %d check(s) misbehaved\n", bad);
    return bad;
}

} // namespace sagebench
