/**
 * @file
 * Output checks of the end-to-end benchmark.
 *
 * Every check tests a property the method must have — a sampled edge
 * is a graph edge, a design point changes timing and never payload, a
 * served request is answered or counted as shed — and never compares
 * against a stored copy of an earlier run's output. Each returns true
 * when the property holds and otherwise explains the first violation
 * in @p why. runSelfTest() feeds each check one corrupted input and
 * fails unless the check rejects it.
 */

#ifndef SAGEBENCH_CHECKS_HH
#define SAGEBENCH_CHECKS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/serving.hh"
#include "gnn/feature_table.hh"
#include "gnn/model.hh"
#include "gnn/subgraph.hh"
#include "graph/csr.hh"

namespace sagebench
{

/**
 * Structural checks of one sampled mini-batch: targets are distinct,
 * every frontier starts with a copy of the previous one, every block
 * edge is a CSR edge of its destination, and each destination has
 * exactly min(fanout, degree) samples — all of its neighbors when the
 * degree does not exceed the fanout.
 */
bool checkSubgraph(const smartsage::graph::CsrGraph &graph,
                   const smartsage::gnn::Subgraph &sg,
                   const std::vector<unsigned> &fanouts, std::string &why);

/** Bit-for-bit equality of two subgraphs' frontiers and blocks. */
bool sameSubgraph(const smartsage::gnn::Subgraph &a,
                  const smartsage::gnn::Subgraph &b, std::string &why);

/**
 * Recompute the logits of target rows @p rows in double precision from
 * @p model's weights, the sampled blocks of @p sg and the feature rows,
 * and compare with @p logits (the model's own float forward). The
 * tolerance is a running float rounding bound: twice gamma_n times the
 * same computation carried out on absolute values, where n is the
 * longest reduction feeding one output.
 */
bool checkLogits(const smartsage::gnn::SageModel &model,
                 const smartsage::gnn::Subgraph &sg,
                 const smartsage::gnn::FeatureTable &features,
                 const smartsage::gnn::Tensor2D &logits,
                 const std::vector<std::size_t> &rows, std::string &why);

/**
 * Training learned: the mean loss of the last tenth of @p losses is
 * below that of the first tenth, and held-out accuracy is at least
 * twice chance (2 / @p classes).
 */
bool checkLearning(const std::vector<double> &losses,
                   double heldout_accuracy, unsigned classes,
                   std::string &why);

/**
 * Serving accounting: completed plus shed equals offered, and nothing
 * was shed (the benchmark offers its fixed rate below saturation).
 */
bool checkServing(const smartsage::core::ServingResult &result,
                  std::string &why);

/** Run every check on a clean and a corrupted input at quick sizes;
 *  returns the number of checks that failed to behave. */
int runSelfTest();

} // namespace sagebench

#endif // SAGEBENCH_CHECKS_HH
