/** @file AVX2 GEMM determinism (ctest label `kernel`): every vector
 *  column of the register-blocked AVX2 kernels equals a sequential
 *  std::fma chain in ascending reduction order, bit for bit, so tile
 *  shape, row range and kernel.gemm_threads can never change a result.
 *  The scalar column tail (n % 8) keeps its tolerance contract. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gnn/tensor.hh"
#include "sim/random.hh"

using namespace smartsage;
using gnn::KernelDispatch;
using gnn::Tensor2D;

namespace
{

const std::size_t kMs[] = {1, 5, 6, 7, 64, 65, 300};
const std::size_t kKs[] = {1, 3, 4, 5, 64, 65, 257};
const std::size_t kNs[] = {8, 16, 24, 40, 256};
const std::size_t kTailNs[] = {1, 3, 7, 9, 13, 29, 53};

Tensor2D
randomTensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    sim::Rng rng(seed);
    return Tensor2D::uniform(rows, cols, 1.0f, rng);
}

/** C += A * B as one std::fma per k, ascending. With @p trans_a, A is
 *  stored k x m and read down its columns (the TN product). */
void
fmaReference(const Tensor2D &a, bool trans_a, const Tensor2D &b,
             Tensor2D &c)
{
    const std::size_t kdim = b.rows();
    for (std::size_t i = 0; i < c.rows(); ++i)
        for (std::size_t j = 0; j < c.cols(); ++j) {
            float acc = c.at(i, j);
            for (std::size_t k = 0; k < kdim; ++k)
                acc = std::fma(trans_a ? a.at(k, i) : a.at(i, k),
                               b.at(k, j), acc);
            c.at(i, j) = acc;
        }
}

bool
bitIdentical(const Tensor2D &a, const Tensor2D &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           a.data() == b.data();
}

/** Max |a - b| over all elements; 1e30 on shape mismatch. */
double
maxAbsDiff(const Tensor2D &a, const Tensor2D &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return 1e30;
    double worst = 0;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        worst = std::max(
            worst, std::abs(double(a.data()[i]) - double(b.data()[i])));
    return worst;
}

/** One kernel's output next to its sequential-FMA reference. */
struct Checked
{
    const char *what;
    Tensor2D got;
    Tensor2D ref;
};

/** The three AVX2 GEMM entry points on one (m, k, n) shape. */
std::vector<Checked>
runShape(std::size_t m, std::size_t k, std::size_t n, std::uint64_t seed)
{
    const Tensor2D a = randomTensor(m, k, seed);
    const Tensor2D b = randomTensor(k, n, seed + 1);
    const Tensor2D a_t = randomTensor(k, m, seed + 2);
    std::vector<Checked> out;

    Checked nn{"matmulInto", Tensor2D(), Tensor2D(m, n)};
    gnn::matmulInto(a, b, nn.got);
    fmaReference(a, false, b, nn.ref);
    out.push_back(std::move(nn));

    Checked acc{"matmulAccumulate", randomTensor(m, n, seed + 3),
                Tensor2D()};
    acc.ref = acc.got;
    gnn::matmulAccumulate(a, b, acc.got);
    fmaReference(a, false, b, acc.ref);
    out.push_back(std::move(acc));

    Checked tn{"matmulTNInto", Tensor2D(), Tensor2D(m, n)};
    gnn::matmulTNInto(a_t, b, tn.got);
    fmaReference(a_t, true, b, tn.ref);
    out.push_back(std::move(tn));
    return out;
}

class Avx2Gemm : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!gnn::cpuSupportsAvx2())
            GTEST_SKIP() << "host CPU has no AVX2+FMA";
    }

    gnn::ScopedKernelMode tiled_{gnn::KernelMode::Tiled};
    gnn::ScopedKernelDispatch avx2_{KernelDispatch::Avx2};
};

} // namespace

TEST_F(Avx2Gemm, VectorColumnsEqualSequentialFma)
{
    std::uint64_t seed = 1;
    for (std::size_t m : kMs)
        for (std::size_t k : kKs)
            for (std::size_t n : kNs)
                for (const Checked &c : runShape(m, k, n, seed += 4))
                    EXPECT_TRUE(bitIdentical(c.got, c.ref))
                        << c.what << " m=" << m << " k=" << k
                        << " n=" << n;
}

TEST_F(Avx2Gemm, TailColumnsWithinTolerance)
{
    // Columns past the last multiple of 8 run a scalar four-k grouping,
    // so they match the sequential chain to rounding only.
    std::uint64_t seed = 1000;
    for (std::size_t m : kMs)
        for (std::size_t k : kKs)
            for (std::size_t n : kTailNs)
                for (const Checked &c : runShape(m, k, n, seed += 4))
                    EXPECT_LT(maxAbsDiff(c.got, c.ref), 1e-4)
                        << c.what << " m=" << m << " k=" << k
                        << " n=" << n;
}

TEST_F(Avx2Gemm, ThreadCountNeverChangesBits)
{
    // 1000 rows is not a multiple of the 6-row register tile nor of the
    // 64-row thread block, so the short tiles land differently per
    // decomposition; n = 45 covers 16- and 8-wide panels plus the tail.
    const Tensor2D a = randomTensor(1000, 70, 0x51);
    const Tensor2D b = randomTensor(70, 45, 0x52);
    const Tensor2D a_t = randomTensor(70, 1000, 0x53);
    const Tensor2D b_t = randomTensor(70, 45, 0x54);

    Tensor2D nn1, tn1;
    {
        gnn::ScopedGemmThreads one(1);
        nn1 = gnn::matmul(a, b);
        tn1 = gnn::matmulTN(a_t, b_t);
    }
    for (unsigned threads : {2u, 4u}) {
        gnn::ScopedGemmThreads many(threads);
        EXPECT_TRUE(bitIdentical(gnn::matmul(a, b), nn1))
            << "threads=" << threads;
        EXPECT_TRUE(bitIdentical(gnn::matmulTN(a_t, b_t), tn1))
            << "threads=" << threads;
    }
}
