/** @file Unit tests for the host math kernels, including
 *  finite-difference checks of every backward routine. */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/rng.hpp"
#include "tensor/host_math.hpp"
#include "tensor/tensor.hpp"

namespace {

std::vector<float>
randomVec(common::Rng& rng, std::size_t n, float scale = 1.0f)
{
    std::vector<float> v(n);
    for (auto& x : v)
        x = rng.nextFloat(-scale, scale);
    return v;
}

TEST(Shape, BasicProperties)
{
    tensor::Shape v(5);
    EXPECT_TRUE(v.isVector());
    EXPECT_EQ(v.size(), 5u);
    tensor::Shape m(3, 4);
    EXPECT_FALSE(m.isVector());
    EXPECT_EQ(m.size(), 12u);
    EXPECT_EQ(m.str(), "3x4");
    EXPECT_TRUE(tensor::Shape(1).isScalar());
    EXPECT_EQ(v, tensor::Shape(5));
    EXPECT_NE(v, m);
}

TEST(HostMath, GemvMatchesManualComputation)
{
    // W = [[1, 2], [3, 4], [5, 6]], x = [10, 100]
    const std::vector<float> w{1, 2, 3, 4, 5, 6};
    const std::vector<float> x{10, 100};
    std::vector<float> y(3);
    tensor::gemv(w.data(), x.data(), y.data(), 3, 2);
    EXPECT_FLOAT_EQ(y[0], 210.0f);
    EXPECT_FLOAT_EQ(y[1], 430.0f);
    EXPECT_FLOAT_EQ(y[2], 650.0f);
}

TEST(HostMath, GemvRowsComputesOnlyRequestedRows)
{
    const std::vector<float> w{1, 2, 3, 4, 5, 6};
    const std::vector<float> x{1, 1};
    std::vector<float> y(3, -1.0f);
    tensor::gemvRows(w.data(), x.data(), y.data(), 1, 2, 2);
    EXPECT_FLOAT_EQ(y[0], -1.0f) << "row 0 untouched";
    EXPECT_FLOAT_EQ(y[1], 7.0f);
    EXPECT_FLOAT_EQ(y[2], -1.0f) << "row 2 untouched";
}

TEST(HostMath, RowSlicesComposeToFullGemv)
{
    common::Rng rng(3);
    const std::size_t rows = 17, cols = 13;
    const auto w = randomVec(rng, rows * cols);
    const auto x = randomVec(rng, cols);
    std::vector<float> whole(rows), pieces(rows);
    tensor::gemv(w.data(), x.data(), whole.data(), rows, cols);
    // Compute in three arbitrary row slices, as the VPPs do.
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 0, 5, cols);
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 5, 11, cols);
    tensor::gemvRows(w.data(), x.data(), pieces.data(), 11, rows,
                     cols);
    for (std::size_t r = 0; r < rows; ++r)
        EXPECT_FLOAT_EQ(pieces[r], whole[r]);
}

TEST(HostMath, TransposedGemvIsGradientOfGemv)
{
    // Check <W x, dy> == <x, W^T dy> (adjoint identity).
    common::Rng rng(5);
    const std::size_t rows = 9, cols = 7;
    const auto w = randomVec(rng, rows * cols);
    const auto x = randomVec(rng, cols);
    const auto dy = randomVec(rng, rows);
    std::vector<float> y(rows), dx(cols, 0.0f);
    tensor::gemv(w.data(), x.data(), y.data(), rows, cols);
    tensor::gemvTransposedAccum(w.data(), dy.data(), dx.data(), rows,
                                cols);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t r = 0; r < rows; ++r)
        lhs += static_cast<double>(y[r]) * dy[r];
    for (std::size_t c = 0; c < cols; ++c)
        rhs += static_cast<double>(x[c]) * dx[c];
    EXPECT_NEAR(lhs, rhs, 1e-4);
}

TEST(HostMath, OuterAccumBuildsRankOneUpdate)
{
    const std::vector<float> dy{2, 3};
    const std::vector<float> x{10, 20, 30};
    std::vector<float> dw(6, 1.0f);
    tensor::outerAccum(dw.data(), dy.data(), x.data(), 2, 3);
    EXPECT_FLOAT_EQ(dw[0], 21.0f);
    EXPECT_FLOAT_EQ(dw[5], 91.0f);
}

TEST(HostMath, GemmAccumAggregatesStagedOuterProducts)
{
    // The GEMM fallback must equal the sum of per-pair outer
    // products (Section III-C2).
    common::Rng rng(7);
    const std::size_t m = 6, n = 4, k = 5;
    std::vector<float> dys, xs;
    std::vector<float> ref(m * n, 0.0f), gemm(m * n, 0.0f);
    for (std::size_t i = 0; i < k; ++i) {
        const auto dy = randomVec(rng, m);
        const auto x = randomVec(rng, n);
        tensor::outerAccum(ref.data(), dy.data(), x.data(), m, n);
        dys.insert(dys.end(), dy.begin(), dy.end());
        xs.insert(xs.end(), x.begin(), x.end());
    }
    tensor::gemmAccumABt(gemm.data(), dys.data(), xs.data(), m, n, k);
    for (std::size_t i = 0; i < m * n; ++i)
        EXPECT_NEAR(gemm[i], ref[i], 1e-4);
}

/** Finite-difference check of an elementwise activation backward. */
struct ActivationCase
{
    const char* name;
    void (*fwd)(const float*, float*, std::size_t);
    void (*bwd)(const float*, const float*, float*, std::size_t);
};

/** Without this, gtest prints the case as its raw bytes, which hold
 *  load-address-dependent pointers and so change the listed test name
 *  from run to run. */
void
PrintTo(const ActivationCase& c, std::ostream* os)
{
    *os << c.name;
}

class ActivationGradientTest
    : public testing::TestWithParam<ActivationCase>
{
};

TEST_P(ActivationGradientTest, MatchesFiniteDifferences)
{
    const auto& c = GetParam();
    common::Rng rng(11);
    const std::size_t n = 16;
    auto in = randomVec(rng, n, 0.9f);
    const auto dout = randomVec(rng, n);

    std::vector<float> out(n), din(n, 0.0f);
    c.fwd(in.data(), out.data(), n);
    c.bwd(out.data(), dout.data(), din.data(), n);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n; ++i) {
        // Avoid the relu kink.
        if (std::abs(in[i]) < 2 * eps)
            continue;
        auto perturbed = in;
        perturbed[i] += eps;
        std::vector<float> out_p(n);
        c.fwd(perturbed.data(), out_p.data(), n);
        perturbed[i] -= 2 * eps;
        std::vector<float> out_m(n);
        c.fwd(perturbed.data(), out_m.data(), n);
        const float fd =
            (out_p[i] - out_m[i]) / (2 * eps) * dout[i];
        EXPECT_NEAR(din[i], fd, 5e-3)
            << c.name << " gradient at index " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Activations, ActivationGradientTest,
    testing::Values(
        ActivationCase{"tanh", tensor::tanhForward,
                       tensor::tanhBackward},
        ActivationCase{"sigmoid", tensor::sigmoidForward,
                       tensor::sigmoidBackward},
        ActivationCase{"relu", tensor::reluForward,
                       tensor::reluBackward}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(HostMath, PickNegLogSoftmaxIsAProperLoss)
{
    const std::vector<float> logits{1.0f, 2.0f, 0.5f};
    std::vector<float> probs(3);
    const float loss =
        tensor::pickNegLogSoftmax(logits.data(), 1, probs.data(), 3);
    float sum = 0.0f;
    for (float p : probs) {
        EXPECT_GT(p, 0.0f);
        sum += p;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5);
    EXPECT_NEAR(loss, -std::log(probs[1]), 1e-5);
    // The gold class has the largest logit here, so loss < log(3).
    EXPECT_LT(loss, std::log(3.0f));
}

TEST(HostMath, PickNegLogSoftmaxBackwardMatchesFiniteDifferences)
{
    common::Rng rng(13);
    const std::size_t n = 5;
    auto logits = randomVec(rng, n);
    std::vector<float> probs(n);
    tensor::pickNegLogSoftmax(logits.data(), 2, probs.data(), n);
    std::vector<float> dlogits(n, 0.0f);
    tensor::pickNegLogSoftmaxBackward(probs.data(), 2, 1.0f,
                                      dlogits.data(), n);
    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n; ++i) {
        auto p = logits;
        std::vector<float> scratch(n);
        p[i] += eps;
        const float lp =
            tensor::pickNegLogSoftmax(p.data(), 2, scratch.data(), n);
        p[i] -= 2 * eps;
        const float lm =
            tensor::pickNegLogSoftmax(p.data(), 2, scratch.data(), n);
        EXPECT_NEAR(dlogits[i], (lp - lm) / (2 * eps), 5e-3);
    }
}

TEST(HostMath, SgdUpdateAppliesDecayAndClearsGradient)
{
    std::vector<float> p{1.0f, -2.0f};
    std::vector<float> g{0.5f, 0.5f};
    tensor::sgdUpdate(p.data(), g.data(), 2, 0.1f, 0.01f);
    EXPECT_NEAR(p[0], 1.0f - 0.1f * (0.5f + 0.01f * 1.0f), 1e-6);
    EXPECT_NEAR(p[1], -2.0f - 0.1f * (0.5f + 0.01f * -2.0f), 1e-6);
    EXPECT_EQ(g[0], 0.0f);
    EXPECT_EQ(g[1], 0.0f);
}

TEST(HostMath, AddNAndAccum)
{
    const std::vector<float> a{1, 2}, b{10, 20}, c{100, 200};
    const float* ins[3] = {a.data(), b.data(), c.data()};
    std::vector<float> out(2);
    tensor::addN(ins, 3, out.data(), 2);
    EXPECT_FLOAT_EQ(out[0], 111.0f);
    tensor::accum(out.data(), a.data(), 2);
    EXPECT_FLOAT_EQ(out[0], 112.0f);
}

// -- Bit-exactness of the vectorized row kernels. Each reference below
// is the plain scalar definition of its kernel; the kernels may
// vectorize over columns and interleave rows, but must perform the
// very same float operations in the same order per output element.

void
refGemvRows(const float* w, const float* x, float* y, std::size_t rb,
            std::size_t re, std::size_t cols)
{
    for (std::size_t r = rb; r < re; ++r) {
        float acc = 0.0f;
        for (std::size_t c = 0; c < cols; ++c)
            acc += w[r * cols + c] * x[c];
        y[r] = acc;
    }
}

void
refGemvTRows(const float* w, const float* dy, float* dx, std::size_t rb,
             std::size_t re, std::size_t cols)
{
    for (std::size_t r = rb; r < re; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            dx[c] += w[r * cols + c] * dy[r];
}

void
refOuterRows(float* dw, const float* dy, const float* x, std::size_t rb,
             std::size_t re, std::size_t cols)
{
    for (std::size_t r = rb; r < re; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            dw[r * cols + c] += dy[r] * x[c];
}

void
refGemmABt(float* c, const float* a, const float* b, std::size_t m,
           std::size_t n, std::size_t k)
{
    for (std::size_t i = 0; i < k; ++i)
        for (std::size_t r = 0; r < m; ++r)
            for (std::size_t cc = 0; cc < n; ++cc)
                c[r * n + cc] += a[i * m + r] * b[i * n + cc];
}

/** Bitwise equality (distinguishes -0/+0 and NaN payloads). */
bool
sameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

/** Odd column counts straddle every vector-width boundary; 0 and 1
 *  exercise the pure-tail paths. */
constexpr std::size_t kBitExactCols[] = {0, 1, 3, 7, 8, 9, 255, 256, 257};
constexpr std::size_t kBitExactRows[] = {1, 2, 3, 5, 7};

TEST(HostMathBitExact, RowKernelsMatchScalarReference)
{
    common::Rng rng(20260);
    for (const std::size_t cols : kBitExactCols) {
        for (const std::size_t rows : kBitExactRows) {
            // Slices start past row 0 and stop short of the last row,
            // as a VPP's rows do; the buffers are sized exactly so an
            // over-read in a vector tail trips ASan.
            const std::size_t rb = 3, re = rb + rows, total = re + 2;
            const auto w = randomVec(rng, total * cols);
            const auto x = randomVec(rng, cols);
            const auto dy = randomVec(rng, total);
            SCOPED_TRACE(testing::Message()
                         << rows << " rows x " << cols << " cols");

            auto y = randomVec(rng, total), y_ref = y;
            tensor::gemvRows(w.data(), x.data(), y.data(), rb, re, cols);
            refGemvRows(w.data(), x.data(), y_ref.data(), rb, re, cols);
            EXPECT_TRUE(sameBits(y, y_ref)) << "gemvRows";

            auto dx = randomVec(rng, cols), dx_ref = dx;
            tensor::gemvTransposedAccumRows(w.data(), dy.data(),
                                            dx.data(), rb, re, cols);
            refGemvTRows(w.data(), dy.data(), dx_ref.data(), rb, re,
                         cols);
            EXPECT_TRUE(sameBits(dx, dx_ref)) << "gemvTransposedAccumRows";

            auto dw = randomVec(rng, total * cols), dw_ref = dw;
            tensor::outerAccumRows(dw.data(), dy.data(), x.data(), rb, re,
                                   cols);
            refOuterRows(dw_ref.data(), dy.data(), x.data(), rb, re,
                         cols);
            EXPECT_TRUE(sameBits(dw, dw_ref)) << "outerAccumRows";
        }
    }
}

TEST(HostMathBitExact, UnalignedPointersMatchScalarReference)
{
    // Pool offsets are float-granular, so kernels see pointers at any
    // 4-byte alignment: shift every buffer by one float.
    common::Rng rng(20261);
    const std::size_t rows = 5, cols = 257, rb = 1, re = rb + rows;
    const auto w = randomVec(rng, (re + 1) * cols + 1);
    const auto x = randomVec(rng, cols + 1);
    const auto dy = randomVec(rng, re + 2);
    auto dw = randomVec(rng, re * cols + 1), dw_ref = dw;
    tensor::outerAccumRows(dw.data() + 1, dy.data() + 1, x.data() + 1,
                           rb, re, cols);
    refOuterRows(dw_ref.data() + 1, dy.data() + 1, x.data() + 1, rb, re,
                 cols);
    EXPECT_TRUE(sameBits(dw, dw_ref));
    auto dx = randomVec(rng, cols + 1), dx_ref = dx;
    tensor::gemvTransposedAccumRows(w.data() + 1, dy.data() + 1,
                                    dx.data() + 1, rb, re, cols);
    refGemvTRows(w.data() + 1, dy.data() + 1, dx_ref.data() + 1, rb, re,
                 cols);
    EXPECT_TRUE(sameBits(dx, dx_ref));
}

TEST(HostMathBitExact, GemmAccumABtMatchesScalarReference)
{
    common::Rng rng(20262);
    for (const std::size_t n : kBitExactCols) {
        for (const std::size_t m : {1u, 3u, 7u}) {
            for (const std::size_t k : {1u, 2u, 5u}) {
                SCOPED_TRACE(testing::Message()
                             << "m " << m << " n " << n << " k " << k);
                const auto a = randomVec(rng, m * k);
                const auto b = randomVec(rng, n * k);
                auto c = randomVec(rng, m * n), c_ref = c;
                tensor::gemmAccumABt(c.data(), a.data(), b.data(), m, n,
                                     k);
                refGemmABt(c_ref.data(), a.data(), b.data(), m, n, k);
                EXPECT_TRUE(sameBits(c, c_ref));
            }
        }
    }
}

TEST(HostMathBitExact, AccumMatchesScalarReference)
{
    common::Rng rng(20263);
    for (const std::size_t len : kBitExactCols) {
        const auto in = randomVec(rng, len);
        auto out = randomVec(rng, len), out_ref = out;
        tensor::accum(out.data(), in.data(), len);
        for (std::size_t i = 0; i < len; ++i)
            out_ref[i] += in[i];
        EXPECT_TRUE(sameBits(out, out_ref)) << len << " floats";
    }
}

TEST(TensorRef, ViewsIntoPool)
{
    gpusim::DeviceMemory mem(64);
    const auto off = mem.allocate(8, gpusim::MemSpace::Activations);
    tensor::TensorRef ref(off, tensor::Shape(8));
    EXPECT_TRUE(ref.valid());
    EXPECT_DOUBLE_EQ(ref.bytes(), 32.0);
    ref.data(mem)[2] = 42.0f;
    EXPECT_EQ(mem.data(off)[2], 42.0f);
    EXPECT_FALSE(tensor::TensorRef{}.valid());
}

} // namespace
