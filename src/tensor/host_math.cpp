#include "tensor/host_math.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace tensor {

namespace {

/** Four floats in one 16-byte SIMD register (GCC/Clang vector
 *  extension; element-wise operators, IEEE semantics per lane). */
typedef float Float4 __attribute__((vector_size(16)));

inline Float4
load4(const float* p)
{
    Float4 v;
    std::memcpy(&v, p, sizeof v); // unaligned load
    return v;
}

inline void
store4(float* p, Float4 v)
{
    std::memcpy(p, &v, sizeof v);
}

/**
 * out[c] += a[c] * s for c in [0, n).
 *
 * The shared body of every accumulating row kernel. Columns are
 * independent, so computing four at a time performs exactly the
 * scalar loop's operations -- one rounded multiply, then one rounded
 * add, per element -- and the results are bitwise identical to it.
 * Nothing is reassociated and (with -ffp-contract=off) nothing is
 * fused into an FMA.
 */
inline void
axpy(float* out, const float* a, float s, std::size_t n)
{
    const Float4 sv = {s, s, s, s};
    std::size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        const Float4 lo = load4(out + c) + load4(a + c) * sv;
        const Float4 hi = load4(out + c + 4) + load4(a + c + 4) * sv;
        store4(out + c, lo);
        store4(out + c + 4, hi);
    }
    for (; c + 4 <= n; c += 4)
        store4(out + c, load4(out + c) + load4(a + c) * sv);
    for (; c < n; ++c)
        out[c] += a[c] * s;
}

} // namespace

void
gemv(const float* w, const float* x, float* y, std::size_t rows,
     std::size_t cols)
{
    gemvRows(w, x, y, 0, rows, cols);
}

void
gemvRows(const float* w, const float* x, float* y, std::size_t row_begin,
         std::size_t row_end, std::size_t cols)
{
    // Rows are interleaved four (then two) at a time for instruction-
    // level parallelism; each row still owns one accumulator summed in
    // column order, so every y[r] is bitwise the plain dot product.
    std::size_t r = row_begin;
    for (; r + 4 <= row_end; r += 4) {
        const float* w0 = w + r * cols;
        const float* w1 = w0 + cols;
        const float* w2 = w1 + cols;
        const float* w3 = w2 + cols;
        float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) {
            const float xc = x[c];
            a0 += w0[c] * xc;
            a1 += w1[c] * xc;
            a2 += w2[c] * xc;
            a3 += w3[c] * xc;
        }
        y[r] = a0;
        y[r + 1] = a1;
        y[r + 2] = a2;
        y[r + 3] = a3;
    }
    if (r + 2 <= row_end) {
        const float* w0 = w + r * cols;
        const float* w1 = w0 + cols;
        float a0 = 0.0f, a1 = 0.0f;
        for (std::size_t c = 0; c < cols; ++c) {
            const float xc = x[c];
            a0 += w0[c] * xc;
            a1 += w1[c] * xc;
        }
        y[r] = a0;
        y[r + 1] = a1;
        r += 2;
    }
    if (r < row_end) {
        const float* w0 = w + r * cols;
        float a0 = 0.0f;
        for (std::size_t c = 0; c < cols; ++c)
            a0 += w0[c] * x[c];
        y[r] = a0;
    }
}

void
gemvTransposedAccum(const float* w, const float* dy, float* dx,
                    std::size_t rows, std::size_t cols)
{
    gemvTransposedAccumRows(w, dy, dx, 0, rows, cols);
}

void
gemvTransposedAccumRows(const float* w, const float* dy, float* dx,
                        std::size_t row_begin, std::size_t row_end,
                        std::size_t cols)
{
    for (std::size_t r = row_begin; r < row_end; ++r)
        axpy(dx, w + r * cols, dy[r], cols);
}

void
outerAccum(float* dw, const float* dy, const float* x, std::size_t rows,
           std::size_t cols)
{
    outerAccumRows(dw, dy, x, 0, rows, cols);
}

void
outerAccumRows(float* dw, const float* dy, const float* x,
               std::size_t row_begin, std::size_t row_end,
               std::size_t cols)
{
    for (std::size_t r = row_begin; r < row_end; ++r)
        axpy(dw + r * cols, x, dy[r], cols);
}

void
gemmAccumABt(float* c, const float* a, const float* b, std::size_t m,
             std::size_t n, std::size_t k)
{
    // C[m x n] += A[m x k] * B[n x k]^T with A, B stored row-major as
    // k columns of staged vectors laid out contiguously per vector:
    // A holds k vectors of length m back-to-back (column i of A is
    // a + i*m), likewise B.
    for (std::size_t i = 0; i < k; ++i) {
        const float* ai = a + i * m;
        const float* bi = b + i * n;
        for (std::size_t r = 0; r < m; ++r)
            axpy(c + r * n, bi, ai[r], n);
    }
}

void
addN(const float* const* ins, std::size_t n_in, float* out,
     std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        float acc = 0.0f;
        for (std::size_t j = 0; j < n_in; ++j)
            acc += ins[j][i];
        out[i] = acc;
    }
}

void
accum(float* out, const float* in, std::size_t len)
{
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4)
        store4(out + i, load4(out + i) + load4(in + i));
    for (; i < len; ++i)
        out[i] += in[i];
}

void
cwiseMult(const float* a, const float* b, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = a[i] * b[i];
}

void
tanhForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = std::tanh(in[i]);
}

void
tanhBackward(const float* out, const float* dout, float* din,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += dout[i] * (1.0f - out[i] * out[i]);
}

void
sigmoidForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = 1.0f / (1.0f + std::exp(-in[i]));
}

void
sigmoidBackward(const float* out, const float* dout, float* din,
                std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += dout[i] * out[i] * (1.0f - out[i]);
}

void
reluForward(const float* in, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = in[i] > 0.0f ? in[i] : 0.0f;
}

void
reluBackward(const float* out, const float* dout, float* din,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        din[i] += out[i] > 0.0f ? dout[i] : 0.0f;
}

void
scaleForward(const float* in, float factor, float* out,
             std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] = factor * in[i];
}

void
scaleAccum(const float* in, float factor, float* out, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i)
        out[i] += factor * in[i];
}

float
pickNegLogSoftmax(const float* logits, std::uint32_t label, float* probs,
                  std::size_t len)
{
    const float max_logit = *std::max_element(logits, logits + len);
    float denom = 0.0f;
    for (std::size_t i = 0; i < len; ++i) {
        probs[i] = std::exp(logits[i] - max_logit);
        denom += probs[i];
    }
    for (std::size_t i = 0; i < len; ++i)
        probs[i] /= denom;
    const float p = std::max(probs[label], 1e-30f);
    return -std::log(p);
}

void
pickNegLogSoftmaxBackward(const float* probs, std::uint32_t label,
                          float dloss, float* dlogits, std::size_t len)
{
    for (std::size_t i = 0; i < len; ++i) {
        const float onehot = (i == label) ? 1.0f : 0.0f;
        dlogits[i] += dloss * (probs[i] - onehot);
    }
}

void
sgdUpdate(float* p, float* g, std::size_t len, float lr,
          float weight_decay)
{
    for (std::size_t i = 0; i < len; ++i) {
        p[i] -= lr * (g[i] + weight_decay * p[i]);
        g[i] = 0.0f;
    }
}

} // namespace tensor
