/**
 * @file
 * Math routines that serve as the functional payloads of simulated
 * kernels.
 *
 * Every executor (the naive baseline, the batching baselines, and the
 * VPPS script interpreter) computes through these same routines, so
 * numerical equivalence between execution strategies is exact up to
 * floating-point reassociation -- which the tests rely on.
 *
 * Each routine's result is bitwise that of its plain scalar loop:
 * implementations may vectorize over independent elements and
 * interleave independent rows, but every output element sees the same
 * rounded operations in the same order (no reassociation, no fused
 * multiply-add). Results are pinned across commits by
 * tests/fingerprints.txt.
 */
#pragma once

#include <cstddef>
#include <cstdint>

namespace tensor {

/** y = W x, where W is rows x cols row-major and x has cols elements. */
void gemv(const float* w, const float* x, float* y, std::size_t rows,
          std::size_t cols);

/** y = W x restricted to rows [row_begin, row_end). */
void gemvRows(const float* w, const float* x, float* y,
              std::size_t row_begin, std::size_t row_end,
              std::size_t cols);

/** dx += W^T dy (transposed matrix-vector, backward of gemv). */
void gemvTransposedAccum(const float* w, const float* dy, float* dx,
                         std::size_t rows, std::size_t cols);

/** dx += W^T dy restricted to rows [row_begin, row_end) of W. */
void gemvTransposedAccumRows(const float* w, const float* dy, float* dx,
                             std::size_t row_begin, std::size_t row_end,
                             std::size_t cols);

/** dW += dy x^T (outer product, weight-gradient accumulation). */
void outerAccum(float* dw, const float* dy, const float* x,
                std::size_t rows, std::size_t cols);

/** dW += dy x^T restricted to rows [row_begin, row_end). */
void outerAccumRows(float* dw, const float* dy, const float* x,
                    std::size_t row_begin, std::size_t row_end,
                    std::size_t cols);

/**
 * C += A B^T where A is m x k column-stacked (each column one staged
 * vector) and B is n x k. Used by the CUBLAS-substitute gradient
 * strategy: dW += sum_i dy_i x_i^T expressed as one dense GEMM over
 * the staged dy / x matrices.
 */
void gemmAccumABt(float* c, const float* a, const float* b,
                  std::size_t m, std::size_t n, std::size_t k);

/** out = sum of @p n_in vectors of length @p len. */
void addN(const float* const* ins, std::size_t n_in, float* out,
          std::size_t len);

/** out += in (element-wise accumulate). */
void accum(float* out, const float* in, std::size_t len);

/** out = a * b element-wise. */
void cwiseMult(const float* a, const float* b, float* out,
               std::size_t len);

/** out = tanh(in). */
void tanhForward(const float* in, float* out, std::size_t len);

/** din += dout * (1 - out^2), given out = tanh(in). */
void tanhBackward(const float* out, const float* dout, float* din,
                  std::size_t len);

/** out = 1 / (1 + exp(-in)). */
void sigmoidForward(const float* in, float* out, std::size_t len);

/** din += dout * out * (1 - out), given out = sigmoid(in). */
void sigmoidBackward(const float* out, const float* dout, float* din,
                     std::size_t len);

/** out = max(in, 0). */
void reluForward(const float* in, float* out, std::size_t len);

/** out = factor * in. */
void scaleForward(const float* in, float factor, float* out,
                  std::size_t len);

/** out += factor * in (backward of scaleForward). */
void scaleAccum(const float* in, float factor, float* out,
                std::size_t len);

/** din += dout * (out > 0). */
void reluBackward(const float* out, const float* dout, float* din,
                  std::size_t len);

/**
 * Softmax cross-entropy against a single gold label
 * (DyNet's pickneglogsoftmax).
 *
 * Writes the softmax probabilities into @p probs (length len) and
 * @return the scalar loss -log(probs[label]).
 */
float pickNegLogSoftmax(const float* logits, std::uint32_t label,
                        float* probs, std::size_t len);

/** dlogits += dloss * (probs - onehot(label)). */
void pickNegLogSoftmaxBackward(const float* probs, std::uint32_t label,
                               float dloss, float* dlogits,
                               std::size_t len);

/** SGD step: p -= lr * (g + weight_decay * p), then g = 0. */
void sgdUpdate(float* p, float* g, std::size_t len, float lr,
               float weight_decay);

} // namespace tensor
