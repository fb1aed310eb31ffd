// Fused normalization ops with hand-derived backward passes.
//
// Both ops produce zero-mean / unit-variance outputs without affine
// parameters; layers compose the affine transformation around them (after
// for conventional norms, *before* for the paper's inverted normalization).
#include <cmath>

#include "autograd/lowered.h"
#include "autograd/ops.h"
#include "deploy/recorder.h"
#include "tensor/ops.h"

namespace ripple::autograd {
namespace {

/// dx for standardization y=(x-μ)σ⁻¹ over a slab of m elements:
/// dx = s/m · (m·dy − Σdy − x̂·Σ(dy·x̂))
void standardize_backward_slab(const float* dy, const float* xhat, float s,
                               int64_t m, float* dx) {
  double sum_dy = 0.0;
  double sum_dy_xhat = 0.0;
  for (int64_t i = 0; i < m; ++i) {
    sum_dy += dy[i];
    sum_dy_xhat += static_cast<double>(dy[i]) * xhat[i];
  }
  const float mean_dy = static_cast<float>(sum_dy / static_cast<double>(m));
  const float mean_dy_xhat =
      static_cast<float>(sum_dy_xhat / static_cast<double>(m));
  for (int64_t i = 0; i < m; ++i)
    dx[i] += s * (dy[i] - mean_dy - xhat[i] * mean_dy_xhat);
}

}  // namespace

void group_normalize_into(const Tensor& x, int64_t groups, float eps,
                          Tensor& out, float* inv_std) {
  const int64_t n = x.dim(0);
  const int64_t c = x.dim(1);
  int64_t inner = 1;
  for (int d = 2; d < x.rank(); ++d) inner *= x.dim(d);
  const int64_t m = (c / groups) * inner;  // slab size
  const float* px = x.data();
  float* po = out.data();
  for (int64_t slab = 0; slab < n * groups; ++slab) {
    const float* src = px + slab * m;
    float* dst = po + slab * m;
    double sum = 0.0;
    for (int64_t i = 0; i < m; ++i) sum += src[i];
    const double mean = sum / static_cast<double>(m);
    double var = 0.0;
    for (int64_t i = 0; i < m; ++i) {
      const double d = src[i] - mean;
      var += d * d;
    }
    var /= static_cast<double>(m);
    const float s = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    if (inv_std != nullptr) inv_std[slab] = s;
    for (int64_t i = 0; i < m; ++i)
      dst[i] = (src[i] - static_cast<float>(mean)) * s;
  }
}

Variable group_normalize(const Variable& x, int64_t groups, float eps) {
  const Tensor& xv = x.value();
  RIPPLE_CHECK(xv.rank() >= 2) << "group_normalize needs rank >= 2, got "
                               << shape_to_string(xv.shape());
  const int64_t n = xv.dim(0);
  const int64_t c = xv.dim(1);
  RIPPLE_CHECK(groups >= 1 && c % groups == 0)
      << "group_normalize: " << c << " channels not divisible into " << groups
      << " groups";
  int64_t inner = 1;
  for (int d = 2; d < xv.rank(); ++d) inner *= xv.dim(d);
  const int64_t group_channels = c / groups;
  const int64_t m = group_channels * inner;  // slab size
  RIPPLE_CHECK(m > 1) << "group_normalize slab has a single element; "
                         "statistics are degenerate";

  Tensor out = Tensor::empty(xv.shape());
  Tensor inv_std({n * groups});
  group_normalize_into(xv, groups, eps, out, inv_std.data());

  if (deploy::active_trace() != nullptr) {
    deploy::TraceStep ts;
    ts.tag = deploy::OpTag::kGroupNorm;
    ts.inputs = {xv};
    ts.output = out;
    ts.i0 = groups;
    ts.fn = [groups, eps](const Tensor* const* ins, int, Tensor& o) {
      group_normalize_into(*ins[0], groups, eps, o, nullptr);
    };
    deploy::active_trace()->record(std::move(ts));
  }

  Tensor xhat = out;  // share storage; forward value is never mutated
  return make_op_node(
      std::move(out), {x.node()},
      [xhat, inv_std, n, groups, m](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(xhat.shape());
        const float* pdy = nd.grad.data();
        const float* ph = xhat.data();
        const float* ps = inv_std.data();
        float* pdx = dx.data();
        for (int64_t slab = 0; slab < n * groups; ++slab)
          standardize_backward_slab(pdy + slab * m, ph + slab * m, ps[slab], m,
                                    pdx + slab * m);
        nd.parents[0]->accumulate_grad(dx);
      },
      "group_normalize");
}

Variable batch_normalize(const Variable& x, Tensor& running_mean,
                         Tensor& running_var, bool training, float momentum,
                         float eps) {
  const Tensor& xv = x.value();
  RIPPLE_CHECK(xv.rank() >= 2) << "batch_normalize needs rank >= 2";
  const int64_t n = xv.dim(0);
  const int64_t c = xv.dim(1);
  int64_t inner = 1;
  for (int d = 2; d < xv.rank(); ++d) inner *= xv.dim(d);
  RIPPLE_CHECK(running_mean.rank() == 1 && running_mean.dim(0) == c)
      << "running_mean shape mismatch";
  RIPPLE_CHECK(running_var.rank() == 1 && running_var.dim(0) == c)
      << "running_var shape mismatch";
  const int64_t m = n * inner;  // elements per channel

  Tensor out(xv.shape());
  const float* px = xv.data();
  float* po = out.data();

  if (!training) {
    // Eval: constant statistics; gradient is a plain per-channel scale.
    Tensor scale({c});
    const float* pm = running_mean.data();
    const float* pv = running_var.data();
    float* psc = scale.data();
    for (int64_t ch = 0; ch < c; ++ch)
      psc[ch] = 1.0f / std::sqrt(pv[ch] + eps);
    for (int64_t i = 0; i < n; ++i)
      for (int64_t ch = 0; ch < c; ++ch) {
        const int64_t base = (i * c + ch) * inner;
        for (int64_t k = 0; k < inner; ++k)
          po[base + k] = (px[base + k] - pm[ch]) * psc[ch];
      }
    if (deploy::active_trace() != nullptr) {
      // w/b carry (μ, 1/σ) so the compiler can fuse a following affine
      // into one kBnAffine sweep; the closure is the unfused fallback.
      deploy::TraceStep ts;
      ts.tag = deploy::OpTag::kBatchNormEval;
      ts.inputs = {xv};
      ts.output = out;
      ts.w = running_mean;
      ts.b = scale;
      Tensor mean = running_mean;
      ts.fn = [mean, scale](const Tensor* const* ins, int, Tensor& o) {
        const Tensor& x = *ins[0];
        const int64_t n = x.dim(0);
        const int64_t c = mean.dim(0);
        const int64_t inner = x.numel() / (n * c);
        const float* px = x.data();
        const float* pm = mean.data();
        const float* psc = scale.data();
        float* po = o.data();
        for (int64_t i = 0; i < n; ++i)
          for (int64_t ch = 0; ch < c; ++ch) {
            const int64_t base = (i * c + ch) * inner;
            for (int64_t k = 0; k < inner; ++k)
              po[base + k] = (px[base + k] - pm[ch]) * psc[ch];
          }
      };
      deploy::active_trace()->record(std::move(ts));
    }
    return make_op_node(
        std::move(out), {x.node()},
        [scale, n, c, inner](Node& nd) {
          if (!nd.parents[0]->requires_grad) return;
          Tensor dx(nd.grad.shape());
          const float* pdy = nd.grad.data();
          const float* psc = scale.data();
          float* pdx = dx.data();
          for (int64_t i = 0; i < n; ++i)
            for (int64_t ch = 0; ch < c; ++ch) {
              const int64_t base = (i * c + ch) * inner;
              for (int64_t k = 0; k < inner; ++k)
                pdx[base + k] = pdy[base + k] * psc[ch];
            }
          nd.parents[0]->accumulate_grad(dx);
        },
        "batch_normalize_eval");
  }

  RIPPLE_CHECK(m > 1) << "batch_normalize needs more than one element per "
                         "channel in training mode";
  if (deploy::TraceRecorder* tr = deploy::active_trace()) {
    // Training-mode statistics depend on the whole batch and mutate the
    // running buffers — not a compilable serving forward.
    tr->abort("training-mode batch_normalize");
  }
  Tensor inv_std({c});
  {
    float* prm = running_mean.data();
    float* prv = running_var.data();
    float* ps = inv_std.data();
    for (int64_t ch = 0; ch < c; ++ch) {
      double sum = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* src = px + (i * c + ch) * inner;
        for (int64_t k = 0; k < inner; ++k) sum += src[k];
      }
      const double mean = sum / static_cast<double>(m);
      double var = 0.0;
      for (int64_t i = 0; i < n; ++i) {
        const float* src = px + (i * c + ch) * inner;
        for (int64_t k = 0; k < inner; ++k) {
          const double d = src[k] - mean;
          var += d * d;
        }
      }
      var /= static_cast<double>(m);
      const float s = 1.0f / std::sqrt(static_cast<float>(var) + eps);
      ps[ch] = s;
      for (int64_t i = 0; i < n; ++i) {
        const float* src = px + (i * c + ch) * inner;
        float* dst = po + (i * c + ch) * inner;
        for (int64_t k = 0; k < inner; ++k)
          dst[k] = (src[k] - static_cast<float>(mean)) * s;
      }
      prm[ch] = (1.0f - momentum) * prm[ch] +
                momentum * static_cast<float>(mean);
      prv[ch] =
          (1.0f - momentum) * prv[ch] + momentum * static_cast<float>(var);
    }
  }

  Tensor xhat = out;
  return make_op_node(
      std::move(out), {x.node()},
      [xhat, inv_std, n, c, inner, m](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx = Tensor::zeros(xhat.shape());
        const float* pdy = nd.grad.data();
        const float* ph = xhat.data();
        const float* ps = inv_std.data();
        float* pdx = dx.data();
        // Per-channel standardization backward; slab is strided (one chunk
        // per sample), so gather the sums first.
        for (int64_t ch = 0; ch < c; ++ch) {
          double sum_dy = 0.0;
          double sum_dy_xhat = 0.0;
          for (int64_t i = 0; i < n; ++i) {
            const int64_t base = (i * c + ch) * inner;
            for (int64_t k = 0; k < inner; ++k) {
              sum_dy += pdy[base + k];
              sum_dy_xhat +=
                  static_cast<double>(pdy[base + k]) * ph[base + k];
            }
          }
          const float mean_dy =
              static_cast<float>(sum_dy / static_cast<double>(m));
          const float mean_dy_xhat =
              static_cast<float>(sum_dy_xhat / static_cast<double>(m));
          const float s = ps[ch];
          for (int64_t i = 0; i < n; ++i) {
            const int64_t base = (i * c + ch) * inner;
            for (int64_t k = 0; k < inner; ++k)
              pdx[base + k] = s * (pdy[base + k] - mean_dy -
                                   ph[base + k] * mean_dy_xhat);
          }
        }
        nd.parents[0]->accumulate_grad(dx);
      },
      "batch_normalize");
}

}  // namespace ripple::autograd
