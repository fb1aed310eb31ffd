#include "quant/ste_ops.h"

#include <cmath>

#include "deploy/recorder.h"
#include "tensor/ops.h"

namespace ripple::quant {

namespace ag = ripple::autograd;
namespace {

// Records a unary quantizer step for plan compilation; called only after
// the caller's active_trace() null check.
template <typename F>
void trace_unary(deploy::OpTag tag, const Tensor& x, const Tensor& out,
                 F op) {
  deploy::TraceStep ts;
  ts.tag = tag;
  ts.inputs = {x};
  ts.output = out;
  ts.fn = [op](const Tensor* const* ins, int, Tensor& o) {
    const float* pa = ins[0]->data();
    float* po = o.data();
    const int64_t n = o.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = op(pa[i]);
  };
  deploy::active_trace()->record(std::move(ts));
}

}  // namespace

ag::Variable binarize_ste(const ag::Variable& w, float alpha) {
  RIPPLE_CHECK(alpha > 0.0f) << "binarize_ste alpha must be positive, got "
                             << alpha;
  Tensor out = ops::mul_scalar(ops::sign(w.value()), alpha);
  Tensor wv = w.value();
  return ag::make_op_node(
      std::move(out), {w.node()},
      [wv](ag::Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(wv.shape());
        const float* pw = wv.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < wv.numel(); ++i)
          pdx[i] = std::fabs(pw[i]) <= 1.0f ? pdy[i] : 0.0f;
        n.parents[0]->accumulate_grad(dx);
      },
      "binarize_ste");
}

ag::Variable fake_quant_ste(const ag::Variable& x, float scale, int bits) {
  RIPPLE_CHECK(bits >= 2 && bits <= 16) << "fake_quant_ste bits out of range";
  RIPPLE_CHECK(scale > 0.0f) << "fake_quant_ste scale must be positive";
  const float qmax = static_cast<float>((1 << (bits - 1)) - 1);
  const float limit = qmax * scale;
  Tensor out = ops::map(x.value(), [scale, qmax](float v) {
    const float q = std::round(v / scale);
    return std::clamp(q, -qmax, qmax) * scale;
  });
  if (deploy::active_trace() != nullptr) {
    trace_unary(deploy::OpTag::kFakeQuant, x.value(), out,
                [scale, qmax](float v) {
                  const float q = std::round(v / scale);
                  return std::clamp(q, -qmax, qmax) * scale;
                });
  }
  Tensor xv = x.value();
  return ag::make_op_node(
      std::move(out), {x.node()},
      [xv, limit](ag::Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(xv.shape());
        const float* px = xv.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < xv.numel(); ++i)
          pdx[i] = std::fabs(px[i]) <= limit ? pdy[i] : 0.0f;
        n.parents[0]->accumulate_grad(dx);
      },
      "fake_quant_ste");
}

ag::Variable pact_quant(const ag::Variable& x, const ag::Variable& alpha,
                        int bits) {
  RIPPLE_CHECK(bits >= 2 && bits <= 16) << "pact_quant bits out of range";
  RIPPLE_CHECK(alpha.numel() == 1) << "pact_quant alpha must be scalar";
  const float a = alpha.value().item();
  RIPPLE_CHECK(a > 0.0f) << "pact_quant alpha must stay positive, got " << a;
  const float levels = static_cast<float>((1 << bits) - 1);
  const float delta = a / levels;
  Tensor out = ops::map(x.value(), [a, delta](float v) {
    const float y = std::clamp(v, 0.0f, a);
    return std::round(y / delta) * delta;
  });
  if (deploy::active_trace() != nullptr) {
    // α is frozen in eval serving, so baking its value is exact; a weight
    // update invalidates the session's plans with the rest of the cache.
    trace_unary(deploy::OpTag::kPact, x.value(), out, [a, delta](float v) {
      const float y = std::clamp(v, 0.0f, a);
      return std::round(y / delta) * delta;
    });
  }
  Tensor xv = x.value();
  return ag::make_op_node(
      std::move(out), {x.node(), alpha.node()},
      [xv, a](ag::Node& n) {
        const float* px = xv.data();
        const float* pdy = n.grad.data();
        if (n.parents[0]->requires_grad) {
          Tensor dx(xv.shape());
          float* pdx = dx.data();
          for (int64_t i = 0; i < xv.numel(); ++i)
            pdx[i] = (px[i] > 0.0f && px[i] < a) ? pdy[i] : 0.0f;
          n.parents[0]->accumulate_grad(dx);
        }
        if (n.parents[1]->requires_grad) {
          double acc = 0.0;
          for (int64_t i = 0; i < xv.numel(); ++i)
            if (px[i] >= a) acc += pdy[i];
          n.parents[1]->accumulate_grad(
              Tensor::full(n.parents[1]->value.shape(),
                           static_cast<float>(acc)));
        }
      },
      "pact_quant");
}

}  // namespace ripple::quant
