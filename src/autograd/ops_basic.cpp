// Elementwise, scalar, per-channel broadcast, activation, shape and
// reduction ops.
//
// Each op appends a TraceStep (deploy/recorder.h) when a recorder is active;
// the recorded closures read every dimension from the tensors at execution
// time so they stay valid at the plan's reduced uniform-row shapes.
#include <cmath>
#include <cstring>

#include "autograd/ops.h"
#include "core/lazy_stem.h"
#include "core/mc_stream.h"
#include "deploy/recorder.h"
#include "tensor/ops.h"
#include "tensor/vmath.h"

namespace ripple::autograd {
namespace {

/// Lazy-stem row alignment (core/lazy_stem.h): inside a lazy batched pass,
/// a merge may see one operand still at the unreplicated n-row stem while
/// the other was already expanded to replicas·n rows (LSTM gate sums,
/// residual adds, skip concats). Expand the stem side; identical-row pairs
/// pass through untouched, so eager passes pay one integer compare.
std::pair<Variable, Variable> align_stem_rows(const Variable& a,
                                              const Variable& b) {
  if (a.value().rank() < 1 || b.value().rank() < 1) return {a, b};
  const int64_t ra = a.value().dim(0);
  const int64_t rb = b.value().dim(0);
  if (ra == rb) return {a, b};
  if (core::lazy_stem_pending(ra) &&
      rb == core::active_mc_stream()->replicas() * ra)
    return {core::replicate_stem(a), b};
  if (core::lazy_stem_pending(rb) &&
      ra == core::active_mc_stream()->replicas() * rb)
    return {a, core::replicate_stem(b)};
  return {a, b};
}

/// Iterates a [N, C, inner] view of a rank>=2 tensor whose channel axis is
/// dim 1; rank-2 tensors have inner == 1.
struct ChannelView {
  int64_t n;
  int64_t c;
  int64_t inner;
};

ChannelView channel_view(const Tensor& x) {
  RIPPLE_CHECK(x.rank() >= 2) << "channel broadcast needs rank >= 2, got "
                              << shape_to_string(x.shape());
  int64_t inner = 1;
  for (int d = 2; d < x.rank(); ++d) inner *= x.dim(d);
  return {x.dim(0), x.dim(1), inner};
}

// Hook body, only reached after the caller's active_trace() null check (the
// hot path pays a single thread-local read per op).
void trace_step(deploy::OpTag tag, std::vector<Tensor> inputs,
                const Tensor& out, deploy::StepFn fn, int64_t i0 = 0,
                int64_t i1 = 0) {
  deploy::TraceStep ts;
  ts.tag = tag;
  ts.inputs = std::move(inputs);
  ts.output = out;
  ts.fn = std::move(fn);
  ts.i0 = i0;
  ts.i1 = i1;
  deploy::active_trace()->record(std::move(ts));
}

// Exec closure for the elementwise binaries; same per-element expressions as
// ops::add/sub/mul.
template <typename F>
deploy::StepFn binary_fn(F op) {
  return [op](const Tensor* const* ins, int, Tensor& o) {
    const float* pa = ins[0]->data();
    const float* pb = ins[1]->data();
    float* po = o.data();
    const int64_t n = o.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = op(pa[i], pb[i]);
  };
}

template <typename F>
deploy::StepFn unary_fn(F op) {
  return [op](const Tensor* const* ins, int, Tensor& o) {
    const float* pa = ins[0]->data();
    float* po = o.data();
    const int64_t n = o.numel();
    for (int64_t i = 0; i < n; ++i) po[i] = op(pa[i]);
  };
}

}  // namespace

Variable add(const Variable& a0, const Variable& b0) {
  const auto& [a, b] = align_stem_rows(a0, b0);
  Tensor out = ops::add(a.value(), b.value());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kAdd, {a.value(), b.value()}, out,
               binary_fn([](float x, float y) { return x + y; }));
  }
  return make_op_node(
      std::move(out), {a.node(), b.node()},
      [](Node& n) {
        for (auto& p : n.parents)
          if (p->requires_grad) p->accumulate_grad(n.grad);
      },
      "add");
}

Variable sub(const Variable& a0, const Variable& b0) {
  const auto& [a, b] = align_stem_rows(a0, b0);
  Tensor out = ops::sub(a.value(), b.value());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kSub, {a.value(), b.value()}, out,
               binary_fn([](float x, float y) { return x - y; }));
  }
  return make_op_node(
      std::move(out), {a.node(), b.node()},
      [](Node& n) {
        if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
        if (n.parents[1]->requires_grad)
          n.parents[1]->accumulate_grad(ops::mul_scalar(n.grad, -1.0f));
      },
      "sub");
}

Variable mul(const Variable& a0, const Variable& b0) {
  const auto& [a, b] = align_stem_rows(a0, b0);
  Tensor out = ops::mul(a.value(), b.value());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kMul, {a.value(), b.value()}, out,
               binary_fn([](float x, float y) { return x * y; }));
  }
  Tensor av = a.value();
  Tensor bv = b.value();
  return make_op_node(
      std::move(out), {a.node(), b.node()},
      [av, bv](Node& n) {
        if (n.parents[0]->requires_grad)
          n.parents[0]->accumulate_grad(ops::mul(n.grad, bv));
        if (n.parents[1]->requires_grad)
          n.parents[1]->accumulate_grad(ops::mul(n.grad, av));
      },
      "mul");
}

Variable neg(const Variable& a) { return mul_scalar(a, -1.0f); }

Variable add_scalar(const Variable& a, float s) {
  Tensor out = ops::add_scalar(a.value(), s);
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kAddScalar, {a.value()}, out,
               unary_fn([s](float x) { return x + s; }));
  }
  return make_op_node(
      std::move(out), {a.node()},
      [](Node& n) {
        if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
      },
      "add_scalar");
}

Variable mul_scalar(const Variable& a, float s) {
  Tensor out = ops::mul_scalar(a.value(), s);
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kMulScalar, {a.value()}, out,
               unary_fn([s](float x) { return x * s; }));
  }
  return make_op_node(
      std::move(out), {a.node()},
      [s](Node& n) {
        if (n.parents[0]->requires_grad)
          n.parents[0]->accumulate_grad(ops::mul_scalar(n.grad, s));
      },
      "mul_scalar");
}

Variable mul_channel(const Variable& x, const Variable& gamma) {
  const ChannelView v = channel_view(x.value());
  RIPPLE_CHECK(gamma.value().rank() == 1 && gamma.dim(0) == v.c)
      << "mul_channel: gamma shape " << shape_to_string(gamma.shape())
      << " does not match " << v.c << " channels";
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.value().data();
  const float* pg = gamma.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < v.n; ++i)
    for (int64_t ch = 0; ch < v.c; ++ch) {
      const float g = pg[ch];
      const int64_t base = (i * v.c + ch) * v.inner;
      for (int64_t k = 0; k < v.inner; ++k) po[base + k] = px[base + k] * g;
    }
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kMulChannel, {x.value(), gamma.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t n = x.dim(0);
                 const int64_t c = ins[1]->dim(0);
                 const int64_t inner = x.numel() / (n * c);
                 const float* px = x.data();
                 const float* pg = ins[1]->data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i)
                   for (int64_t ch = 0; ch < c; ++ch) {
                     const float g = pg[ch];
                     const int64_t base = (i * c + ch) * inner;
                     for (int64_t k = 0; k < inner; ++k)
                       po[base + k] = px[base + k] * g;
                   }
               });
  }
  Tensor xv = x.value();
  Tensor gv = gamma.value();
  return make_op_node(
      std::move(out), {x.node(), gamma.node()},
      [xv, gv, v](Node& n) {
        const float* pdy = n.grad.data();
        if (n.parents[0]->requires_grad) {
          Tensor dx(xv.shape());
          float* pdx = dx.data();
          const float* pg = gv.data();
          for (int64_t i = 0; i < v.n; ++i)
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const float g = pg[ch];
              const int64_t base = (i * v.c + ch) * v.inner;
              for (int64_t k = 0; k < v.inner; ++k)
                pdx[base + k] = pdy[base + k] * g;
            }
          n.parents[0]->accumulate_grad(dx);
        }
        if (n.parents[1]->requires_grad) {
          Tensor dg({v.c});
          float* pdg = dg.data();
          const float* px = xv.data();
          for (int64_t i = 0; i < v.n; ++i)
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const int64_t base = (i * v.c + ch) * v.inner;
              double acc = 0.0;
              for (int64_t k = 0; k < v.inner; ++k)
                acc += static_cast<double>(pdy[base + k]) * px[base + k];
              pdg[ch] += static_cast<float>(acc);
            }
          n.parents[1]->accumulate_grad(dg);
        }
      },
      "mul_channel");
}

Variable add_channel(const Variable& x, const Variable& beta) {
  const ChannelView v = channel_view(x.value());
  RIPPLE_CHECK(beta.value().rank() == 1 && beta.dim(0) == v.c)
      << "add_channel: beta shape " << shape_to_string(beta.shape())
      << " does not match " << v.c << " channels";
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.value().data();
  const float* pb = beta.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < v.n; ++i)
    for (int64_t ch = 0; ch < v.c; ++ch) {
      const float b = pb[ch];
      const int64_t base = (i * v.c + ch) * v.inner;
      for (int64_t k = 0; k < v.inner; ++k) po[base + k] = px[base + k] + b;
    }
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kAddChannel, {x.value(), beta.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t n = x.dim(0);
                 const int64_t c = ins[1]->dim(0);
                 const int64_t inner = x.numel() / (n * c);
                 const float* px = x.data();
                 const float* pb = ins[1]->data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i)
                   for (int64_t ch = 0; ch < c; ++ch) {
                     const float b = pb[ch];
                     const int64_t base = (i * c + ch) * inner;
                     for (int64_t k = 0; k < inner; ++k)
                       po[base + k] = px[base + k] + b;
                   }
               });
  }
  return make_op_node(
      std::move(out), {x.node(), beta.node()},
      [v](Node& n) {
        const float* pdy = n.grad.data();
        if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
        if (n.parents[1]->requires_grad) {
          Tensor db({v.c});
          float* pdb = db.data();
          for (int64_t i = 0; i < v.n; ++i)
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const int64_t base = (i * v.c + ch) * v.inner;
              double acc = 0.0;
              for (int64_t k = 0; k < v.inner; ++k) acc += pdy[base + k];
              pdb[ch] += static_cast<float>(acc);
            }
          n.parents[1]->accumulate_grad(db);
        }
      },
      "add_channel");
}

Variable mul_channel_replicated(const Variable& x, const Variable& gamma) {
  const ChannelView v = channel_view(x.value());
  RIPPLE_CHECK(gamma.value().rank() == 2 && gamma.dim(1) == v.c)
      << "mul_channel_replicated: gamma shape "
      << shape_to_string(gamma.shape()) << " does not match " << v.c
      << " channels";
  const int64_t r = gamma.dim(0);
  RIPPLE_CHECK(r >= 1 && v.n % r == 0)
      << "mul_channel_replicated: batch " << v.n << " not divisible into "
      << r << " replicas";
  const int64_t rows = v.n / r;  // samples per replica
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.value().data();
  const float* pg = gamma.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < v.n; ++i) {
    const float* grow = pg + (i / rows) * v.c;
    for (int64_t ch = 0; ch < v.c; ++ch) {
      const float g = grow[ch];
      const int64_t base = (i * v.c + ch) * v.inner;
      for (int64_t k = 0; k < v.inner; ++k) po[base + k] = px[base + k] * g;
    }
  }
  if (deploy::active_trace() != nullptr) {
    // The replica axis (gamma rows) is the plan's stochastic signature:
    // the compiler treats this step as the replication point of the lazy
    // stem. Closure recomputes rows-per-replica from the live batch.
    trace_step(deploy::OpTag::kMulChannelRep, {x.value(), gamma.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t r = ins[1]->dim(0);
                 const int64_t c = ins[1]->dim(1);
                 const int64_t n = x.dim(0);
                 const int64_t inner = x.numel() / (n * c);
                 const int64_t rows = n / r;
                 const float* px = x.data();
                 const float* pg = ins[1]->data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i) {
                   const float* grow = pg + (i / rows) * c;
                   for (int64_t ch = 0; ch < c; ++ch) {
                     const float g = grow[ch];
                     const int64_t base = (i * c + ch) * inner;
                     for (int64_t k = 0; k < inner; ++k)
                       po[base + k] = px[base + k] * g;
                   }
                 }
               });
  }
  Tensor xv = x.value();
  Tensor gv = gamma.value();
  return make_op_node(
      std::move(out), {x.node(), gamma.node()},
      [xv, gv, v, r, rows](Node& n) {
        const float* pdy = n.grad.data();
        if (n.parents[0]->requires_grad) {
          Tensor dx(xv.shape());
          float* pdx = dx.data();
          const float* pg = gv.data();
          for (int64_t i = 0; i < v.n; ++i) {
            const float* grow = pg + (i / rows) * v.c;
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const float g = grow[ch];
              const int64_t base = (i * v.c + ch) * v.inner;
              for (int64_t k = 0; k < v.inner; ++k)
                pdx[base + k] = pdy[base + k] * g;
            }
          }
          n.parents[0]->accumulate_grad(dx);
        }
        if (n.parents[1]->requires_grad) {
          Tensor dg = Tensor::zeros({r, v.c});
          float* pdg = dg.data();
          const float* px = xv.data();
          for (int64_t i = 0; i < v.n; ++i) {
            float* grow = pdg + (i / rows) * v.c;
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const int64_t base = (i * v.c + ch) * v.inner;
              double acc = 0.0;
              for (int64_t k = 0; k < v.inner; ++k)
                acc += static_cast<double>(pdy[base + k]) * px[base + k];
              grow[ch] += static_cast<float>(acc);
            }
          }
          n.parents[1]->accumulate_grad(dg);
        }
      },
      "mul_channel_replicated");
}

Variable add_channel_replicated(const Variable& x, const Variable& beta) {
  const ChannelView v = channel_view(x.value());
  RIPPLE_CHECK(beta.value().rank() == 2 && beta.dim(1) == v.c)
      << "add_channel_replicated: beta shape " << shape_to_string(beta.shape())
      << " does not match " << v.c << " channels";
  const int64_t r = beta.dim(0);
  RIPPLE_CHECK(r >= 1 && v.n % r == 0)
      << "add_channel_replicated: batch " << v.n << " not divisible into "
      << r << " replicas";
  const int64_t rows = v.n / r;
  Tensor out = Tensor::empty(x.shape());
  const float* px = x.value().data();
  const float* pb = beta.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < v.n; ++i) {
    const float* brow = pb + (i / rows) * v.c;
    for (int64_t ch = 0; ch < v.c; ++ch) {
      const float bval = brow[ch];
      const int64_t base = (i * v.c + ch) * v.inner;
      for (int64_t k = 0; k < v.inner; ++k) po[base + k] = px[base + k] + bval;
    }
  }
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kAddChannelRep, {x.value(), beta.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t r = ins[1]->dim(0);
                 const int64_t c = ins[1]->dim(1);
                 const int64_t n = x.dim(0);
                 const int64_t inner = x.numel() / (n * c);
                 const int64_t rows = n / r;
                 const float* px = x.data();
                 const float* pb = ins[1]->data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i) {
                   const float* brow = pb + (i / rows) * c;
                   for (int64_t ch = 0; ch < c; ++ch) {
                     const float bval = brow[ch];
                     const int64_t base = (i * c + ch) * inner;
                     for (int64_t k = 0; k < inner; ++k)
                       po[base + k] = px[base + k] + bval;
                   }
                 }
               });
  }
  return make_op_node(
      std::move(out), {x.node(), beta.node()},
      [v, r, rows](Node& n) {
        const float* pdy = n.grad.data();
        if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(n.grad);
        if (n.parents[1]->requires_grad) {
          Tensor db = Tensor::zeros({r, v.c});
          float* pdb = db.data();
          for (int64_t i = 0; i < v.n; ++i) {
            float* brow = pdb + (i / rows) * v.c;
            for (int64_t ch = 0; ch < v.c; ++ch) {
              const int64_t base = (i * v.c + ch) * v.inner;
              double acc = 0.0;
              for (int64_t k = 0; k < v.inner; ++k) acc += pdy[base + k];
              brow[ch] += static_cast<float>(acc);
            }
          }
          n.parents[1]->accumulate_grad(db);
        }
      },
      "add_channel_replicated");
}

Variable relu(const Variable& a) {
  Tensor out = ops::map(a.value(), [](float x) { return x > 0.0f ? x : 0.0f; });
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kRelu, {a.value()}, out,
               unary_fn([](float x) { return x > 0.0f ? x : 0.0f; }));
  }
  Tensor av = a.value();
  return make_op_node(
      std::move(out), {a.node()},
      [av](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(av.shape());
        const float* px = av.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < av.numel(); ++i)
          pdx[i] = px[i] > 0.0f ? pdy[i] : 0.0f;
        n.parents[0]->accumulate_grad(dx);
      },
      "relu");
}

Variable sigmoid(const Variable& a) {
  Tensor out(a.value().shape());
  vsigmoid(a.value().data(), out.data(), out.numel());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kSigmoid, {a.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 vsigmoid(ins[0]->data(), o.data(), o.numel());
               });
  }
  Tensor ov = out;  // handle shares storage; safe, value is never mutated
  return make_op_node(
      std::move(out), {a.node()},
      [ov](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(ov.shape());
        const float* py = ov.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < ov.numel(); ++i)
          pdx[i] = pdy[i] * py[i] * (1.0f - py[i]);
        n.parents[0]->accumulate_grad(dx);
      },
      "sigmoid");
}

Variable tanh_op(const Variable& a) {
  Tensor out(a.value().shape());
  vtanh(a.value().data(), out.data(), out.numel());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kTanh, {a.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 vtanh(ins[0]->data(), o.data(), o.numel());
               });
  }
  Tensor ov = out;
  return make_op_node(
      std::move(out), {a.node()},
      [ov](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(ov.shape());
        const float* py = ov.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < ov.numel(); ++i)
          pdx[i] = pdy[i] * (1.0f - py[i] * py[i]);
        n.parents[0]->accumulate_grad(dx);
      },
      "tanh");
}

Variable sign_ste(const Variable& a, float ste_clip) {
  RIPPLE_CHECK(ste_clip > 0.0f) << "sign_ste clip must be positive";
  Tensor out = ops::sign(a.value());
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kSign, {a.value()}, out,
               unary_fn([](float x) { return x < 0.0f ? -1.0f : 1.0f; }));
  }
  Tensor av = a.value();
  return make_op_node(
      std::move(out), {a.node()},
      [av, ste_clip](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        Tensor dx(av.shape());
        const float* px = av.data();
        const float* pdy = n.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < av.numel(); ++i)
          pdx[i] = std::fabs(px[i]) <= ste_clip ? pdy[i] : 0.0f;
        n.parents[0]->accumulate_grad(dx);
      },
      "sign_ste");
}

Variable reshape(const Variable& a, Shape new_shape) {
  Shape old_shape = a.shape();
  Tensor out = a.value().reshaped(std::move(new_shape));
  if (deploy::active_trace() != nullptr) {
    // The graph op aliases storage; the plan gives the reshape its own
    // buffer, so the executor copies (the compiler refuses aliased views).
    trace_step(deploy::OpTag::kReshape, {a.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 std::memcpy(o.data(), ins[0]->data(),
                             sizeof(float) * static_cast<size_t>(o.numel()));
               });
  }
  return make_op_node(
      std::move(out), {a.node()},
      [old_shape](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        n.parents[0]->accumulate_grad(n.grad.reshaped(old_shape));
      },
      "reshape");
}

Variable concat_channels(const Variable& a0, const Variable& b0) {
  const auto& [a, b] = align_stem_rows(a0, b0);
  Tensor out = ops::concat_channels(a.value(), b.value());
  const int64_t ca = a.dim(1);
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kConcat, {a.value(), b.value()}, out,
               [](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& a = *ins[0];
                 const Tensor& b = *ins[1];
                 const int64_t n = a.dim(0);
                 const int64_t slab_a = a.numel() / n;
                 const int64_t slab_b = b.numel() / n;
                 const float* pa = a.data();
                 const float* pb = b.data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i) {
                   float* row = po + i * (slab_a + slab_b);
                   std::memcpy(row, pa + i * slab_a,
                               sizeof(float) * static_cast<size_t>(slab_a));
                   std::memcpy(row + slab_a, pb + i * slab_b,
                               sizeof(float) * static_cast<size_t>(slab_b));
                 }
               });
  }
  return make_op_node(
      std::move(out), {a.node(), b.node()},
      [ca](Node& n) {
        auto [ga, gb] = ops::split_channels(n.grad, ca);
        if (n.parents[0]->requires_grad) n.parents[0]->accumulate_grad(ga);
        if (n.parents[1]->requires_grad) n.parents[1]->accumulate_grad(gb);
      },
      "concat_channels");
}

Variable slice_cols(const Variable& a, int64_t begin, int64_t end) {
  RIPPLE_CHECK(a.value().rank() == 2) << "slice_cols needs [N,F]";
  const int64_t n = a.dim(0);
  const int64_t f = a.dim(1);
  RIPPLE_CHECK(0 <= begin && begin < end && end <= f)
      << "slice_cols range [" << begin << "," << end << ") invalid for " << f
      << " columns";
  const int64_t w = end - begin;
  Tensor out({n, w});
  const float* pa = a.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i)
    std::copy(pa + i * f + begin, pa + i * f + end, po + i * w);
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kSliceCols, {a.value()}, out,
               [begin, end](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t n = x.dim(0);
                 const int64_t f = x.dim(1);
                 const int64_t w = end - begin;
                 const float* pa = x.data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i)
                   std::copy(pa + i * f + begin, pa + i * f + end, po + i * w);
               },
               begin, end);
  }
  return make_op_node(
      std::move(out), {a.node()},
      [n, f, begin, w](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx({n, f});
        const float* pdy = nd.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < n; ++i)
          std::copy(pdy + i * w, pdy + (i + 1) * w, pdx + i * f + begin);
        nd.parents[0]->accumulate_grad(dx);
      },
      "slice_cols");
}

Variable select_time(const Variable& a, int64_t t) {
  RIPPLE_CHECK(a.value().rank() == 3) << "select_time needs [N,T,F]";
  const int64_t n = a.dim(0);
  const int64_t steps = a.dim(1);
  const int64_t f = a.dim(2);
  RIPPLE_CHECK(t >= 0 && t < steps)
      << "time index " << t << " out of range for " << steps << " steps";
  Tensor out({n, f});
  const float* pa = a.value().data();
  float* po = out.data();
  for (int64_t i = 0; i < n; ++i)
    std::copy(pa + (i * steps + t) * f, pa + (i * steps + t + 1) * f,
              po + i * f);
  if (deploy::active_trace() != nullptr) {
    trace_step(deploy::OpTag::kSelectTime, {a.value()}, out,
               [t](const Tensor* const* ins, int, Tensor& o) {
                 const Tensor& x = *ins[0];
                 const int64_t n = x.dim(0);
                 const int64_t steps = x.dim(1);
                 const int64_t f = x.dim(2);
                 const float* pa = x.data();
                 float* po = o.data();
                 for (int64_t i = 0; i < n; ++i)
                   std::copy(pa + (i * steps + t) * f,
                             pa + (i * steps + t + 1) * f, po + i * f);
               },
               t);
  }
  return make_op_node(
      std::move(out), {a.node()},
      [n, steps, f, t](Node& nd) {
        if (!nd.parents[0]->requires_grad) return;
        Tensor dx({n, steps, f});
        const float* pdy = nd.grad.data();
        float* pdx = dx.data();
        for (int64_t i = 0; i < n; ++i)
          std::copy(pdy + i * f, pdy + (i + 1) * f,
                    pdx + (i * steps + t) * f);
        nd.parents[0]->accumulate_grad(dx);
      },
      "select_time");
}

Variable sum_all(const Variable& a) {
  Tensor out = Tensor::scalar(ops::sum(a.value()));
  Shape in_shape = a.shape();
  return make_op_node(
      std::move(out), {a.node()},
      [in_shape](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        n.parents[0]->accumulate_grad(
            Tensor::full(in_shape, n.grad.item()));
      },
      "sum_all");
}

Variable mean_all(const Variable& a) {
  const auto count = static_cast<float>(a.numel());
  Tensor out = Tensor::scalar(ops::mean(a.value()));
  Shape in_shape = a.shape();
  return make_op_node(
      std::move(out), {a.node()},
      [in_shape, count](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        n.parents[0]->accumulate_grad(
            Tensor::full(in_shape, n.grad.item() / count));
      },
      "mean_all");
}

Variable apply_mask(const Variable& x, const Tensor& mask, float keep_scale) {
  RIPPLE_CHECK(mask.same_shape(x.value()))
      << "apply_mask shape mismatch: " << shape_to_string(mask.shape())
      << " vs " << shape_to_string(x.value().shape());
  Tensor scaled_mask = ops::mul_scalar(mask, keep_scale);
  Tensor out = ops::mul(x.value(), scaled_mask);
  if (deploy::active_trace() != nullptr) {
    // The scaled mask is a deterministic draw of the session's mask stream,
    // so it becomes a plan constant (exact under replayed seeds).
    trace_step(deploy::OpTag::kApplyMask, {x.value(), scaled_mask}, out,
               binary_fn([](float x, float y) { return x * y; }));
  }
  return make_op_node(
      std::move(out), {x.node()},
      [scaled_mask](Node& n) {
        if (!n.parents[0]->requires_grad) return;
        n.parents[0]->accumulate_grad(ops::mul(n.grad, scaled_mask));
      },
      "apply_mask");
}

}  // namespace ripple::autograd
