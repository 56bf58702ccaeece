#include "models/linear.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace parsgd {

std::vector<real_t> LinearModel::init_params(std::uint64_t seed) const {
  // Small deterministic init; zero would also do for convex objectives but
  // a nonzero start exercises more of the code paths in tests.
  Rng rng(seed);
  std::vector<real_t> w(dim());
  for (auto& v : w) v = static_cast<real_t>(rng.normal(0.0, 0.01));
  return w;
}

double LinearModel::example_loss(const ExampleView& x, real_t y,
                                 std::span<const real_t> w) const {
  return margin_loss(x.dot(w), y);
}

void LinearModel::example_step(const ExampleView& x, real_t y, real_t alpha,
                               std::span<const real_t> w_read,
                               std::span<real_t> w_write,
                               std::vector<index_t>* touched) const {
  const double z = x.dot(w_read);
  const double coef = margin_grad(z, y);
  if (coef != 0.0) {
    // w_write[j] -= alpha * coef * x[j] over stored entries. Note: reads
    // come from w_read (possibly a stale snapshot under Hogwild).
    x.for_each([&](index_t j, real_t v) {
      w_write[j] -= static_cast<real_t>(alpha * coef * v);
    });
  }
  if (touched != nullptr) {
    touched->clear();
    if (coef != 0.0) {
      x.for_each([&](index_t j, real_t) { touched->push_back(j); });
    }
  }
}

void LinearModel::batch_step(const TrainData& data, std::size_t begin,
                             std::size_t end, bool prefer_dense, real_t alpha,
                             std::span<const real_t> w_read,
                             std::span<real_t> w_write) const {
  const double scale =
      1.0 / static_cast<double>(end - begin);  // mean gradient
  std::vector<double> grad(dim(), 0.0);
  for (std::size_t i = begin; i < end; ++i) {
    const ExampleView x = data.example(i, prefer_dense);
    const double coef = margin_grad(x.dot(w_read), data.y[i]);
    if (coef == 0.0) continue;
    x.for_each([&](index_t j, real_t v) {
      grad[j] += coef * v;
    });
  }
  for (std::size_t j = 0; j < dim(); ++j) {
    if (grad[j] != 0.0) {
      w_write[j] -= static_cast<real_t>(alpha * scale * grad[j]);
    }
  }
}

double LinearModel::sync_epoch(linalg::Backend& backend,
                               const TrainData& data, bool use_dense,
                               real_t alpha, std::span<real_t> w) const {
  const std::size_t n = data.n();
  std::vector<real_t> z(n), coef(n), grad(dim(), 0);

  // z = X w
  if (use_dense && data.has_dense()) {
    backend.gemv(*data.dense, w, z, /*transpose=*/false);
  } else {
    backend.spmv(*data.sparse, w, z, /*transpose=*/false);
  }
  // coef_i = dloss/dz_i; loss as by-product
  const double loss = coefficients(backend, z, data.y, coef);
  // g = X^T coef
  if (use_dense && data.has_dense()) {
    backend.gemv(*data.dense, coef, grad, /*transpose=*/true);
  } else {
    backend.spmv(*data.sparse, coef, grad, /*transpose=*/true);
  }
  // w -= alpha/n * g  (mean gradient, matching batch_step)
  backend.axpy(static_cast<real_t>(-alpha / static_cast<double>(n)), grad,
               w);
  return loss;
}

double LinearModel::step_flops(std::size_t touched_features) const {
  // dot (2*nnz) + coefficient (~transcendental) + axpy (2*nnz)
  return 4.0 * static_cast<double>(touched_features) +
         linalg::kTranscendentalFlops;
}

// ---- LR ----

double LogisticRegression::margin_loss(double z, double y) const {
  const double yz = y * z;
  return yz > 0 ? std::log1p(std::exp(-yz)) : -yz + std::log1p(std::exp(yz));
}

double LogisticRegression::margin_grad(double z, double y) const {
  return -y / (1.0 + std::exp(y * z));
}

double LogisticRegression::coefficients(linalg::Backend& backend,
                                        std::span<const real_t> z,
                                        std::span<const real_t> y,
                                        std::span<real_t> coef) const {
  return backend.lr_loss_coefficients(z, y, coef);
}

// ---- SVM ----

double LinearSvm::margin_loss(double z, double y) const {
  return std::max(0.0, 1.0 - y * z);
}

double LinearSvm::margin_grad(double z, double y) const {
  return y * z < 1.0 ? -y : 0.0;
}

double LinearSvm::coefficients(linalg::Backend& backend,
                               std::span<const real_t> z,
                               std::span<const real_t> y,
                               std::span<real_t> coef) const {
  return backend.svm_loss_coefficients(z, y, coef);
}

}  // namespace parsgd
