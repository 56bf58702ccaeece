#include "models/model.hpp"

namespace parsgd {

double Model::dataset_loss(const TrainData& data, std::span<const real_t> w,
                           bool prefer_dense) const {
  double total = 0;
  for (std::size_t i = 0; i < data.n(); ++i) {
    total += example_loss(data.example(i, prefer_dense), data.y[i], w);
  }
  return total;
}

}  // namespace parsgd
