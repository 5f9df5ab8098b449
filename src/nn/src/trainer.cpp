#include "gpufreq/nn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "gpufreq/nn/optimizer.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/logging.hpp"
#include "gpufreq/util/rng.hpp"

namespace gpufreq::nn {

Trainer::Trainer(TrainConfig config) : config_(std::move(config)) {
  GPUFREQ_REQUIRE(config_.epochs > 0, "Trainer: epochs must be positive");
  GPUFREQ_REQUIRE(config_.batch_size > 0, "Trainer: batch size must be positive");
  GPUFREQ_REQUIRE(config_.validation_split >= 0.0 && config_.validation_split < 1.0,
                  "Trainer: validation_split out of [0,1)");
}

namespace {
Matrix gather_rows(const Matrix& src, const std::vector<std::size_t>& idx,
                   std::size_t begin, std::size_t end) {
  Matrix out(end - begin, src.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = src.row(idx[i]);
    std::copy(row.begin(), row.end(), out.row(i - begin).begin());
  }
  return out;
}

// Gather src rows order[batch_order[begin..end)] into the pre-sized scratch
// `out`. Composing the two permutations here avoids both the materialized
// x_train/y_train copies and the per-batch allocations of the old
// gather-of-a-gather: once the scratch reaches the full batch size, an
// epoch of minibatches performs zero heap allocations.
void gather_batch(const Matrix& src, const std::vector<std::size_t>& order,
                  const std::vector<std::size_t>& batch_order, std::size_t begin,
                  std::size_t end, Matrix& out) {
  out.resize_uninit(end - begin, src.cols());
  for (std::size_t i = begin; i < end; ++i) {
    const auto row = src.row(order[batch_order[i]]);
    std::copy(row.begin(), row.end(), out.row(i - begin).begin());
  }
}
}  // namespace

TrainHistory Trainer::fit(Network& net, const Matrix& x, const Matrix& y) const {
  GPUFREQ_REQUIRE(x.rows() == y.rows(), "Trainer::fit: row count mismatch");
  GPUFREQ_REQUIRE(x.rows() >= 2, "Trainer::fit: need at least two rows");
  GPUFREQ_REQUIRE(x.cols() == net.input_dim(), "Trainer::fit: feature width mismatch");
  GPUFREQ_REQUIRE(y.cols() == net.output_dim(), "Trainer::fit: target width mismatch");

  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(config_.shuffle_seed);

  // Hold-out split: shuffle once, take the tail as validation.
  std::vector<std::size_t> order = rng.permutation(x.rows());
  auto n_val = static_cast<std::size_t>(config_.validation_split * static_cast<double>(x.rows()));
  if (config_.validation_split > 0.0 && n_val == 0) n_val = 1;
  const std::size_t n_train = x.rows() - n_val;
  GPUFREQ_REQUIRE(n_train > 0, "Trainer::fit: validation split leaves no training data");

  // Only the validation split is materialized (it is reused every epoch);
  // training minibatches are gathered straight from x/y through the
  // composed permutation order∘batch_order.
  Matrix x_val, y_val;
  if (n_val > 0) {
    x_val = gather_rows(x, order, n_train, x.rows());
    y_val = gather_rows(y, order, n_train, x.rows());
  }

  auto opt = make_optimizer(config_.optimizer, config_.learning_rate);
  net.bind_optimizer(*opt);

  TrainHistory history;
  history.train_loss.reserve(config_.epochs);
  history.val_loss.reserve(config_.epochs);

  std::vector<std::size_t> batch_order(n_train);
  for (std::size_t i = 0; i < n_train; ++i) batch_order[i] = i;

  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;

  Matrix xb, yb;  // batch scratch, reused across every epoch
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    if (config_.shuffle_each_epoch) rng.permutation(batch_order);

    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t start = 0; start < n_train; start += config_.batch_size) {
      const std::size_t end = std::min(start + config_.batch_size, n_train);
      gather_batch(x, order, batch_order, start, end, xb);
      gather_batch(y, order, batch_order, start, end, yb);
      const double batch_loss = net.train_step(xb, yb, config_.loss, *opt);
      if (!std::isfinite(batch_loss)) {
        throw NumericError("gpufreq: Trainer::fit diverged: non-finite " +
                           std::string(to_string(config_.loss)) + " loss " +
                           std::to_string(batch_loss) + " at epoch " + std::to_string(epoch + 1) +
                           "/" + std::to_string(config_.epochs) + ", batch " +
                           std::to_string(batches + 1) + " (rows [" + std::to_string(start) + "," +
                           std::to_string(end) + ") of " + std::to_string(n_train) +
                           "); try a lower learning rate");
      }
      epoch_loss += batch_loss;
      ++batches;
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, batches));
    history.train_loss.push_back(epoch_loss);

    double val_loss = epoch_loss;
    if (n_val > 0) {
      val_loss = net.evaluate(x_val, y_val, config_.loss);
      GPUFREQ_CHECK_FINITE(val_loss);
    }
    history.val_loss.push_back(val_loss);
    history.epochs_run = epoch + 1;

    if (config_.verbose) {
      log::info("nn") << "epoch " << epoch + 1 << "/" << config_.epochs
                      << " train=" << epoch_loss << " val=" << val_loss;
    }

    if (config_.early_stop_patience > 0) {
      if (val_loss < best_val - 1e-12) {
        best_val = val_loss;
        since_best = 0;
      } else if (++since_best >= config_.early_stop_patience) {
        break;
      }
    }
  }

  history.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return history;
}

}  // namespace gpufreq::nn
