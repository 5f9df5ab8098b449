#include "gpufreq/core/models.hpp"

#include "gpufreq/util/error.hpp"

namespace gpufreq::core {

ModelConfig ModelConfig::paper_power_model() {
  ModelConfig c;
  c.epochs = 100;  // Figure 6(a): power-model loss flattens by ~100 epochs
  return c;
}

ModelConfig ModelConfig::paper_time_model() {
  ModelConfig c;
  c.epochs = 25;  // Figure 6(b): time model converges by ~25 epochs
  return c;
}

nn::TrainHistory DnnModel::train(const Dataset& dataset, Target target,
                                 const ModelConfig& config) {
  GPUFREQ_REQUIRE(dataset.size() > 0, "DnnModel::train: empty dataset");
  target_ = target;

  bundle_.input_scaler = nn::StandardScaler();
  bundle_.input_scaler.fit(dataset.x);
  const nn::Matrix x = bundle_.input_scaler.transform(dataset.x);

  const nn::Matrix y_raw =
      target == Target::kPower ? dataset.power_targets() : dataset.slowdown_targets();
  bundle_.target_scaler = nn::StandardScaler();
  bundle_.target_scaler.fit(y_raw);
  const nn::Matrix y = bundle_.target_scaler.transform(y_raw);

  bundle_.network = nn::Network(
      dataset.x.cols(),
      nn::Network::paper_architecture(config.hidden_layers, config.hidden_units,
                                      config.activation),
      config.seed);

  nn::TrainConfig tc;
  tc.epochs = config.epochs;
  tc.batch_size = config.batch_size;
  tc.validation_split = config.validation_split;
  tc.optimizer = config.optimizer;
  tc.learning_rate = config.learning_rate;
  tc.shuffle_seed = config.seed ^ 0x9e3779b97f4a7c15ULL;

  const nn::Trainer trainer(tc);
  const nn::TrainHistory history = trainer.fit(bundle_.network, x, y);
  // Weights are final: pack them for the fused inference kernel while the
  // model is still exclusively owned by this thread, rather than lazily
  // on a serving thread.
  bundle_.network.prepare_inference();
  trained_ = true;
  return history;
}

std::vector<double> DnnModel::predict(const nn::Matrix& x) const {
  static thread_local Workspace ws;
  std::vector<double> out(x.rows());
  predict_into(x, ws, out);
  return out;
}

void DnnModel::predict_into(const nn::Matrix& x, Workspace& ws,
                            std::span<double> out) const {
  GPUFREQ_REQUIRE(trained_, "DnnModel::predict: model not trained");
  const nn::StandardScaler& ts = bundle_.target_scaler;
  GPUFREQ_REQUIRE(ts.fitted() && ts.dim() == 1,
                  "DnnModel::predict: target scaler not fitted for one output");
  bundle_.input_scaler.transform_into(x, ws.scaled);
  bundle_.network.predict_vector_into(ws.scaled, ws.net, out);
  // Inverse target transform, elementwise through the same float rounding
  // as StandardScaler::inverse_transform so results match predict() bit
  // for bit.
  const double mean = ts.means()[0];
  const double stddev = ts.stddevs()[0];
  for (double& v : out) v = static_cast<double>(static_cast<float>(v * stddev + mean));
}

void DnnModel::reserve_workspace(Workspace& ws, std::size_t max_rows) const {
  GPUFREQ_REQUIRE(trained_, "DnnModel::reserve_workspace: model not trained");
  ws.scaled.reserve(max_rows, bundle_.network.input_dim());
  bundle_.network.reserve_workspace(ws.net, max_rows);
}

double DnnModel::predict_one(std::span<const float> x) const {
  nn::Matrix m(1, x.size());
  std::copy(x.begin(), x.end(), m.row(0).begin());
  return predict(m).front();
}

void DnnModel::restore(nn::ModelBundle bundle, Target target) {
  bundle_ = std::move(bundle);
  bundle_.network.prepare_inference();
  target_ = target;
  trained_ = true;
}

}  // namespace gpufreq::core
