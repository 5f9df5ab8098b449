#include "gpufreq/nn/network.hpp"

#include <algorithm>
#include <utility>

#include "gpufreq/util/error.hpp"
#include "gpufreq/util/hot_path.hpp"
#include "gpufreq/util/thread_pool.hpp"

namespace gpufreq::nn {

Network::Network(std::size_t input_dim, const std::vector<LayerSpec>& layers,
                 std::uint64_t seed) {
  GPUFREQ_REQUIRE(input_dim > 0, "Network: input_dim must be positive");
  GPUFREQ_REQUIRE(!layers.empty(), "Network: at least one layer required");
  Rng rng(seed);
  std::size_t in = input_dim;
  layers_.reserve(layers.size());
  for (const LayerSpec& spec : layers) {
    GPUFREQ_REQUIRE(spec.units > 0, "Network: layer units must be positive");
    layers_.emplace_back(in, spec.units, spec.activation);
    layers_.back().init_lecun_normal(rng);
    in = spec.units;
  }
}

Network::Network(std::vector<DenseLayer> layers) : layers_(std::move(layers)) {
  GPUFREQ_REQUIRE(!layers_.empty(), "Network: at least one layer required");
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    GPUFREQ_REQUIRE(layers_[i].in_dim() == layers_[i - 1].out_dim(),
                    "Network: layer input width must equal the previous layer's output width");
  }
}

std::size_t Network::input_dim() const {
  GPUFREQ_REQUIRE(!layers_.empty(), "Network: empty network");
  return layers_.front().in_dim();
}

std::size_t Network::output_dim() const {
  GPUFREQ_REQUIRE(!layers_.empty(), "Network: empty network");
  return layers_.back().out_dim();
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.weights().size() + l.bias().size();
  return n;
}

namespace {
// Workspace behind the workspace-less convenience overloads. Thread-local
// so concurrent predict() calls on different threads never share buffers.
InferenceWorkspace& fallback_workspace() {
  static thread_local InferenceWorkspace ws;
  return ws;
}

// Rows per chunk of the chunk-major forward: the same 48-row grain gemm
// uses, a multiple of every backend's register-tile height. Chunk
// boundaries depend only on the batch size, so results never depend on
// the thread count.
constexpr std::size_t kChunkRows = 48;

std::size_t chunk_count(std::size_t rows) { return (rows + kChunkRows - 1) / kChunkRows; }

// Bands the forward splits `rows` into: one per pool thread, but never
// more than there are chunks. Each band owns one tile region, so this is
// also the number of regions the workspace holds.
std::size_t band_count(std::size_t rows) { return std::min(num_threads(), chunk_count(rows)); }

// Widest hidden (non-final) layer: the row stride of one activation tile.
std::size_t hidden_width(const std::vector<DenseLayer>& layers) {
  std::size_t width = 0;
  for (std::size_t i = 0; i + 1 < layers.size(); ++i) {
    width = std::max(width, layers[i].out_dim());
  }
  return width;
}

}  // namespace

const Matrix& Network::predict_into(const Matrix& x, InferenceWorkspace& ws) const {
  GPUFREQ_HOT("gpufreq::nn::Network::predict_into");
  GPUFREQ_REQUIRE(!layers_.empty(), "Network::predict: empty network");
  GPUFREQ_REQUIRE(x.rows() > 0, "Network::predict: empty batch");
  GPUFREQ_REQUIRE(x.cols() == input_dim(), "Network::predict: input width mismatch");
  const std::size_t rows = x.rows();
  const std::size_t width = hidden_width(layers_);
  const std::size_t chunks = chunk_count(rows);
  const std::size_t bands = band_count(rows);
  ws.out_.resize_uninit(rows, output_dim());
  // One region of two 48-row tiles per band, however many rows there are.
  const std::size_t region = 2 * kChunkRows * width;
  if (ws.tiles_.size() < bands * region) ws.tiles_.resize_uninit(bands * 2 * kChunkRows, width);

  const std::size_t in_dim = input_dim();
  const std::size_t out_dim = output_dim();
  const std::size_t last = layers_.size() - 1;
  const float* X = x.flat().data();
  float* Y = ws.out_.flat().data();
  float* tiles = ws.tiles_.flat().data();
  // Depth-first: each chunk's activations stay in its band's L1-sized
  // region from layer to layer instead of streaming a rows x width matrix
  // through L2 once per layer. Band b walks chunks [b*chunks/bands,
  // (b+1)*chunks/bands) in order through region b. Chunks start on fixed
  // 48-row boundaries and the kernels are row-local, so each output
  // element sees the same op sequence as a layer-by-layer pass over the
  // whole batch, whatever the band count.
  parallel_for(0, bands, 1, [&](std::size_t band, std::size_t) {
    float* const tile[2] = {tiles + band * region, tiles + band * region + kChunkRows * width};
    const std::size_t end = std::min(rows, (band + 1) * chunks / bands * kChunkRows);
    for (std::size_t lo = band * chunks / bands * kChunkRows; lo < end; lo += kChunkRows) {
      const std::size_t n = std::min(kChunkRows, end - lo);
      const float* in = X + lo * in_dim;
      for (std::size_t i = 0; i <= last; ++i) {
        float* out = i == last ? Y + lo * out_dim : tile[i & 1];
        layers_[i].forward_rows(in, out, n);
        in = out;
      }
    }
  });
  return ws.out_;
}

Matrix Network::predict(const Matrix& x) const { return predict_into(x, fallback_workspace()); }

std::vector<double> Network::predict_vector(const Matrix& x) const {
  std::vector<double> out(x.rows());
  predict_vector_into(x, fallback_workspace(), out);
  return out;
}

void Network::predict_vector_into(const Matrix& x, InferenceWorkspace& ws,
                                  std::span<double> out) const {
  GPUFREQ_HOT("gpufreq::nn::Network::predict_vector_into");
  GPUFREQ_REQUIRE(output_dim() == 1, "Network::predict_vector: network is not single-output");
  GPUFREQ_REQUIRE(out.size() == x.rows(), "Network::predict_vector: output size mismatch");
  const Matrix& y = predict_into(x, ws);
  for (std::size_t i = 0; i < y.rows(); ++i) out[i] = y(i, 0);
}

void Network::reserve_workspace(InferenceWorkspace& ws, std::size_t max_rows) const {
  ws.out_.reserve(max_rows, output_dim());
  ws.tiles_.reserve(band_count(max_rows) * 2 * kChunkRows, hidden_width(layers_));
}

void Network::bind_optimizer(Optimizer& opt) {
  for (auto& l : layers_) l.register_params(opt);
}

double Network::train_step(const Matrix& x, const Matrix& y, Loss loss, Optimizer& opt) {
  GPUFREQ_REQUIRE(x.rows() == y.rows(), "train_step: batch size mismatch");
  fwd_.resize(layers_.size());
  const Matrix* cur = &x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    layers_[i].forward(*cur, fwd_[i]);
    cur = &fwd_[i];
  }
  const double batch_loss = compute_loss(loss, *cur, y);
  loss_gradient(loss, *cur, y, grad_);
  for (std::size_t i = layers_.size(); i-- > 0;) {
    layers_[i].backward(grad_, i == 0 ? nullptr : &dx_);
    std::swap(grad_, dx_);
  }
  for (auto& l : layers_) l.apply_gradients(opt);
  opt.tick();
  return batch_loss;
}

double Network::evaluate(const Matrix& x, const Matrix& y, Loss loss) const {
  return compute_loss(loss, predict_into(x, fallback_workspace()), y);
}

std::vector<LayerSpec> Network::paper_architecture(std::size_t hidden_layers,
                                                   std::size_t units, Activation act) {
  std::vector<LayerSpec> specs;
  for (std::size_t i = 0; i < hidden_layers; ++i) specs.push_back({units, act});
  specs.push_back({1, Activation::kLinear});
  return specs;
}

}  // namespace gpufreq::nn
