#include "gpufreq/nn/serialize.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <istream>
#include <ostream>
#include <span>
#include <utility>

#include "gpufreq/util/error.hpp"

namespace gpufreq::nn {

namespace {
constexpr std::uint32_t kMagic = 0x4746'4e4eu;  // "GFNN"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!is) throw ParseError("model: truncated stream");
  return v;
}

void write_doubles(std::ostream& os, const std::vector<double>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(double)));
}

std::vector<double> read_doubles(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > (1u << 24)) throw ParseError("model: implausible vector size");
  std::vector<double> v(n);
  is.read(reinterpret_cast<char*>(v.data()), static_cast<std::streamsize>(n * sizeof(double)));
  if (!is) throw ParseError("model: truncated stream");
  return v;
}

// Read a weight or bias payload straight into the layer's storage.
void read_finite_floats(std::istream& is, std::span<float> dst, const char* non_finite) {
  is.read(reinterpret_cast<char*>(dst.data()),
          static_cast<std::streamsize>(dst.size() * sizeof(float)));
  if (!is) throw ParseError("model: truncated weights");
  for (float v : dst) {
    if (!std::isfinite(v)) throw ParseError(non_finite);
  }
}

void write_scaler(std::ostream& os, const StandardScaler& s) {
  write_pod(os, static_cast<std::uint8_t>(s.fitted() ? 1 : 0));
  if (s.fitted()) {
    write_doubles(os, s.means());
    write_doubles(os, s.stddevs());
  }
}

StandardScaler read_scaler(std::istream& is) {
  StandardScaler s;
  if (read_pod<std::uint8_t>(is) != 0) {
    auto means = read_doubles(is);
    auto stds = read_doubles(is);
    s.restore(std::move(means), std::move(stds));
  }
  return s;
}
}  // namespace

void save_model(const ModelBundle& bundle, std::ostream& os) {
  const Network& net = bundle.network;
  write_pod(os, kMagic);
  write_pod(os, kVersion);
  write_pod(os, static_cast<std::uint64_t>(net.input_dim()));
  write_pod(os, static_cast<std::uint64_t>(net.num_layers()));
  for (std::size_t i = 0; i < net.num_layers(); ++i) {
    const DenseLayer& l = net.layer(i);
    write_pod(os, static_cast<std::uint64_t>(l.out_dim()));
    write_pod(os, static_cast<std::uint32_t>(l.activation()));
    const auto w = l.weights().flat();
    os.write(reinterpret_cast<const char*>(w.data()),
             static_cast<std::streamsize>(w.size() * sizeof(float)));
    os.write(reinterpret_cast<const char*>(l.bias().data()),
             static_cast<std::streamsize>(l.bias().size() * sizeof(float)));
  }
  write_scaler(os, bundle.input_scaler);
  write_scaler(os, bundle.target_scaler);
  if (!os) throw IoError("model: write failed");
}

void save_model(const ModelBundle& bundle, const std::string& path) {
  std::ofstream ofs(path, std::ios::binary);
  if (!ofs) throw IoError("model: cannot open '" + path + "' for writing");
  save_model(bundle, ofs);
}

ModelBundle load_model(std::istream& is) {
  if (read_pod<std::uint32_t>(is) != kMagic) throw ParseError("model: bad magic");
  if (read_pod<std::uint32_t>(is) != kVersion) throw ParseError("model: unsupported version");
  const auto input_dim = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  const auto n_layers = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
  if (input_dim == 0 || n_layers == 0 || n_layers > 1024) {
    throw ParseError("model: implausible architecture");
  }

  std::vector<DenseLayer> layers;
  layers.reserve(n_layers);
  std::size_t in = input_dim;
  for (std::size_t i = 0; i < n_layers; ++i) {
    const auto units = static_cast<std::size_t>(read_pod<std::uint64_t>(is));
    const auto act_id = read_pod<std::uint32_t>(is);
    if (units == 0 || units > (1u << 20)) throw ParseError("model: implausible layer width");
    if (act_id > static_cast<std::uint32_t>(Activation::kSoftsign))
      throw ParseError("model: unknown activation");
    const auto act = static_cast<Activation>(act_id);
    DenseLayer& layer = layers.emplace_back(in, units, act);
    read_finite_floats(is, layer.weights().flat(), "model: non-finite weight payload");
    read_finite_floats(is, layer.bias(), "model: non-finite bias payload");
    in = units;
  }

  ModelBundle bundle;
  bundle.network = Network(std::move(layers));
  bundle.input_scaler = read_scaler(is);
  bundle.target_scaler = read_scaler(is);
  return bundle;
}

ModelBundle load_model(const std::string& path) {
  std::ifstream ifs(path, std::ios::binary);
  if (!ifs) throw IoError("model: cannot open '" + path + "' for reading");
  return load_model(ifs);
}

}  // namespace gpufreq::nn
