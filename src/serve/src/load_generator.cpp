#include "gpufreq/serve/load_generator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "gpufreq/nn/network.hpp"
#include "gpufreq/nn/scaler.hpp"
#include "gpufreq/util/error.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/stats.hpp"

namespace gpufreq::serve {

std::vector<CatalogEntry> make_catalog(std::size_t n, const sim::GpuSpec& spec,
                                       std::uint64_t seed) {
  GPUFREQ_REQUIRE(n > 0, "make_catalog: need at least one entry");
  std::vector<CatalogEntry> catalog;
  catalog.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Forked per entry: entry k is bit-identical across catalogs of any
    // size >= k+1, and across processes (fleet nodes agree on the apps).
    Rng rng = Rng(seed).fork(i);
    CatalogEntry e;
    e.name = "synthetic-" + std::to_string(i);
    sim::CounterSet& c = e.counters;
    c.fp64_active = rng.uniform(0.0, 0.7);
    c.fp32_active = rng.uniform(0.0, 0.7 - c.fp64_active);
    c.sm_app_clock = spec.default_core_mhz;
    c.dram_active = rng.uniform(0.05, 0.9);
    c.gr_engine_active = rng.uniform(0.5, 1.0);
    c.gpu_utilization = rng.uniform(0.5, 1.0);
    c.sm_active = rng.uniform(0.5, 1.0);
    c.sm_occupancy = rng.uniform(0.2, 0.8);
    c.pcie_tx_bytes = rng.uniform(0.0, 2.0e9);
    c.pcie_rx_bytes = rng.uniform(0.0, 2.0e9);
    e.measured_time_at_max_s = rng.uniform(1.0, 20.0);
    c.exec_time = e.measured_time_at_max_s;
    c.power_usage = rng.uniform(0.3, 1.0) * spec.tdp_w;
    catalog.push_back(std::move(e));
  }
  return catalog;
}

std::shared_ptr<const core::PowerTimeModels> fabricate_models(std::uint64_t seed,
                                                              const core::FeatureConfig& features) {
  GPUFREQ_REQUIRE(features.dim() > 0, "fabricate_models: empty feature set");
  auto models = std::make_shared<core::PowerTimeModels>();
  models->features = features;

  Rng rng(seed);
  const auto fabricate = [&](core::DnnModel& model, core::Target target, std::uint64_t net_seed) {
    nn::ModelBundle bundle;
    bundle.network = nn::Network(
        features.dim(), nn::Network::paper_architecture(3, 64, nn::Activation::kSelu), net_seed);
    // Fit the scalers on synthetic rows so transforms are well defined.
    nn::Matrix x(64, features.dim());
    for (float& v : x.flat()) v = static_cast<float>(rng.normal());
    bundle.input_scaler.fit(x);
    nn::Matrix y(64, 1);
    for (float& v : y.flat()) v = static_cast<float>(rng.normal(0.7, 0.2));
    bundle.target_scaler.fit(y);
    model.restore(std::move(bundle), target);
  };
  fabricate(models->power, core::Target::kPower, rng.next_u64());
  fabricate(models->time, core::Target::kTime, rng.next_u64());
  return models;
}

LoadReport run_open_loop(SweepService& service, const LoadSpec& spec) {
  GPUFREQ_REQUIRE(spec.rate_hz > 0.0, "run_open_loop: rate must be positive");
  GPUFREQ_REQUIRE(spec.duration_s > 0.0, "run_open_loop: duration must be positive");
  GPUFREQ_REQUIRE(spec.catalog_size > 0, "run_open_loop: empty catalog");
  GPUFREQ_REQUIRE(spec.interactive_frac >= 0.0 && spec.system_frac >= 0.0 &&
                      spec.interactive_frac + spec.system_frac <= 1.0,
                  "run_open_loop: category fractions must be a sub-distribution");
  GPUFREQ_REQUIRE(spec.zipf_s >= 0.0, "run_open_loop: zipf_s must be non-negative");
  GPUFREQ_REQUIRE(service.running(),
                  "run_open_loop: start() the service before generating load");

  const std::vector<CatalogEntry> catalog =
      make_catalog(spec.catalog_size, service.spec(), Rng::hash_combine(spec.seed, 0xCA7A106));

  // Zipf(s) CDF over catalog rank (computed once; empty when uniform).
  // Inverse-CDF sampling keeps the whole arrival schedule a pure function
  // of the seed, exactly like the uniform path.
  std::vector<double> zipf_cdf;
  if (spec.zipf_s > 0.0) {
    zipf_cdf.reserve(catalog.size());
    double total = 0.0;
    for (std::size_t r = 0; r < catalog.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), spec.zipf_s);
      zipf_cdf.push_back(total);
    }
    for (double& c : zipf_cdf) c /= total;
  }

  // The full arrival schedule (times, apps, descriptors) is drawn up
  // front from the seed: the load is reproducible, only the wall-clock
  // pacing below is physical.
  Rng rng(spec.seed);
  struct Arrival {
    double at_s;
    std::size_t app;
    WorkloadDescriptor descriptor;
  };
  std::vector<Arrival> arrivals;
  for (double t = -std::log(1.0 - rng.uniform()) / spec.rate_hz; t < spec.duration_s;
       t += -std::log(1.0 - rng.uniform()) / spec.rate_hz) {
    Arrival a;
    a.at_s = t;
    a.app = zipf_cdf.empty()
                ? rng.uniform_index(catalog.size())
                : static_cast<std::size_t>(
                      std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), rng.uniform()) -
                      zipf_cdf.begin());
    const double u = rng.uniform();
    a.descriptor.category = u < spec.system_frac ? WorkloadCategory::kSystem
                            : u < spec.system_frac + spec.interactive_frac
                                ? WorkloadCategory::kInteractive
                                : WorkloadCategory::kBatch;
    a.descriptor.band = static_cast<int>(rng.uniform_index(kBandsPerCategory));
    arrivals.push_back(a);
  }

  std::vector<SweepTicket> tickets;
  tickets.reserve(arrivals.size());
  const auto start = std::chrono::steady_clock::now();
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(start + std::chrono::duration<double>(a.at_s));
    SweepRequest req;
    req.descriptor = a.descriptor;
    req.counters = catalog[a.app].counters;
    req.measured_time_at_max_s = catalog[a.app].measured_time_at_max_s;
    tickets.push_back(service.submit(std::move(req)));
  }

  // Drain the tail, then fold latencies per category.
  std::array<std::vector<double>, kWorkloadCategories> latencies_ms;
  for (const SweepTicket& ticket : tickets) {
    const SweepOutcome& outcome = ticket.wait();
    const auto cat = static_cast<std::size_t>(ticket.descriptor().category);
    latencies_ms[cat].push_back(outcome.total_latency_s * 1e3);
  }
  const auto end = std::chrono::steady_clock::now();

  LoadReport report;
  report.submitted = tickets.size();
  report.completed = tickets.size();
  report.wall_s = std::chrono::duration<double>(end - start).count();
  report.throughput_rps = report.wall_s > 0.0 ? static_cast<double>(report.completed) / report.wall_s : 0.0;
  for (std::size_t cat = kWorkloadCategories; cat-- > 0;) {  // most urgent first
    BandLoadStats b;
    b.band = std::string(to_string(static_cast<WorkloadCategory>(cat)));
    b.completed = latencies_ms[cat].size();
    if (!latencies_ms[cat].empty()) {
      b.p50_latency_ms = stats::percentile(latencies_ms[cat], 50.0);
      b.p99_latency_ms = stats::percentile(latencies_ms[cat], 99.0);
      b.p999_latency_ms = stats::percentile(latencies_ms[cat], 99.9);
    }
    report.bands.push_back(std::move(b));
  }
  report.service = service.stats();
  return report;
}

}  // namespace gpufreq::serve
