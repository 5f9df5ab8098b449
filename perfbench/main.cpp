// The repository benchmark. Every workload runs the system's two phases
// through their public functions only:
//
//   1. calibration — dcgm::ProfilingSession::profile_suite over the 21
//      training workloads, core::build_dataset, DnnModel::train for power
//      and time, core::evaluate_suite on the 6 real applications;
//   2. serving — the calibrated models are saved, loaded back into a
//      serve::SweepService (timed as set-up), driven by an open loop of
//      Poisson arrivals, then by fixed backlogs drained at full speed.
//
// The workloads differ in their request traffic and in where the run's time
// goes; see README.md. The last stdout line is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gpufreq/core/evaluation.hpp"
#include "gpufreq/core/sweep_cache.hpp"
#include "gpufreq/dcgm/collection.hpp"
#include "gpufreq/nn/kernels/dispatch.hpp"
#include "gpufreq/nn/precision.hpp"
#include "gpufreq/nn/serialize.hpp"
#include "gpufreq/serve/sweep_service.hpp"
#include "gpufreq/util/rng.hpp"
#include "gpufreq/util/stats.hpp"
#include "gpufreq/util/thread_pool.hpp"
#include "gpufreq/workloads/registry.hpp"
#include "trace.hpp"
#include "traffic.hpp"

namespace perfbench {
namespace {

using namespace gpufreq;

// ---------------------------------------------------------------------------
// Fixed benchmark parameters (README.md explains each choice).

/// Thread pool size (caller included) for the whole run, so calibration,
/// the service worker's drains and the capacity drains each compute on one
/// thread. On a shared 4-vCPU host a 2-thread pool's cross-thread hand-offs
/// were the least steady figures (README.md, "Thread budget").
constexpr std::size_t kPoolThreads = 1;
/// In the traced run, per-request spans are kept for every kSpanStride-th
/// request; per-batch and per-phase spans are all kept.
constexpr std::int64_t kSpanStride = 8;
/// Length of one open-loop segment. Latency percentiles are the median over
/// segments, so a host stall burst moves the segments it falls in, not the
/// run's figure.
constexpr double kSegmentS = 0.5;
/// Every kCheckStride-th recorded request is re-computed independently.
constexpr std::size_t kCheckStride = 41;
/// A request not done this long after its due time counts as failed.
constexpr double kDeadlineS = 10.0;
/// A run is marked invalid when the generator's p50 lateness exceeds this
/// share of the decide p50 it is part of.
constexpr double kMaxLateShare = 0.25;
/// Requests regenerated from the seed to check the stream is deterministic.
constexpr std::size_t kDeterminismPrefix = 256;

struct WorkloadSpec {
  const char* name;
  TrafficKind traffic;
  /// Open-loop Poisson arrival rate (README.md: why they differ).
  double rate_hz;
  /// Requests per capacity backlog (one backlog drains in 30-200 ms at
  /// this workload's capacity).
  std::size_t backlog;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fleet_noisy", TrafficKind::kNoisyFleet, 1000.0, 2048},
    {"fleet_repeat", TrafficKind::kRepeatFleet, 20000.0, 8192},
};

// ---------------------------------------------------------------------------
// Small helpers.

double pct(const std::vector<double>& xs, double p) {
  return xs.empty() ? 0.0 : stats::percentile(xs, p);
}

double median_of(const std::vector<double>& xs) { return xs.empty() ? 0.0 : stats::median(xs); }

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

/// Run fn inside a span and return its wall time in seconds.
template <typename Fn>
double timed(Tracer& tracer, const char* name, std::int64_t parent, Fn&& fn) {
  const Scope span(tracer, name, parent);
  const auto t0 = Clock::now();
  fn();
  return seconds_between(t0, Clock::now());
}

/// Durations (seconds) of every recorded span with this name.
std::vector<double> span_seconds(const Tracer& tracer, const char* name) {
  std::vector<double> out;
  for (const Span& s : tracer.spans()) {
    if (std::strcmp(s.name, name) == 0) out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Sleep until 200 us before `due`, then spin: a plain sleep wakes tens of
/// microseconds late, which would be charged to every request's latency.
void pace_until(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(200);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

bool wait_done(const serve::SweepTicket& ticket, Clock::time_point deadline) {
  while (!ticket.done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  return true;
}

serve::SweepRequest to_sweep_request(const Request& r) {
  serve::SweepRequest req;
  req.descriptor = r.descriptor;
  req.counters = r.counters;
  req.measured_time_at_max_s = r.t_max_s;
  return req;  // empty grid: the service's default (the GPU's 61 configs)
}

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  double value = 0.0;
  const char* unit = "";
};

struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;

  void fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

// ---------------------------------------------------------------------------
// Phase 1: calibration.

/// The paper's offline phase on its fixed reference device; fills the
/// calibration metrics and returns the trained models.
core::PowerTimeModels calibrate(Tracer& tracer, Result& res) {
  const auto t0 = Clock::now();
  const Scope root(tracer, "calibrate");
  sim::GpuDevice device(sim::GpuSpec::ga100());
  const core::OfflineConfig cfg;  // 61 freqs x 3 runs, 100/25 epochs
  const dcgm::ProfilingSession session(device, cfg.collection);

  dcgm::CollectionResult campaign;
  const double profile_s = timed(tracer, "dcgm.profile_suite", root.id(), [&] {
    campaign = session.profile_suite(workloads::training_set());
  });
  core::Dataset dataset;
  const double dataset_s = timed(tracer, "core.build_dataset", root.id(), [&] {
    dataset = core::build_dataset(campaign, device.spec(), cfg.features);
  });
  core::PowerTimeModels models;
  models.features = cfg.features;
  const double train_power_s = timed(tracer, "core.train_power", root.id(), [&] {
    models.power_history = models.power.train(dataset, core::Target::kPower, cfg.power_model);
  });
  const double train_time_s = timed(tracer, "core.train_time", root.id(), [&] {
    models.time_history = models.time.train(dataset, core::Target::kTime, cfg.time_model);
  });
  std::vector<core::AppEvaluation> evals;
  const double evaluate_s = timed(tracer, "core.evaluate_suite", root.id(), [&] {
    evals = core::evaluate_suite(models, device, workloads::evaluation_set());
  });
  const double calibrate_s = seconds_between(t0, Clock::now());

  // Quality at the paper's P-ED2P pick, averaged over the six applications.
  // Sanity bars only: a model this far off is broken, not merely worse.
  double power_acc = 0.0, time_acc = 0.0, saving = 0.0, slowdown = 0.0;
  for (const core::AppEvaluation& e : evals) {
    ++res.attempted;
    const double sav = -e.measured_energy_change_pct(e.p_ed2p);
    const double slow = e.measured_time_change_pct(e.p_ed2p);
    const bool sane = std::isfinite(e.power_accuracy_pct) && std::isfinite(e.time_accuracy_pct) &&
                      e.power_accuracy_pct >= 75.0 && e.time_accuracy_pct >= 75.0 &&
                      std::isfinite(sav) && std::isfinite(slow);
    if (!sane) {
      ++res.failed;
      res.fail("calibration: implausible evaluation of " + e.app);
    }
    power_acc += e.power_accuracy_pct;
    time_acc += e.time_accuracy_pct;
    saving += sav;
    slowdown += slow;
  }
  const double n = static_cast<double>(evals.size());
  res.end_to_end["calibrate_s"] = {calibrate_s, "s"};
  res.end_to_end["power_acc_pct"] = {power_acc / n, "%"};
  res.end_to_end["time_acc_pct"] = {time_acc / n, "%"};
  res.end_to_end["ed2p_saving_pct"] = {saving / n, "%"};
  res.end_to_end["ed2p_slowdown_pct"] = {slowdown / n, "%"};

  const auto epochs =
      static_cast<double>(models.power_history.epochs_run + models.time_history.epochs_run);
  res.per_layer["dcgm.profile_suite_s"] = {profile_s, "s"};
  res.per_layer["core.build_dataset_s"] = {dataset_s, "s"};
  res.per_layer["core.train_power_s"] = {train_power_s, "s"};
  res.per_layer["core.train_time_s"] = {train_time_s, "s"};
  res.per_layer["nn.epoch_ms"] = {epochs > 0 ? (train_power_s + train_time_s) / epochs * 1e3 : 0.0,
                                  "ms"};
  res.per_layer["core.evaluate_s"] = {evaluate_s, "s"};
  return models;
}

// ---------------------------------------------------------------------------
// Phase 2: serving.

/// A running service and everything it borrows; members are destroyed in
/// reverse order, so the service stops before its models go away.
struct ServingStack {
  std::shared_ptr<const core::PowerTimeModels> models;
  std::unique_ptr<serve::ModelSnapshotHolder> holder;
  std::unique_ptr<serve::SweepService> service;
};

/// Bring a service up the way a deployment would: load the saved models,
/// build the snapshot holder and the service, start the worker and serve
/// one warm-up request.
ServingStack bring_up(const std::string& power_bytes, const std::string& time_bytes,
                      const core::FeatureConfig& features, const Request& warmup) {
  ServingStack stack;
  auto models = std::make_shared<core::PowerTimeModels>();
  models->features = features;
  std::istringstream power_in(power_bytes);
  models->power.restore(nn::load_model(power_in), core::Target::kPower);
  std::istringstream time_in(time_bytes);
  models->time.restore(nn::load_model(time_in), core::Target::kTime);
  stack.models = models;
  stack.holder = std::make_unique<serve::ModelSnapshotHolder>(stack.models);
  stack.service = std::make_unique<serve::SweepService>(*stack.holder, sim::GpuSpec::ga100());
  stack.service->start();
  stack.service->submit(to_sweep_request(warmup)).wait();
  return stack;
}

/// A served outcome kept for the independent re-computation.
struct Sample {
  std::size_t request = 0;
  serve::SweepTicket ticket;
};

/// Re-compute each sampled request with an independent predict_sweep on the
/// same models and compare bitwise. Returns the number of mismatches.
std::size_t check_samples(const ServingStack& stack, const std::vector<Request>& requests,
                          const std::vector<Sample>& samples) {
  const core::OnlinePredictor predictor(*stack.models);
  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const std::vector<double> grid = spec.used_frequencies();
  core::SweepWorkspace ws;
  std::size_t mismatches = 0;
  for (const Sample& s : samples) {
    if (!s.ticket.done()) continue;  // already counted as failed
    const Request& r = requests[s.request];
    predictor.predict_sweep(r.counters, r.t_max_s, spec, grid, ws);
    const serve::SweepOutcome& out = s.ticket.wait();
    const bool same = bits_equal(out.frequencies, ws.frequencies) &&
                      bits_equal(out.power_w, ws.power_w) && bits_equal(out.time_s, ws.time_s) &&
                      bits_equal(out.energy_j, ws.energy_j) && !ws.energy_j.empty() &&
                      out.min_energy_frequency_mhz == ws.frequencies[stats::argmin(ws.energy_j)];
    if (!same) ++mismatches;
  }
  return mismatches;
}

/// Per-request figures of the recorded open-loop segments.
struct LoopRecord {
  std::vector<double> segment_p50_us, segment_p90_us;  ///< one per segment
  std::vector<double> decide_us, late_us, queue_us, service_us;
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// One open-loop segment: requests [first, first + count) are submitted at
/// Poisson arrival times at `rate_hz` from a fresh start, each timed from its
/// due time. Requests are pre-built; the generator only paces, submits and
/// harvests finished tickets in submission order to bound memory.
void run_segment(serve::SweepService& service, const std::vector<Request>& requests,
                 std::size_t first, std::size_t count, double rate_hz, bool record, Rng& arrivals,
                 Tracer& tracer, std::vector<Sample>& samples, LoopRecord& rec) {
  std::vector<double> due_s(count);
  double t = 0.0;
  for (double& d : due_s) {
    t += -std::log(1.0 - arrivals.uniform()) / rate_hz;
    d = t;
  }

  struct InFlight {
    std::size_t request;
    serve::SweepTicket ticket;
    Clock::time_point due, submitted;
    std::int64_t span;
  };
  std::deque<InFlight> inflight;
  std::vector<double> segment_us;

  const auto finish = [&](const InFlight& f) {
    if (!record) return;
    const serve::SweepOutcome& out = f.ticket.wait();
    const double late = seconds_between(f.due, f.submitted);
    const double decide = late + out.total_latency_s;
    segment_us.push_back(decide * 1e6);
    rec.late_us.push_back(late * 1e6);
    rec.queue_us.push_back(out.queue_latency_s * 1e6);
    rec.service_us.push_back((out.total_latency_s - out.queue_latency_s) * 1e6);
    if (tracer.enabled()) {
      const auto dur = [](double sec) {
        return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(sec));
      };
      const auto id = static_cast<std::int64_t>(f.request);
      const Clock::time_point picked = f.submitted + dur(out.queue_latency_s);
      const Clock::time_point published = f.submitted + dur(out.total_latency_s);
      tracer.add("serve.queue_wait", f.submitted, picked, f.span, id);
      tracer.add("serve.service", picked, published, f.span, id);
      tracer.close_at(f.span, published);
    }
  };

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t r = first + i;
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(due_s[i]));
    pace_until(due);
    const auto id = static_cast<std::int64_t>(r);
    const std::int64_t root = tracer.add("request", due, due, Tracer::kNone, id);
    const Clock::time_point submitted = Clock::now();
    serve::SweepTicket ticket;
    rec.attempted += record ? 1 : 0;
    try {
      const Scope span(tracer, "serve.submit", root, id);
      ticket = service.submit(to_sweep_request(requests[r]));
    } catch (const std::exception&) {
      rec.failed += record ? 1 : 0;
      continue;
    }
    if (record && r % kCheckStride == 0) samples.push_back({r, ticket});
    inflight.push_back({r, std::move(ticket), due, submitted, root});
    while (!inflight.empty() && inflight.front().ticket.done()) {
      finish(inflight.front());
      inflight.pop_front();
    }
  }
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kDeadlineS));
  for (const InFlight& f : inflight) {
    if (wait_done(f.ticket, deadline)) {
      finish(f);
    } else {
      rec.failed += record ? 1 : 0;
    }
  }
  if (record && !segment_us.empty()) {
    rec.segment_p50_us.push_back(pct(segment_us, 50.0));
    rec.segment_p90_us.push_back(pct(segment_us, 90.0));
    rec.decide_us.insert(rec.decide_us.end(), segment_us.begin(), segment_us.end());
  }
}

/// Capacity figures of the backlogs drained so far.
struct CapacityRecord {
  std::vector<double> rps;  ///< one per backlog
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t last_first = 0;            ///< first request of the last backlog
  std::vector<std::size_t> last_drains;  ///< batch sizes of its drains
};

/// Capacity: a backlog of requests [first, first + count) is submitted at
/// once to a service whose worker is not running, then drained with
/// drain_once() on this thread (fanning out over the serve pool) until the
/// queue is empty. The backlog's capacity is its size over submit + drain
/// wall time.
void run_backlog(serve::SweepService& service, const std::vector<Request>& requests,
                 std::size_t first, std::size_t count, Tracer& tracer,
                 std::vector<Sample>* samples, CapacityRecord& rec) {
  std::vector<serve::SweepTicket> tickets(count);
  std::vector<std::size_t> drains;
  const Scope backlog_span(tracer, "serve.capacity_backlog");
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    try {
      const Scope span(tracer, "serve.submit", backlog_span.id(),
                       static_cast<std::int64_t>(first + i));
      tickets[i] = service.submit(to_sweep_request(requests[first + i]));
    } catch (const std::exception&) {
      // The invalid ticket is counted as failed below.
    }
  }
  for (;;) {
    const auto t = Clock::now();
    const std::size_t served = service.drain_once();
    if (served == 0) break;
    tracer.add("serve.drain_once", t, Clock::now(), backlog_span.id());
    drains.push_back(served);
  }
  const double wall = seconds_between(t0, Clock::now());

  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(1);
  for (std::size_t i = 0; i < count; ++i) {
    const Scope span(tracer, "serve.ticket_complete", backlog_span.id(),
                     static_cast<std::int64_t>(first + i));
    ++rec.attempted;
    if (!tickets[i].valid() || !wait_done(tickets[i], deadline)) {
      ++rec.failed;
    } else if (samples != nullptr && (first + i) % kCheckStride == 0) {
      samples->push_back({first + i, tickets[i]});
    }
  }
  rec.rps.push_back(static_cast<double>(count) / wall);
  rec.last_first = first;
  rec.last_drains = std::move(drains);
}

struct ReplayStats {
  double probe_ns = 0.0, insert_ns = 0.0;
  double sweep_item_us = 0.0, forward_power_us = 0.0, forward_time_us = 0.0;
};

/// Replay the last capacity backlog's observed batches outside the service,
/// timing the cache, the fused sweep and each model's forward pass. The
/// batches are re-formed in the queue's pop order: strict priority band,
/// FIFO within a band, cut at the observed drain sizes.
ReplayStats replay_batches(const core::PowerTimeModels& models, const std::vector<Request>& requests,
                           std::size_t first, const std::vector<std::size_t>& drains,
                           Tracer& tracer) {
  std::size_t total = 0;
  for (std::size_t d : drains) total += d;
  std::vector<std::size_t> order(total);
  for (std::size_t i = 0; i < total; ++i) order[i] = first + i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return requests[a].descriptor.band_index() > requests[b].descriptor.band_index();
  });

  const sim::GpuSpec spec = sim::GpuSpec::ga100();
  const std::vector<double> grid = spec.used_frequencies();
  const core::OnlinePredictor predictor(models);
  core::SweepCurveCache cache;
  core::BatchSweepWorkspace ws;
  core::DnnModel::Workspace dnn_ws;
  std::vector<double> forward_out;
  std::vector<core::SweepCurveCache::Probe> probes;
  std::vector<std::size_t> unique, misses;
  std::vector<core::BatchSweepItem> items;

  double probe_s = 0.0, insert_s = 0.0, sweep_s = 0.0, power_s = 0.0, time_s = 0.0;
  std::size_t lookups = 0, inserts = 0, computed = 0;
  const Scope root(tracer, "replay");
  std::size_t pos = 0;
  for (std::size_t batch : drains) {
    const Scope batch_span(tracer, "replay.batch", root.id());
    // In-batch coalescing on the bits the service compares.
    unique.clear();
    for (std::size_t k = pos; k < pos + batch; ++k) {
      const Request& r = requests[order[k]];
      bool dup = false;
      for (std::size_t u : unique) {
        const Request& q = requests[u];
        dup = std::memcmp(&q.counters, &r.counters, sizeof r.counters) == 0 &&
              std::memcmp(&q.t_max_s, &r.t_max_s, sizeof r.t_max_s) == 0;
        if (dup) break;
      }
      if (!dup) unique.push_back(order[k]);
    }
    pos += batch;

    probes.assign(unique.size(), {});
    misses.clear();
    probe_s += timed(tracer, "core.cache_lookup", batch_span.id(), [&] {
      for (std::size_t u = 0; u < unique.size(); ++u) {
        const Request& r = requests[unique[u]];
        if (!cache.lookup(r.counters, r.t_max_s, grid, 0, 1, probes[u]).hit) misses.push_back(u);
      }
    });
    lookups += unique.size();
    if (misses.empty()) continue;

    items.clear();
    for (std::size_t u : misses) {
      const Request& r = requests[unique[u]];
      items.push_back({&r.counters, r.t_max_s, grid});
    }
    sweep_s += timed(tracer, "core.predict_sweep_batch", batch_span.id(),
                     [&] { predictor.predict_sweep_batch(items, spec, ws); });
    computed += items.size();
    forward_out.resize(ws.features.rows());
    power_s += timed(tracer, "nn.predict_into.power", batch_span.id(),
                     [&] { models.power.predict_into(ws.features, dnn_ws, forward_out); });
    time_s += timed(tracer, "nn.predict_into.time", batch_span.id(),
                    [&] { models.time.predict_into(ws.features, dnn_ws, forward_out); });
    insert_s += timed(tracer, "core.cache_insert", batch_span.id(), [&] {
      for (std::size_t m = 0; m < misses.size(); ++m) {
        cache.insert(probes[misses[m]], grid, ws.item_frequencies(m), ws.item_power(m),
                     ws.item_time(m), ws.item_energy(m));
      }
    });
    inserts += misses.size();
  }
  ReplayStats st;
  const auto per = [](double s, std::size_t n, double scale) {
    return n > 0 ? s / static_cast<double>(n) * scale : 0.0;
  };
  st.probe_ns = per(probe_s, lookups, 1e9);
  st.insert_ns = per(insert_s, inserts, 1e9);
  st.sweep_item_us = per(sweep_s, computed, 1e6);
  st.forward_power_us = per(power_s, computed, 1e6);
  st.forward_time_us = per(time_s, computed, 1e6);
  return st;
}

// ---------------------------------------------------------------------------
// The run.

struct Options {
  const WorkloadSpec* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool self_test = false;
};

std::string fingerprint() {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\": %u, \"pool\": %zu, \"backend\": \"%s\", "
                "\"precision\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\"}",
                std::thread::hardware_concurrency(), kPoolThreads,
                nn::kernels::to_string(nn::kernels::active_backend()),
                nn::to_string(nn::default_precision()), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  return buf;
}

Result run(const Options& opt) {
  const WorkloadSpec& wl = *opt.workload;
  Result res;
  Tracer tracer(opt.trace, kSpanStride);
  Tracer untraced(false);

  // The serve phase runs in rounds: one recorded open-loop segment, one
  // capacity backlog (two in the traced run: untraced and traced) and one
  // timed service bring-up each, so every serve metric samples the whole
  // run rather than one stretch of it.
  const auto segment = static_cast<std::size_t>(wl.rate_hz * kSegmentS);
  const std::size_t rounds =
      std::max<std::size_t>(3, static_cast<std::size_t>(opt.seconds / kSegmentS));
  const std::size_t backlogs = rounds * (opt.trace ? 2 : 1);

  // Inputs first, outside every timed window: segment k uses requests
  // [k * S, (k + 1) * S) (k = 0 is the warm-up), backlog j the j-th run of
  // wl.backlog requests after them.
  Traffic traffic(wl.traffic, opt.seed);
  const std::size_t backlog_base = (rounds + 1) * segment;
  std::vector<Request> requests;
  requests.reserve(backlog_base + backlogs * wl.backlog);
  while (requests.size() < requests.capacity()) requests.push_back(traffic.next());
  {
    Traffic again(wl.traffic, opt.seed);
    for (std::size_t i = 0; i < kDeterminismPrefix; ++i) {
      if (!same_bits(again.next(), requests[i])) {
        res.fail("generator: the same seed produced a different request stream");
        break;
      }
    }
  }
  const Request warmup = Traffic(wl.traffic, Rng::hash_combine(opt.seed, 0x3A83ULL)).next();

  // Phase 1: calibration.
  set_num_threads(kPoolThreads);
  const core::PowerTimeModels calibrated = calibrate(tracer, res);
  std::ostringstream power_out, time_out;
  nn::save_model(calibrated.power.bundle(), power_out);
  nn::save_model(calibrated.time.bundle(), time_out);
  const std::string power_bytes = power_out.str(), time_bytes = time_out.str();

  // Phase 2: serving. The open loop drives a started service; the backlogs
  // go to a second, never-started one, because a service refuses submit()
  // once it has stopped.
  std::vector<double> setup_s;
  const auto timed_bring_up = [&] {
    const Scope span(tracer, "serve.setup");
    const auto t0 = Clock::now();
    ServingStack stack = bring_up(power_bytes, time_bytes, calibrated.features, warmup);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    return stack;
  };
  ServingStack live = timed_bring_up();
  ServingStack cap_stack;
  cap_stack.models = live.models;
  cap_stack.holder = std::make_unique<serve::ModelSnapshotHolder>(cap_stack.models);
  cap_stack.service =
      std::make_unique<serve::SweepService>(*cap_stack.holder, sim::GpuSpec::ga100());

  Rng arrivals(Rng::hash_combine(opt.seed, 0xA77A1ULL));
  std::vector<Sample> samples;
  LoopRecord loop;
  CapacityRecord cap, traced_cap;
  run_segment(*live.service, requests, 0, segment, wl.rate_hz, false, arrivals, untraced, samples,
              loop);
  const serve::ServiceStats before = live.service->stats();
  std::size_t next_backlog = backlog_base;
  const auto backlog = [&](Tracer& t, std::vector<Sample>* keep, CapacityRecord& rec) {
    run_backlog(*cap_stack.service, requests, next_backlog, wl.backlog, t, keep, rec);
    next_backlog += wl.backlog;
  };
  for (std::size_t round = 0; round < rounds; ++round) {
    run_segment(*live.service, requests, (round + 1) * segment, segment, wl.rate_hz, true, arrivals,
                tracer, samples, loop);
    if (!opt.trace) {
      backlog(untraced, &samples, cap);
    } else if (round % 2 == 0) {  // alternate which side goes first
      backlog(untraced, &samples, cap);
      backlog(tracer, nullptr, traced_cap);
    } else {
      backlog(tracer, nullptr, traced_cap);
      backlog(untraced, &samples, cap);
    }
    timed_bring_up();  // torn down at once, outside the timed span
  }
  const serve::ServiceStats after = live.service->stats();

  // Correctness: outcomes re-computed independently, failures counted.
  const std::size_t mismatches = check_samples(live, requests, samples);
  const std::size_t lost = loop.failed + cap.failed + traced_cap.failed;
  res.attempted += loop.attempted + cap.attempted + traced_cap.attempted;
  res.failed += lost + mismatches;
  if (mismatches > 0) {
    res.fail(std::to_string(mismatches) + " served outcomes differ from predict_sweep");
  }
  if (lost > 0) res.fail(std::to_string(lost) + " requests failed or missed the deadline");

  res.end_to_end["capacity_rps"] = {median_of(cap.rps), "1/s"};
  res.end_to_end["setup_s"] = {median_of(setup_s), "s"};
  res.end_to_end["ok_frac"] = {1.0 - static_cast<double>(res.failed) /
                                         static_cast<double>(std::max<std::size_t>(1, res.attempted)),
                               "frac"};

  // Per-layer figures (reported by the traced run).
  const RepeatStats repeats = repeat_stats(requests);
  const auto served = static_cast<double>(after.completed - before.completed);
  const auto hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const auto computed = static_cast<double>(after.cache_misses - before.cache_misses);
  const auto drains = static_cast<double>(after.batches - before.batches);
  const auto per_served = [served](double x) { return served > 0 ? x / served : 0.0; };
  const auto grid_rows = static_cast<double>(sim::GpuSpec::ga100().used_frequencies().size());
  auto& pl = res.per_layer;
  pl["serve.queue_wait_us"] = {pct(loop.queue_us, 50.0), "us"};
  pl["serve.service_us"] = {pct(loop.service_us, 50.0), "us"};
  pl["serve.drains"] = {drains, "count"};
  pl["serve.batch_mean"] = {drains > 0 ? served / drains : 0.0, "count"};
  pl["serve.coalesced_frac"] = {per_served(static_cast<double>(after.coalesced - before.coalesced)),
                                "frac"};
  const double decide_p50 = median_of(loop.segment_p50_us);
  pl["serve.decide_p50_us"] = {decide_p50, "us"};
  pl["serve.decide_p90_us"] = {median_of(loop.segment_p90_us), "us"};
  pl["serve.decide_p99_us"] = {pct(loop.decide_us, 99.0), "us"};
  pl["serve.decide_p999_us"] = {pct(loop.decide_us, 99.9), "us"};
  pl["core.cache_hit_rate"] = {hits + computed > 0 ? hits / (hits + computed) : 0.0, "frac"};
  pl["core.cache_evict_per_req"] = {
      per_served(static_cast<double>(after.cache_evictions - before.cache_evictions)), "count"};
  pl["core.sweep_rows"] = {per_served(computed * grid_rows), "count"};
  const double late_p50 = pct(loop.late_us, 50.0);
  const bool valid = late_p50 <= kMaxLateShare * decide_p50;
  pl["loadgen.late_p50_us"] = {late_p50, "us"};
  pl["loadgen.late_p99_us"] = {pct(loop.late_us, 99.0), "us"};
  pl["loadgen.valid"] = {valid ? 1.0 : 0.0, "bool"};
  pl["wl.repeat_share"] = {repeats.repeat_share, "frac"};
  pl["wl.feature_repeat_share"] = {repeats.feature_repeat_share, "frac"};
  pl["dcgm.profile_at_max_us"] = {
      traffic.profile_seconds() / static_cast<double>(std::max<std::size_t>(1, traffic.profiles())) *
          1e6,
      "us"};
  if (opt.trace) {
    pl["trace.overhead_pct"] = {(median_of(cap.rps) / median_of(traced_cap.rps) - 1.0) * 100.0, "%"};
    pl["serve.submit_us"] = {mean_of(span_seconds(tracer, "serve.submit")) * 1e6, "us"};
    pl["serve.drain_us"] = {mean_of(span_seconds(tracer, "serve.drain_once")) * 1e6, "us"};
    const ReplayStats rp = replay_batches(*live.models, requests, traced_cap.last_first,
                                          traced_cap.last_drains, tracer);
    pl["core.cache_probe_ns"] = {rp.probe_ns, "ns"};
    pl["core.cache_insert_ns"] = {rp.insert_ns, "ns"};
    pl["core.sweep_item_us"] = {rp.sweep_item_us, "us"};
    pl["nn.forward_power_us"] = {rp.forward_power_us, "us"};
    pl["nn.forward_time_us"] = {rp.forward_time_us, "us"};
  }
  if (!valid) {
    std::printf("run invalid: generator p50 lateness %.1f us exceeds %.0f%% of decide p50 %.1f us\n",
                late_p50, kMaxLateShare * 100.0, decide_p50);
  }
  std::printf("samples: %zu open-loop segments x %zu requests, %zu capacity backlogs x %zu, "
              "%zu setups, %zu outcomes re-computed\n",
              rounds, segment, cap.rps.size(), wl.backlog, setup_s.size(), samples.size());

  // Shut the services down before reading peak memory and writing spans.
  samples.clear();
  live = {};
  cap_stack = {};
  res.end_to_end["peak_rss_mb"] = {peak_rss_mb(), "MB"};
  if (opt.trace && !opt.trace_out.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(std::filesystem::path(opt.trace_out).parent_path(), ec);
    if (tracer.write_tsv(opt.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), opt.trace_out.c_str());
    } else {
      std::printf("trace: could not write %s\n", opt.trace_out.c_str());
    }
  }
  return res;
}

void print_metrics(const char* title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-26s %14.4f %s\n", name.c_str(), m.value, m.unit);
  }
}

void print_json(const Result& res, const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              res.correct ? "true" : "false", res.attempted, res.failed);
  bool first = true;
  for (const auto& [name, m] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                m.value, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload fleet_noisy|fleet_repeat --seed N "
               "--seconds S --trace 0|1 [--trace-out PATH]\n"
               "       perfbench --self-test\n");
  return 2;
}

/// Generator self-test: each stream is a pure function of its seed, and the
/// noisy fleet never repeats a request.
int self_test() {
  int failures = 0;
  for (const TrafficKind kind : {TrafficKind::kNoisyFleet, TrafficKind::kRepeatFleet}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 0xFEEDULL}) {
      Traffic a(kind, seed), b(kind, seed), other(kind, seed + 1);
      std::vector<Request> stream;
      bool same = true, differs = false;
      for (std::size_t i = 0; i < 3000; ++i) {
        stream.push_back(a.next());
        same = same && same_bits(stream.back(), b.next());
        differs = differs || !same_bits(stream.back(), other.next());
      }
      const RepeatStats rs = repeat_stats(stream);
      const bool ok = same && differs &&
                      (kind == TrafficKind::kNoisyFleet ? rs.repeat_share == 0.0
                                                        : rs.repeat_share > 0.9);
      std::printf("%s %s seed=%llu: deterministic=%d seed-sensitive=%d repeat_share=%.4f\n",
                  ok ? "PASS" : "FAIL", kind == TrafficKind::kNoisyFleet ? "noisy " : "repeat",
                  static_cast<unsigned long long>(seed), same, differs, rs.repeat_share);
      failures += ok ? 0 : 1;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      opt.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      for (const WorkloadSpec& w : kWorkloads) {
        if (val == w.name) opt.workload = &w;
      }
      if (opt.workload == nullptr) return usage();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opt.trace = val == "1";
    } else if (arg == "--trace-out") {
      opt.trace_out = val;
    } else {
      return usage();
    }
  }
  if (opt.self_test) return self_test();
  if (opt.workload == nullptr || !(opt.seconds > 0.0)) return usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("fingerprint: %s\n", fingerprint().c_str());
  std::fflush(stdout);
  Result res;
  try {
    res = run(opt);
  } catch (const std::exception& e) {
    std::printf("benchmark aborted: %s\n", e.what());
    return 1;
  }
  for (const std::string& p : res.problems) std::printf("problem: %s\n", p.c_str());
  print_metrics("end-to-end:", res.end_to_end);
  print_metrics(opt.trace ? "per-layer:" : "per-layer (partial; the traced run reports all):",
                res.per_layer);
  print_json(res, opt.trace ? res.per_layer : res.end_to_end);
  return 0;
}
