#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string_view>
#include <utility>

#include "obs/aggregate.hpp"
#include "obs/hw.hpp"
#include "obs/trend.hpp"

namespace pkifmm::bench {

namespace {

/// Process-wide metrics log behind --metrics-out/--trace-out/
/// --summary-out/--history-out. Written at exit so sweeps with many
/// run_fmm calls land in one file (one appended history line).
struct MetricsLog {
  std::string bench;
  std::string metrics_path;
  std::string trace_path;
  std::string summary_path;
  std::string history_path;
  std::string git_sha;
  obs::Json runs = obs::Json::array();
  std::vector<obs::Json> trace_runs;  ///< one chrome doc per run
  obs::Json first_config;  ///< run.v1 config = first recorded run's
  std::vector<std::vector<obs::RankMetrics>> summary_runs;
  int run_index = 0;
  bool flow_trace = false;  ///< --flow-trace: obs/flow.hpp tracing
  int flow_capacity = 0;    ///< --flow-capacity (0 = not given)
  bool health = false;         ///< --health: FmmOptions::health layer
  bool health_rate_set = false;   ///< --health-sample-rate was given
  double health_rate = 0.0;       ///< its value when set
  std::mutex mu;

  bool enabled() const {
    return !metrics_path.empty() || !trace_path.empty() ||
           !summary_path.empty() || !history_path.empty();
  }
};

MetricsLog& metrics_log() {
  static MetricsLog log;
  return log;
}

void flush_metrics() try {
  if (util::main_failed()) return;  // an error run writes no output file
  MetricsLog& log = metrics_log();
  if (!log.metrics_path.empty()) {
    obs::Json doc = obs::Json::object();
    doc.set("schema", "pkifmm.bench-metrics.v1");
    doc.set("bench", log.bench);
    doc.set("nruns", std::int64_t{log.run_index});
    doc.set("runs", std::move(log.runs));
    obs::write_json_file(log.metrics_path, doc);
    std::printf("[metrics] wrote %s (%d runs)\n", log.metrics_path.c_str(),
                log.run_index);
  }
  if (!log.trace_path.empty()) {
    // Merge at flush so the pid stride derives from the actual rank
    // counts across all recorded runs (obs::merge_chrome_traces) —
    // within a run pid = rank, each run gets its own pid block, and
    // flow-arrow ids stay unique per repetition.
    obs::write_json_file(log.trace_path,
                         obs::merge_chrome_traces(log.trace_runs));
    std::printf("[metrics] wrote %s (%zu runs merged)\n",
                log.trace_path.c_str(), log.trace_runs.size());
  }
  if (!log.summary_path.empty() || !log.history_path.empty()) {
    const obs::Json summary =
        obs::summarize_runs(log.bench, log.summary_runs);
    if (!log.summary_path.empty()) {
      obs::write_summary_json(log.summary_path, summary);
      std::printf("[metrics] wrote %s (%zu runs merged)\n",
                  log.summary_path.c_str(), log.summary_runs.size());
    }
    if (!log.history_path.empty()) {
      obs::append_run_record(
          log.history_path,
          obs::run_record_from_summary(summary, log.bench, log.git_sha,
                                       log.first_config));
      std::printf("[metrics] appended run record to %s (sha %s)\n",
                  log.history_path.c_str(), log.git_sha.c_str());
    }
  }
} catch (const std::exception& e) {
  // Runs at exit: an escaping exception would call std::terminate, so
  // report the I/O failure without taking down the bench's results.
  std::fprintf(stderr, "[metrics] write failed: %s\n", e.what());
}

const char* dist_name(octree::Distribution d) {
  switch (d) {
    case octree::Distribution::kUniform: return "uniform";
    case octree::Distribution::kEllipsoid: return "ellipsoid";
    case octree::Distribution::kCluster: return "cluster";
  }
  return "unknown";
}

/// Max/avg/per-rank triple for one per-rank series.
obs::Json series_json(const std::vector<double>& per_rank) {
  const Summary s = Summary::of(per_rank);
  obs::Json out = obs::Json::object();
  out.set("max", s.max);
  out.set("avg", s.avg);
  obs::Json ranks = obs::Json::array();
  for (double v : per_rank) ranks.push_back(obs::Json(v));
  out.set("per_rank", std::move(ranks));
  return out;
}

/// Sends of the phases whose names start with `prefix`, from their
/// `comm.<phase>.msgs_sent` / `.bytes_sent` counters.
comm::CostTracker::Counters sent(const comm::RankReport& rep,
                                 const std::string& prefix) {
  comm::CostTracker::Counters c;
  c.msgs_sent =
      static_cast<std::uint64_t>(rep.sum("comm." + prefix, ".msgs_sent"));
  c.bytes_sent =
      static_cast<std::uint64_t>(rep.sum("comm." + prefix, ".bytes_sent"));
  return c;
}

/// f(rep) for every rank, in rank order.
template <class F>
std::vector<double> per_rank(const std::vector<comm::RankReport>& reports,
                             F f) {
  std::vector<double> out;
  out.reserve(reports.size());
  for (const auto& rep : reports) out.push_back(f(rep));
  return out;
}

/// Every phase with a `time.<phase>.cpu`, `flops.<phase>` or
/// `comm.<phase>.msgs_sent` counter on some rank.
std::set<std::string> phase_names(
    const std::vector<comm::RankReport>& reports) {
  static const std::pair<std::string_view, std::string_view> kFamilies[] = {
      {"time.", ".cpu"}, {"flops.", ""}, {"comm.", ".msgs_sent"}};
  std::set<std::string> names;
  for (const auto& rep : reports)
    for (const auto& [key, v] : rep.counters)
      for (const auto& [pre, suf] : kFamilies)
        if (key.size() > pre.size() + suf.size() && key.starts_with(pre) &&
            key.ends_with(suf))
          names.insert(
              key.substr(pre.size(), key.size() - pre.size() - suf.size()));
  return names;
}

}  // namespace

void metrics_init(const Cli& cli, const std::string& bench_name) {
  MetricsLog& log = metrics_log();
  log.bench = bench_name;
  log.metrics_path = cli.get("metrics-out", "");
  log.trace_path = cli.get("trace-out", "");
  log.summary_path = cli.get("summary-out", "");
  log.history_path = cli.get("history-out", "");
  std::string sha = cli.get("git-sha", "");
  for (const char* env : {"PKIFMM_GIT_SHA", "GITHUB_SHA"}) {
    if (!sha.empty()) break;
    if (const char* v = std::getenv(env)) sha = v;
  }
  log.git_sha = sha.empty() ? "unknown" : sha;
  log.flow_trace = cli.has("flow-trace");
  log.flow_capacity = cli.get_int_as<int>("flow-capacity", 0, 1);
  log.health = cli.has("health");
  if (cli.has("health-sample-rate")) {
    const double v = cli.get_double("health-sample-rate", 0.0);
    PKIFMM_CHECK_MSG(v >= 0.0 && v <= 1.0,
                     "--health-sample-rate must be in [0, 1], got " << v);
    log.health_rate_set = true;
    log.health_rate = v;
  }
  log.first_config = obs::Json::object();
  if (log.enabled()) std::atexit(flush_metrics);
}

void apply_flow_flags(core::FmmOptions& opts) {
  const MetricsLog& log = metrics_log();
  if (log.flow_trace) opts.flow_trace = true;
  if (log.flow_capacity != 0) opts.flow_capacity = log.flow_capacity;
  if (log.health) opts.health = true;
  if (log.health_rate_set) opts.health_sample_rate = log.health_rate;
}

void record_run(const std::string& kind, const ExperimentConfig& cfg,
                const std::string& kernel,
                const std::vector<comm::RankReport>& reports,
                const comm::CostModel& model) {
  MetricsLog& log = metrics_log();
  if (!log.enabled()) return;
  std::lock_guard<std::mutex> lock(log.mu);

  obs::Json run = obs::Json::object();
  run.set("kind", kind);
  obs::Json config = obs::Json::object();
  config.set("p", std::int64_t{cfg.p});
  config.set("dist", dist_name(cfg.dist));
  config.set("n_points", static_cast<std::int64_t>(cfg.n_points));
  config.set("seed", static_cast<std::int64_t>(cfg.seed));
  config.set("kernel", kernel);
  config.set("surface_n", std::int64_t{cfg.opts.surface_n});
  config.set("max_points_per_leaf",
             std::int64_t{cfg.opts.max_points_per_leaf});
  // Health runs carry different work (sampling direct sums) and an
  // extra run.v1 field — stamp the config so report/trend tooling can
  // tell health-on and health-off runs apart.
  const bool health = log.health || cfg.opts.health;
  config.set("health", health);
  if (health)
    config.set("health_sample_rate", log.health_rate_set
                                         ? log.health_rate
                                         : cfg.opts.health_sample_rate);
  if (log.run_index == 0) {
    log.first_config = config;
    log.first_config.set("kind", kind);
  }
  run.set("config", std::move(config));

  // Per-phase summary matching the stdout tables: time = measured
  // thread-CPU + alpha-beta modeled comm (DESIGN.md §2), flops from the
  // analytic counters, msgs/bytes from the send ledger. Phase keys are
  // exact phase names; prefix aggregates ("eval.") are sums of these.
  obs::Json phases = obs::Json::object();
  for (const std::string& name : phase_names(reports)) {
    std::vector<double> time, cpu, comm_time, flops;
    std::uint64_t msgs = 0, bytes = 0;
    for (const auto& rep : reports) {
      const double c = rep.counter("time." + name + ".cpu");
      comm::CostTracker::Counters cnt;
      cnt.msgs_sent = static_cast<std::uint64_t>(
          rep.counter("comm." + name + ".msgs_sent"));
      cnt.bytes_sent = static_cast<std::uint64_t>(
          rep.counter("comm." + name + ".bytes_sent"));
      time.push_back(c + model.comm_time(cnt));
      cpu.push_back(c);
      comm_time.push_back(model.comm_time(cnt));
      flops.push_back(rep.counter("flops." + name));
      msgs += cnt.msgs_sent;
      bytes += cnt.bytes_sent;
    }
    obs::Json ph = obs::Json::object();
    ph.set("time", series_json(time));
    ph.set("cpu", series_json(cpu));
    ph.set("comm_time", series_json(comm_time));
    ph.set("flops", series_json(flops));
    ph.set("msgs", static_cast<std::int64_t>(msgs));
    ph.set("bytes", static_cast<std::int64_t>(bytes));
    // Max across ranks of the process VmHWM advance while the phase
    // was open (ranks share one address space, so deltas overlap —
    // max, not sum, is the honest per-phase figure).
    double rss_delta = 0.0;
    for (const auto& rep : reports)
      rss_delta = std::max(
          rss_delta, rep.counter("mem." + name + ".peak_rss_delta_bytes"));
    ph.set("peak_rss_delta_bytes", rss_delta);
    phases.set(name, std::move(ph));
  }
  run.set("phases", std::move(phases));
  obs::Json mem = obs::Json::object();
  mem.set("peak_rss_bytes",
          static_cast<std::int64_t>(obs::peak_rss_bytes()));
  run.set("mem", std::move(mem));

  // Full per-rank snapshot (counters, histograms, span trace) in the
  // flat pkifmm.metrics.v1 schema.
  run.set("metrics", obs::metrics_to_json(reports));
  log.runs.push_back(std::move(run));

  // Chrome trace: buffer one per-run document; flush_metrics merges
  // them with a pid stride derived from the actual rank counts.
  if (!log.trace_path.empty())
    log.trace_runs.push_back(obs::chrome_trace_json(reports));
  if (!log.summary_path.empty() || !log.history_path.empty())
    log.summary_runs.push_back(reports);
  ++log.run_index;
}

std::vector<double> Experiment::phase_times(const std::string& prefix) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return rep.sum("time." + prefix, ".cpu") +
           model.comm_time(sent(rep, prefix));
  });
}

std::vector<double> Experiment::phase_cpu(const std::string& prefix) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return rep.sum("time." + prefix, ".cpu");
  });
}

std::vector<double> Experiment::obs_counter(const std::string& name) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return rep.counter(name);
  });
}

std::vector<double> Experiment::phase_flops(const std::string& prefix) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return rep.sum("flops." + prefix);
  });
}

std::vector<double> Experiment::comm_times(const std::string& prefix) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return model.comm_time(sent(rep, prefix));
  });
}

std::uint64_t Experiment::total_msgs(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& rep : reports) total += sent(rep, prefix).msgs_sent;
  return total;
}

std::uint64_t Experiment::total_bytes(const std::string& prefix) const {
  std::uint64_t total = 0;
  for (const auto& rep : reports) total += sent(rep, prefix).bytes_sent;
  return total;
}

std::uint64_t Experiment::max_msgs(const std::string& prefix) const {
  std::uint64_t m = 0;
  for (const auto& rep : reports)
    m = std::max(m, sent(rep, prefix).msgs_sent);
  return m;
}

std::vector<double> Experiment::paper_times(const std::string& prefix) const {
  return per_rank(reports, [&](const comm::RankReport& rep) {
    return model.compute_time(
               static_cast<std::uint64_t>(rep.sum("flops." + prefix))) +
           model.comm_time(sent(rep, prefix));
  });
}

std::vector<double> GpuRun::device_times(const std::string& kernel) const {
  std::vector<double> out;
  out.reserve(dev_kernels.size());
  for (const auto& dk : dev_kernels) {
    auto it = dk.find(kernel);
    out.push_back(it == dk.end() ? 0.0 : it->second.modeled_seconds);
  }
  return out;
}

std::vector<double> GpuRun::host_times() const {
  // CPU-resident phases of the GPU configuration.
  static const char* kHostPhases[] = {"eval.s2u.host", "eval.vli.host",
                                      "eval.u2u", "eval.down", "eval.xli",
                                      "eval.wli"};
  return per_rank(reports, [&](const comm::RankReport& rep) {
    double flops = 0.0;
    for (const char* ph : kHostPhases)
      flops += rep.sum(std::string("flops.") + ph);
    return model.compute_time(static_cast<std::uint64_t>(flops)) +
           model.comm_time(sent(rep, "eval.comm"));
  });
}

std::vector<double> GpuRun::eval_times() const {
  std::vector<double> out = host_times();
  for (std::size_t r = 0; r < out.size(); ++r) {
    for (const auto& [name, ks] : dev_kernels[r])
      out[r] += ks.modeled_seconds;
    out[r] += dev_transfer_seconds[r];
  }
  return out;
}

GpuRun run_gpu_fmm(const ExperimentConfig& cfg, int block) {
  core::FmmOptions opts = cfg.opts;
  apply_flow_flags(opts);
  const core::Tables& base = tables_for("laplace", opts);
  const core::Tables tables = base.with_options(opts);

  GpuRun run;
  run.dev_kernels.resize(cfg.p);
  run.dev_transfer_seconds.assign(cfg.p, 0.0);
  run.reports = comm::Runtime::run(cfg.p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(cfg.dist, cfg.n_points, ctx.rank(),
                                       ctx.size(), 1, cfg.seed);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));

    gpu::StreamDevice dev;  // one device per rank, as in the paper
    gpu::GpuEvaluator eval(tables, fmm.let(), ctx, dev, block);
    eval.run();
    run.dev_kernels[ctx.rank()] = dev.kernels();
    run.dev_transfer_seconds[ctx.rank()] = dev.transfer_seconds();
  });
  record_run("gpu_fmm", cfg, "laplace", run.reports, run.model);
  return run;
}

const core::Tables& tables_for(const std::string& kernel,
                               const core::FmmOptions& opts) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<kernels::Kernel>> kernels;
  static std::map<std::pair<std::string, int>, std::unique_ptr<core::Tables>>
      cache;
  std::lock_guard<std::mutex> lock(mu);
  auto& kern = kernels[kernel];
  if (!kern) kern = kernels::make_kernel(kernel);
  auto& t = cache[{kernel, opts.surface_n}];
  if (!t) {
    core::FmmOptions base;
    base.surface_n = opts.surface_n;
    t = std::make_unique<core::Tables>(*kern, base);
    // Warm the lazy V-list operators so the first experiment's timed
    // phases don't pay their one-time build: the CPU V-list reads the
    // blocked table, the GPU emulator the per-offset spectra.
    if (kern->homogeneous()) {
      (void)t->vli_operator_blocks(0);
      for (int dx = -3; dx <= 3; ++dx)
        for (int dy = -3; dy <= 3; ++dy)
          for (int dz = -3; dz <= 3; ++dz)
            if (core::is_vlist_offset(dx, dy, dz))
              (void)t->m2l_spectra(0, core::offset_index(dx, dy, dz));
    }
  }
  return *t;
}

Experiment run_fmm(const ExperimentConfig& cfg, const std::string& kernel) {
  core::FmmOptions opts = cfg.opts;
  apply_flow_flags(opts);
  const core::Tables& base = tables_for(kernel, opts);
  const core::Tables tables = base.with_options(opts);

  Experiment exp;
  exp.reports = comm::Runtime::run(cfg.p, [&](comm::RankCtx& ctx) {
    auto pts = octree::generate_points(cfg.dist, cfg.n_points, ctx.rank(),
                                       ctx.size(), tables.sdim(), cfg.seed);
    core::ParallelFmm fmm(ctx, tables);
    fmm.setup(std::move(pts));
    (void)fmm.evaluate();
  });
  record_run("fmm", cfg, kernel, exp.reports, exp.model);
  return exp;
}

void print_header(const std::string& artifact, const std::string& what) {
  std::printf("\n=== %s — %s ===\n", artifact.c_str(), what.c_str());
  std::printf(
      "(per-rank time = measured thread-CPU work + alpha-beta modeled "
      "communication; see DESIGN.md)\n\n");
}

}  // namespace pkifmm::bench
