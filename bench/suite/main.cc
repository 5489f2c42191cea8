// seltrig_bench: runs the audited workloads of workloads.h through the
// public Database/Session API, checks every answer against an oracle, and
// prints every end-to-end metric by name with its unit. With --trace FILE it
// also runs a traced window and the paired layer probes, prints the
// per-layer metrics, and writes the spans as Chrome trace-event JSON.
//
//   seltrig_bench [--workload all|NAME] [--seed N] [--duration S]
//                 [--warmup S] [--sf X] [--trace FILE] [--out FILE]
//
// --workload all (the default) runs each workload in a fresh process.
// Results go to stdout and, with --out, to FILE as JSON stamped with the git
// sha, build type, core count, scale factor, seed and durations. Exit status
// is non-zero, with no metrics printed, when any oracle fails.

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ablations.h"
#include "fixture.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef SELTRIG_BENCH_GIT_SHA
#define SELTRIG_BENCH_GIT_SHA "unknown"
#endif
#ifndef SELTRIG_BENCH_BUILD_TYPE
#define SELTRIG_BENCH_BUILD_TYPE "unknown"
#endif

namespace seltrig::bench {
namespace {

// Complete set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct Config {
  std::string workload = "all";
  uint64_t seed = 1;
  double duration_s = 30.0;
  double warmup_s = 5.0;
  // 1,500 customers and 15,000 orders. At SF 0.05 every point_mixed
  // statement waits on whole rebuilds of a 75,000-entry index, whose speed
  // follows other tenants' memory traffic on a shared host, and its
  // throughput spread twice as wide between runs.
  double scale_factor = 0.01;
  std::string trace_path;
  std::string out_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void Usage() {
  std::fprintf(stderr,
               "usage: seltrig_bench [--workload all|olap_tpch|point_read|point_mixed|"
               "replicated_write]\n"
               "                     [--seed N] [--duration S] [--warmup S] [--sf X]\n"
               "                     [--trace FILE] [--out FILE]\n");
}

bool ParseArgs(int argc, char** argv, Config* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "seltrig_bench: %s needs a value\n", arg.c_str());
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config->workload = value;
    } else if (arg == "--seed") {
      config->seed = std::strtoull(value, &end, 10);
    } else if (arg == "--duration") {
      config->duration_s = std::strtod(value, &end);
    } else if (arg == "--warmup") {
      config->warmup_s = std::strtod(value, &end);
    } else if (arg == "--sf") {
      config->scale_factor = std::strtod(value, &end);
    } else if (arg == "--trace") {
      config->trace_path = value;
    } else if (arg == "--out") {
      config->out_path = value;
    } else {
      std::fprintf(stderr, "seltrig_bench: unknown argument %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && (*end != '\0' || end == value)) {
      std::fprintf(stderr, "seltrig_bench: bad value for %s: %s\n", arg.c_str(), value);
      return false;
    }
  }
  if (config->workload != "all" && FindWorkload(config->workload) == nullptr) {
    std::fprintf(stderr, "seltrig_bench: unknown workload %s\n", config->workload.c_str());
    return false;
  }
  if (!(config->duration_s > 0.0) || config->warmup_s < 0.0 ||
      !(config->scale_factor > 0.0)) {
    std::fprintf(stderr, "seltrig_bench: --duration and --sf must be positive, "
                         "--warmup non-negative\n");
    return false;
  }
  return true;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string StampJson(const Config& config) {
  std::ostringstream out;
  out << "\"git_sha\": " << JsonString(SELTRIG_BENCH_GIT_SHA)
      << ", \"build_type\": " << JsonString(SELTRIG_BENCH_BUILD_TYPE)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"sf\": " << FormatNumber(config.scale_factor) << ", \"seed\": " << config.seed
      << ", \"duration_s\": " << FormatNumber(config.duration_s)
      << ", \"warmup_s\": " << FormatNumber(config.warmup_s);
  return out.str();
}

void PrintMetrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("  %s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("    %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// Statements per second of a phase: the median over 1-second windows where
// windows hold many statements, else completions over elapsed time (olap_tpch
// statements take up to a second each).
double Throughput(const WorkloadSpec& spec, const PhaseResult& phase, double duration_s) {
  if (spec.kind == WorkloadKind::kOlapTpch || duration_s < 1.0) {
    return static_cast<double>(phase.samples.size()) / phase.elapsed_s;
  }
  std::vector<double> ends;
  ends.reserve(phase.samples.size());
  for (const Sample& s : phase.samples) ends.push_back(s.end_s);
  return MedianWindowRate(ends, 0.0, duration_s);
}

struct Outcome {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> classes;  // JSON members, one per statement class
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void EndToEndMetrics(const WorkloadSpec& spec, const PhaseResult& phase, double duration_s,
                     double setup_s, uint64_t journal_bytes, Outcome* outcome) {
  std::vector<double> reads;
  std::vector<double> writes;
  std::map<int, std::vector<double>> by_class;
  for (const Sample& s : phase.samples) {
    (IsSelectClass(s.cls) ? reads : writes).push_back(s.latency_ms);
    by_class[s.cls].push_back(s.latency_ms);
  }
  std::vector<double> class_medians;
  for (const auto& [cls, latencies] : by_class) {
    const double median = Median(latencies);
    class_medians.push_back(median);
    outcome->classes.push_back(JsonString(ClassName(cls)) +
                               ": {\"count\": " + std::to_string(latencies.size()) +
                               ", \"p50_ms\": " + FormatNumber(median) + "}");
  }
  std::vector<Metric>& m = outcome->end_to_end;
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"throughput_sps", Throughput(spec, phase, duration_s), "stmt/s"});
  m.push_back({"query_geomean_ms", GeometricMean(class_medians), "ms"});
  m.push_back({"read_p50_ms", Median(reads), "ms"});
  if (auto p99 = SupportedPercentile(reads, 0.99)) m.push_back({"read_p99_ms", *p99, "ms"});
  if (!writes.empty()) m.push_back({"write_p50_ms", Median(writes), "ms"});
  if (auto p99 = SupportedPercentile(writes, 0.99)) m.push_back({"write_p99_ms", *p99, "ms"});
  m.push_back({"error_rate",
               phase.attempted == 0 ? 0.0
                                    : static_cast<double>(phase.failed) /
                                          static_cast<double>(phase.attempted),
               "fraction"});
  m.push_back({"journal_bytes_per_stmt",
               phase.samples.empty() ? 0.0
                                     : static_cast<double>(journal_bytes) /
                                           static_cast<double>(phase.samples.size()),
               "B"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  outcome->attempted = phase.attempted;
  outcome->failed = phase.failed;
}

void PerLayerMetrics(const PhaseResult& traced, double traced_throughput,
                     double untraced_throughput, const std::vector<SetupTimes>& setups,
                     const LayerProbes& probes, Outcome* outcome) {
  std::vector<double> parse, bind, optimize, place, post_place, execute, self;
  for (const StageSample& s : traced.stages) {
    parse.push_back(s.parse_us);
    bind.push_back(s.bind_us);
    optimize.push_back(s.optimize_us);
    place.push_back(s.place_us);
    post_place.push_back(s.post_place_us);
    execute.push_back(s.execute_us);
    self.push_back(s.session_us - (s.parse_us + s.bind_us + s.optimize_us + s.place_us +
                                   s.post_place_us + s.execute_us));
  }
  std::vector<double> load, checkpoint, catchup;
  for (const SetupTimes& t : setups) {
    load.push_back(t.load_s);
    checkpoint.push_back(t.checkpoint_s);
    catchup.push_back(t.catchup_s);
  }
  const SelectTotals& t = traced.totals;
  const auto per = [](uint64_t num, uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  };
  std::vector<Metric>& m = outcome->per_layer;
  m.push_back({"sql.parse_us", Median(parse), "us"});
  m.push_back({"binder.bind_us", Median(bind), "us"});
  m.push_back({"optimizer.optimize_us", Median(optimize), "us"});
  m.push_back({"audit.place_us", Median(place), "us"});
  m.push_back({"optimizer.post_place_us", Median(post_place), "us"});
  m.push_back({"exec.execute_us", Median(execute), "us"});
  m.push_back({"engine.self_us", Median(self), "us"});
  m.push_back({"engine.session_scaling", probes.session_scaling, "ratio"});
  m.push_back({"audit.overhead_pct", probes.overhead_pct, "%"});
  m.push_back({"audit.overhead_ci_pct", probes.overhead_ci_pct, "%"});
  m.push_back({"audit.rows_probed_per_stmt", per(t.rows_probed, t.selects), "rows/stmt"});
  m.push_back({"audit.probe_hit_ratio", per(t.probe_hits, t.rows_probed), "ratio"});
  m.push_back({"audit.prescreened_batches_per_stmt", per(t.prescreened_batches, t.selects),
               "batches/stmt"});
  m.push_back({"audit.accessed_ids_per_stmt", per(t.accessed_ids, t.selects), "ids/stmt"});
  m.push_back({"audit.trigger_fire_ratio", per(t.fired, t.selects), "ratio"});
  m.push_back({"audit.trigger_action_us", probes.trigger_action_us, "us"});
  m.push_back({"exec.rows_scanned_per_stmt", per(t.rows_scanned, t.selects), "rows/stmt"});
  m.push_back({"exec.rows_scanned_per_row_out", per(t.rows_scanned, t.rows_out), "ratio"});
  m.push_back({"exec.subquery_execs_per_stmt", per(t.subquery_executions, t.selects),
               "execs/stmt"});
  m.push_back({"exec.gather_speedup", probes.gather_speedup, "ratio"});
  m.push_back({"storage.lookup_warm_us", probes.lookup_warm_us, "us"});
  m.push_back({"storage.lookup_after_write_us", probes.lookup_after_write_us, "us"});
  m.push_back({"storage.commit_wait_us", probes.commit_wait_us, "us"});
  m.push_back({"storage.checkpoint_s", Median(checkpoint), "s"});
  m.push_back({"tpch.load_s", Median(load), "s"});
  m.push_back({"replication.catchup_s",
               probes.catchup_s > 0.0 ? probes.catchup_s : Median(catchup), "s"});
  m.push_back({"replication.ack_wait_us", probes.ack_wait_us, "us"});
  m.push_back({"replication.drain_ms", probes.drain_ms, "ms"});
  m.push_back({"replication.naks_per_1k_records", probes.naks_per_1k_records, "count"});
  m.push_back({"replication.reconnects", probes.reconnects, "count"});
  m.push_back({"replication.duplicates_dropped", probes.duplicates_dropped, "count"});
  m.push_back({"trace.overhead_pct",
               (untraced_throughput / traced_throughput - 1.0) * 100.0, "%"});
}

// Removes the run's scratch directory on every exit path.
struct ScratchDir {
  std::filesystem::path path;
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
};

Status RunOne(const Config& config, const WorkloadSpec& spec) {
  ScratchDir scratch{std::filesystem::temp_directory_path() /
                     ("seltrig_bench." + std::to_string(getpid()))};
  std::filesystem::remove_all(scratch.path);
  std::filesystem::create_directories(scratch.path);
  const bool traced = !config.trace_path.empty();
  Tracer tracer;
  Tracer::Buffer* setup_spans = traced ? tracer.NewBuffer("setup") : nullptr;

  std::printf("== %s  seed %llu  sf %g  duration %g s  warm-up %g s  (%s, %s, %u cores)\n",
              spec.name, static_cast<unsigned long long>(config.seed), config.scale_factor,
              config.duration_s, config.warmup_s, SELTRIG_BENCH_GIT_SHA,
              SELTRIG_BENCH_BUILD_TYPE, std::thread::hardware_concurrency());
  std::fflush(stdout);

  // The last of the set-ups is kept for the workload.
  std::vector<SetupTimes> setups;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    SetupTimes times;
    SELTRIG_ASSIGN_OR_RETURN(
        fixture, Fixture::Create((scratch.path / ("db" + std::to_string(i))).string(),
                                 config.scale_factor, spec.follower, setup_spans, &times));
    setups.push_back(times);
  }
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total_s);

  WorkloadRun run(spec, config.seed, fixture.get());
  SELTRIG_RETURN_IF_ERROR(run.CaptureReference());

  // Warm-up, excluded from every metric: --warmup seconds, or one full round
  // of the seven queries for olap_tpch.
  PhaseOptions warmup;
  warmup.sessions = spec.clients;
  warmup.duration_s = spec.kind == WorkloadKind::kOlapTpch ? 0.0 : config.warmup_s;
  SELTRIG_ASSIGN_OR_RETURN(PhaseResult warm, run.RunPhase(warmup));

  PhaseOptions measure;
  measure.sessions = spec.clients;
  measure.duration_s = config.duration_s;
  const WalPosition journal_start = run.db()->wal()->current_position();
  SELTRIG_ASSIGN_OR_RETURN(PhaseResult measured, run.RunPhase(measure));
  SELTRIG_ASSIGN_OR_RETURN(uint64_t journal_bytes,
                           run.fixture()->JournalBytesSince(journal_start));
  // Taken before anything traced runs, so peak RSS does not depend on --trace.
  Outcome outcome;
  EndToEndMetrics(spec, measured, config.duration_s, Median(totals), journal_bytes, &outcome);
  outcome.attempted += warm.attempted;
  outcome.failed += warm.failed;

  std::optional<PhaseResult> traced_phase;
  if (traced) {
    measure.tracer = &tracer;
    SELTRIG_ASSIGN_OR_RETURN(traced_phase, run.RunPhase(measure));
  }
  SELTRIG_RETURN_IF_ERROR(run.CheckFinal());

  if (traced) {
    LayerProbes probes;
    SELTRIG_RETURN_IF_ERROR(RunLayerProbes(&run, std::max(1.0, config.duration_s / 4.0),
                                           config.seed, &tracer, &probes));
    const double untraced_tps = Throughput(spec, measured, config.duration_s);
    const double traced_tps = Throughput(spec, *traced_phase, config.duration_s);
    PerLayerMetrics(*traced_phase, traced_tps, untraced_tps, setups, probes, &outcome);
    outcome.attempted += traced_phase->attempted;
    outcome.failed += traced_phase->failed;
  }

  PrintMetrics("end-to-end (untraced window)", outcome.end_to_end);
  if (traced) {
    PrintMetrics("per-layer (traced window and paired probes)", outcome.per_layer);
    std::map<std::string, std::string> metadata = {
        {"workload", spec.name},
        {"seed", std::to_string(config.seed)},
        {"git_sha", SELTRIG_BENCH_GIT_SHA},
        {"build_type", SELTRIG_BENCH_BUILD_TYPE}};
    if (!tracer.WriteChromeJson(config.trace_path, metadata)) {
      return Status::Unavailable("cannot write trace " + config.trace_path);
    }
    std::printf("  trace: %zu spans -> %s\n", tracer.span_count(), config.trace_path.c_str());
  }

  if (!config.out_path.empty()) {
    std::string classes;
    for (size_t i = 0; i < outcome.classes.size(); ++i) {
      classes += (i > 0 ? ", " : "") + outcome.classes[i];
    }
    std::string result = "{\"workload\": " + JsonString(spec.name) +
                         ", \"correct\": true, \"attempted\": " +
                         std::to_string(outcome.attempted) +
                         ", \"failed\": " + std::to_string(outcome.failed) +
                         ", \"metrics\": " + MetricsJson(outcome.end_to_end) +
                         ", \"per_layer\": " + MetricsJson(outcome.per_layer) +
                         ", \"classes\": {" + classes + "}}";
    std::ofstream out(config.out_path);
    out << "{" << StampJson(config) << ", \"results\": [\n" << result << "\n]}\n";
    if (!out) return Status::Unavailable("cannot write " + config.out_path);
  }
  return Status::OK();
}

// The trace file of one workload in an --workload all run.
std::string TracePathFor(const std::string& path, const std::string& workload) {
  const std::filesystem::path p(path);
  return (p.parent_path() / (p.stem().string() + "." + workload + p.extension().string()))
      .string();
}

// Runs every workload in a fresh child process and merges their results.
int RunAll(const Config& config) {
  std::vector<std::string> results;
  for (const WorkloadSpec& spec : AllWorkloads()) {
    const std::string child_out =
        (std::filesystem::temp_directory_path() /
         ("seltrig_bench." + std::to_string(getpid()) + "." + spec.name + ".json"))
            .string();
    std::vector<std::string> args = {
        "/proc/self/exe",   "--workload", spec.name,
        "--seed",           std::to_string(config.seed),
        "--duration",       FormatNumber(config.duration_s),
        "--warmup",         FormatNumber(config.warmup_s),
        "--sf",             FormatNumber(config.scale_factor),
        "--out",            child_out};
    if (!config.trace_path.empty()) {
      args.push_back("--trace");
      args.push_back(TracePathFor(config.trace_path, spec.name));
    }
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("seltrig_bench: fork");
      return 1;
    }
    if (pid == 0) {
      execv(argv[0], argv.data());
      std::perror("seltrig_bench: execv");
      _exit(127);
    }
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        std::perror("seltrig_bench: waitpid");
        return 1;
      }
    }
    std::ifstream in(child_out);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("{\"workload\"", 0) == 0) results.push_back(line);
    }
    in.close();
    std::filesystem::remove(child_out);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "seltrig_bench: workload %s failed\n", spec.name);
      return 1;
    }
  }
  if (!config.out_path.empty()) {
    std::ofstream out(config.out_path);
    out << "{" << StampJson(config) << ", \"results\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
      out << results[i] << (i + 1 < results.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    if (!out) {
      std::fprintf(stderr, "seltrig_bench: cannot write %s\n", config.out_path.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace seltrig::bench

int main(int argc, char** argv) {
  using namespace seltrig::bench;
  Config config;
  if (!ParseArgs(argc, argv, &config)) {
    Usage();
    return 2;
  }
  if (config.workload == "all") return RunAll(config);
  const seltrig::Status status = RunOne(config, *FindWorkload(config.workload));
  if (!status.ok()) {
    std::fprintf(stderr, "seltrig_bench: %s: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}
