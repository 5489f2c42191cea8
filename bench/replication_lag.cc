// Replication lag/latency benchmark (docs/REPLICATION.md): one in-process
// primary -> follower pair, measuring
//
//   - commit latency without replication (the local durability floor),
//   - commit latency with an async follower attached (should track the
//     floor: shipping is off the commit path),
//   - commit latency in sync-ack mode (floor + ship + follower fsync +
//     apply + ack round trip),
//   - async catch-up lag: how long the follower needs to drain the journal
//     once the workload stops,
//   - commit latency through an elected leader: a three-node cluster under
//     the election layer (replication/election.h) with sync acks — the
//     sync-follower cost plus whatever the live heartbeat/election machinery
//     adds to the commit path (it should add nothing: elections share the
//     wire but not the ack path).
//
// Appends one JSON line per run to BENCH_replication.json at the repository
// root — an append-only trajectory, each line stamped with the commit, build
// type and core count (no google-benchmark dependency: latencies here come
// from explicit clocks around whole statements, not a tight loop) — and
// prints the same numbers to stdout.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/status.h"
#include "engine/database.h"
#include "replication/applier.h"
#include "replication/election.h"
#include "replication/shipper.h"
#include "replication/transport.h"
#include "storage/wal.h"

namespace seltrig {
namespace {

constexpr int kCommits = 200;

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(p * (values.size() - 1) + 0.5));
  return values[index];
}

struct RunResult {
  double p50_us = 0.0;
  double p95_us = 0.0;
  double catchup_ms = 0.0;  // async drain after the last commit; 0 otherwise
};

ShipperOptions BenchOptions(ReplicationAckMode mode) {
  ShipperOptions options;
  options.ack_mode = mode;
  options.heartbeat_interval_ms = 10;
  options.ack_timeout_ms = 10000;  // never degrade mid-measurement
  options.initial_backoff_ms = 1;
  options.max_backoff_ms = 20;
  return options;
}

// Runs kCommits single-row inserts on a fresh journaled primary, optionally
// replicated to a fresh follower. `mode` < 0 means no replication at all.
Result<RunResult> Run(const std::string& base, int mode) {
  const std::string primary_dir = base + "_p";
  const std::string follower_dir = base + "_f";
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(follower_dir);

  auto opened = Database::Recover(primary_dir);
  if (!opened.ok()) return opened.status();
  std::unique_ptr<Database> db = std::move(*opened);
  Status schema = db->ExecuteScript(
      "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
      "diagnosis VARCHAR);");
  if (!schema.ok()) return schema;

  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<LogShipper> shipper;
  if (mode >= 0) {
    auto follower = ReplicaApplier::Open(follower_dir);
    if (!follower.ok()) return follower.status();
    applier = std::move(*follower);
    shipper = std::make_unique<LogShipper>(
        db.get(), BenchOptions(static_cast<ReplicationAckMode>(mode)));
    ReplicaApplier* raw = applier.get();
    shipper->AddFollower("f0",
                         [raw]() -> Result<std::shared_ptr<FrameChannel>> {
                           raw->Stop();
                           ChannelPair pair = CreateInProcessChannelPair();
                           raw->Start(pair.follower_end);
                           return pair.primary_end;
                         });
  }

  RunResult result;
  std::vector<double> latencies_us;
  latencies_us.reserve(kCommits);
  for (int i = 0; i < kCommits; ++i) {
    const std::string sql = "INSERT INTO patients VALUES (" +
                            std::to_string(i) + ", 'P', 'bench')";
    const auto start = std::chrono::steady_clock::now();
    auto r = db->Execute(sql);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) return r.status();
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p95_us = Percentile(latencies_us, 0.95);

  if (shipper != nullptr) {
    const auto drain_start = std::chrono::steady_clock::now();
    const auto deadline = drain_start + std::chrono::seconds(60);
    while (!shipper->AllCaughtUp() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    result.catchup_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - drain_start)
                            .count();
    shipper->Stop();
    applier->Stop();
  }
  std::filesystem::remove_all(primary_dir);
  std::filesystem::remove_all(follower_dir);
  return result;
}

// Elected-cluster case: three ElectionNodes over the in-process mesh, sync
// acks. Commits run through whichever leader the cluster elected; catch-up
// is the time for every follower to ack the leader's final journal tip.
Result<RunResult> RunElected(const std::string& base) {
  const std::vector<std::string> ids = {"n0", "n1", "n2"};
  for (const std::string& id : ids) {
    std::filesystem::remove_all(base + "_" + id);
  }

  ElectionMesh mesh;
  std::mutex registry_mutex;
  std::map<std::string, ElectionNode*> registry;
  std::vector<std::unique_ptr<ElectionNode>> nodes;
  for (const std::string& id : ids) {
    ElectionOptions options;
    options.id = id;
    options.dir = base + "_" + id;
    for (const std::string& peer : ids) {
      if (peer != id) options.peers.push_back(peer);
    }
    options.heartbeat_interval_ms = 10;
    options.election_timeout_min_ms = 40;
    options.election_timeout_max_ms = 120;
    options.poll_interval_ms = 1;
    options.shipper = BenchOptions(ReplicationAckMode::kSync);
    auto node = ElectionNode::Start(
        std::move(options), mesh.Endpoint(id),
        [&registry_mutex, &registry](const std::string& peer)
            -> Result<std::shared_ptr<FrameChannel>> {
          std::lock_guard<std::mutex> lock(registry_mutex);
          auto it = registry.find(peer);
          if (it == registry.end()) {
            return Status::Unavailable("peer " + peer + " is down");
          }
          return it->second->AcceptReplication();
        });
    if (!node.ok()) return node.status();
    {
      std::lock_guard<std::mutex> lock(registry_mutex);
      registry[id] = node->get();
    }
    nodes.push_back(std::move(*node));
  }

  auto stop_all = [&]() {
    {
      std::lock_guard<std::mutex> lock(registry_mutex);
      registry.clear();
    }
    for (auto& node : nodes) node->Stop();
  };

  // Wait for the cold-start election to settle on a leader.
  ElectionNode* leader = nullptr;
  const auto elect_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (leader == nullptr &&
         std::chrono::steady_clock::now() < elect_deadline) {
    for (auto& node : nodes) {
      if (node->info().role == ElectionRole::kLeader) leader = node.get();
    }
    if (leader == nullptr) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (leader == nullptr) {
    stop_all();
    return Status::Unavailable("no leader elected within 30s");
  }

  // Per the leader_database() contract, hold the handle only across
  // individual statements.
  auto run_on_leader = [&](const std::string& sql) -> Status {
    std::shared_ptr<Database> db = leader->leader_database();
    if (db == nullptr) return Status::Unavailable("leader stepped down");
    return db->Execute(sql).status();
  };
  Status schema = run_on_leader(
      "CREATE TABLE patients (patientid INT PRIMARY KEY, name VARCHAR, "
      "diagnosis VARCHAR)");
  if (!schema.ok()) {
    stop_all();
    return schema;
  }

  RunResult result;
  std::vector<double> latencies_us;
  latencies_us.reserve(kCommits);
  for (int i = 0; i < kCommits; ++i) {
    const std::string sql = "INSERT INTO patients VALUES (" +
                            std::to_string(i) + ", 'P', 'bench')";
    const auto start = std::chrono::steady_clock::now();
    Status r = run_on_leader(sql);
    const auto end = std::chrono::steady_clock::now();
    if (!r.ok()) {
      stop_all();
      return r;
    }
    latencies_us.push_back(
        std::chrono::duration<double, std::micro>(end - start).count());
  }
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p95_us = Percentile(latencies_us, 0.95);

  WalPosition tip;
  {
    std::shared_ptr<Database> db = leader->leader_database();
    if (db != nullptr && db->wal() != nullptr) {
      tip = db->wal()->current_position();
    }
  }
  const auto drain_start = std::chrono::steady_clock::now();
  const auto drain_deadline = drain_start + std::chrono::seconds(60);
  bool caught_up = false;
  while (!caught_up && std::chrono::steady_clock::now() < drain_deadline) {
    std::vector<FollowerStatus> statuses = leader->FollowerStatuses();
    caught_up = statuses.size() + 1 == ids.size();
    for (const FollowerStatus& f : statuses) {
      if (f.acked < tip) caught_up = false;
    }
    if (!caught_up) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  result.catchup_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - drain_start)
                          .count();

  stop_all();
  for (const std::string& id : ids) {
    std::filesystem::remove_all(base + "_" + id);
  }
  return result;
}

int Main() {
  const std::string base =
      (std::filesystem::temp_directory_path() / "seltrig_repl_bench").string();

  struct Case {
    const char* name;
    int mode;  // -1 = no replication
  };
  const Case cases[] = {
      {"local_only", -1},
      {"async_follower", static_cast<int>(ReplicationAckMode::kAsync)},
      {"sync_follower", static_cast<int>(ReplicationAckMode::kSync)},
      {"elected_sync", -2},  // three-node elected cluster, sync acks
  };

  std::string json =
      "\"commits\":" + std::to_string(kCommits) + ",\"cases\":[";
  bool first = true;
  for (const Case& c : cases) {
    Result<RunResult> r = c.mode == -2 ? RunElected(base + "_" + c.name)
                                       : Run(base + "_" + c.name, c.mode);
    if (!r.ok()) {
      std::fprintf(stderr, "replication_lag: %s failed: %s\n", c.name,
                   r.status().message().c_str());
      return 1;
    }
    std::printf(
        "%-16s commit p50 %8.1f us   p95 %8.1f us   catch-up %8.2f ms\n",
        c.name, r->p50_us, r->p95_us, r->catchup_ms);
    if (!first) json += ",";
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"commit_p50_us\":%.1f,"
                  "\"commit_p95_us\":%.1f,\"catchup_ms\":%.2f}",
                  c.name, r->p50_us, r->p95_us, r->catchup_ms);
    json += buf;
  }
  json += "]";
  bench::AppendJsonLine(
      std::string(SELTRIG_REPO_ROOT) + "/BENCH_replication.json",
      "replication_lag", json);
  return 0;
}

}  // namespace
}  // namespace seltrig

int main() { return seltrig::Main(); }
