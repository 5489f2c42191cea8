#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "decompose.h"

namespace seltrig::bench {

namespace {

// Share of SELECTs decomposed in traced phases (besides the first of each
// class): enough samples per stage without doubling the traced load.
constexpr uint64_t kDecomposeEvery = 16;
// Statement spans kept in traced phases: every 16th statement plus every
// decomposed one, so a 10 s trace stays a few MB.
constexpr uint64_t kSpanEvery = 16;

const std::vector<Value>& AccessedIds(const StatementResult& result) {
  static const std::vector<Value> kNone;
  auto it = result.accessed.find(kAuditName);
  return it == result.accessed.end() ? kNone : it->second;
}

uint64_t Fnv1a(uint64_t hash, const std::string& bytes) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ull;

// Options for the benchmark's own bookkeeping queries: no trigger fires, so
// they add nothing to audit_log.
ExecOptions QuietOptions() {
  ExecOptions options;
  options.enable_select_triggers = false;
  return options;
}

Result<QueryResult> RunQuiet(Database* db, const std::string& sql) {
  SELTRIG_ASSIGN_OR_RETURN(StatementResult result, db->ExecuteWithOptions(sql, QuietOptions()));
  return std::move(result.result);
}

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"olap_tpch", WorkloadKind::kOlapTpch, 1, 2, false},
      {"point_read", WorkloadKind::kPointRead, 2, 1, false},
      {"point_mixed", WorkloadKind::kPointMixed, 2, 1, false},
      {"replicated_write", WorkloadKind::kReplicatedWrite, 2, 1, true},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::string ClassName(int cls) {
  switch (cls) {
    case kCustomerLookup: return "customer_lookup";
    case kOrderLookup: return "order_lookup";
    case kCustomerUpdate: return "customer_update";
    case kOrderInsert: return "order_insert";
    default: break;
  }
  const std::vector<tpch::TpchQuery> queries = tpch::WorkloadQueries();
  const size_t q = static_cast<size_t>(cls - kFirstQuery);
  return q < queries.size() ? "q" + std::to_string(queries[q].number) : "unknown";
}

uint64_t HashRows(const std::vector<Row>& rows) {
  uint64_t hash = kFnvBasis;
  for (const Row& row : rows) hash = Fnv1a(hash, RowToString(row) + "\n");
  return hash;
}

uint64_t HashIds(const std::vector<Value>& ids) {
  uint64_t hash = kFnvBasis;
  for (const Value& id : ids) hash = Fnv1a(hash, id.ToString() + ",");
  return hash;
}

std::string OrderInsertSql(int64_t key, int64_t customers, std::mt19937_64* rng) {
  std::uniform_int_distribution<int64_t> customer(1, customers);
  std::uniform_int_distribution<int> cents(100, 50000000);
  std::uniform_int_distribution<int> year(1992, 1998);
  std::uniform_int_distribution<int> month(1, 12);
  std::uniform_int_distribution<int> day(1, 28);
  const long long custkey = customer(*rng);
  const int price = cents(*rng);
  const int y = year(*rng);
  const int m = month(*rng);
  const int d = day(*rng);
  char values[160];
  std::snprintf(values, sizeof(values),
                "%lld, 'O', %d.%02d, DATE '%04d-%02d-%02d', '3-MEDIUM', "
                "'Clerk#000000042', 0, 'seltrig_bench')",
                custkey, price / 100, price % 100, y, m, d);
  return "INSERT INTO orders VALUES (" + std::to_string(key) + ", " + values;
}

Result<int64_t> QueryScalar(Database* db, const std::string& sql) {
  SELTRIG_ASSIGN_OR_RETURN(QueryResult result, RunQuiet(db, sql));
  if (result.rows.size() != 1 || result.rows[0].size() != 1 ||
      result.rows[0][0].type() != TypeId::kInt) {
    return Status::Internal("expected one integer from: " + sql);
  }
  return result.rows[0][0].AsInt();
}

// --- Client ------------------------------------------------------------------

Client::Client(const WorkloadSpec& spec, int index, uint64_t seed, Reference* reference)
    : spec_(spec), index_(index), reference_(reference) {
  std::seed_seq seq{seed, static_cast<uint64_t>(index), static_cast<uint64_t>(spec.kind)};
  rng_.seed(seq);
  auto add = [this](int cls, int copies) { deck_.insert(deck_.end(), copies, cls); };
  // Fixed-composition decks (one round for olap_tpch, 20 statements for the
  // point workloads) make every deck carry the exact mix, so the mix itself
  // adds no run-to-run variance.
  switch (spec.kind) {
    case WorkloadKind::kOlapTpch:
      for (size_t q = 0; q < reference->queries.size(); ++q) {
        add(kFirstQuery + static_cast<int>(q), 1);
      }
      break;
    case WorkloadKind::kPointRead:
      add(kCustomerLookup, 10);
      add(kOrderLookup, 10);
      break;
    case WorkloadKind::kPointMixed:
      add(kCustomerLookup, 9);
      add(kOrderLookup, 9);
      add(kCustomerUpdate, 1);
      add(kOrderInsert, 1);
      break;
    case WorkloadKind::kReplicatedWrite:
      add(kOrderInsert, 10);
      add(kCustomerLookup, 10);
      break;
  }
  deck_pos_ = deck_.size();
  next_order_key_ = reference->first_fresh_order + index;
}

bool Client::AtBoundary() const {
  return spec_.kind != WorkloadKind::kOlapTpch || deck_pos_ == deck_.size();
}

int64_t Client::OwnedCustomer() {
  // Keys congruent to index mod 2, uniform over 1..customers.
  const int64_t first = index_ % 2 == 0 ? 2 : 1;
  const int64_t count = (reference_->customers - first) / 2 + 1;
  std::uniform_int_distribution<int64_t> pick(0, count - 1);
  return first + 2 * pick(rng_);
}

Statement Client::Next() {
  if (deck_pos_ == deck_.size()) {
    std::shuffle(deck_.begin(), deck_.end(), rng_);
    deck_pos_ = 0;
  }
  Statement stmt;
  stmt.cls = deck_[deck_pos_++];
  switch (stmt.cls) {
    case kCustomerLookup: {
      std::uniform_int_distribution<int64_t> pick(1, reference_->customers);
      stmt.key = pick(rng_);
      stmt.sql = "SELECT c_name, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = " +
                 std::to_string(stmt.key);
      break;
    }
    case kOrderLookup: {
      std::uniform_int_distribution<int64_t> pick(1, reference_->orders);
      stmt.key = pick(rng_);
      stmt.sql = "SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = " +
                 std::to_string(stmt.key);
      break;
    }
    case kCustomerUpdate: {
      stmt.key = OwnedCustomer();
      stmt.segment = (rng_() & 1) != 0 ? "BUILDING" : "MACHINERY";
      stmt.sql = "UPDATE customer SET c_mktsegment = '" + stmt.segment +
                 "' WHERE c_custkey = " + std::to_string(stmt.key);
      break;
    }
    case kOrderInsert:
      stmt.key = next_order_key_;
      next_order_key_ += 2;
      stmt.sql = OrderInsertSql(stmt.key, reference_->customers, &rng_);
      break;
    default:
      stmt.sql = reference_->queries[static_cast<size_t>(stmt.cls - kFirstQuery)].sql;
      break;
  }
  return stmt;
}

Status Client::Check(const Statement& stmt, const StatementResult& result) {
  const std::vector<Value>& ids = AccessedIds(result);
  const std::vector<Row>& rows = result.result.rows;
  auto fail = [&](const std::string& why) {
    return Status::Internal("oracle: " + why + " for: " + stmt.sql);
  };
  switch (stmt.cls) {
    case kCustomerLookup: {
      if (rows.size() != 1 || rows[0].size() != 3 || rows[0][2].type() != TypeId::kString) {
        return fail("expected one (c_name, c_acctbal, c_mktsegment) row");
      }
      const std::string& segment = rows[0][2].AsString();
      // hcn is exact for this select-only plan (Theorem 3.7): ACCESSED is
      // {K} exactly when K is a BUILDING customer in the state it read.
      const bool sensitive = segment == "BUILDING";
      if (sensitive ? (ids.size() != 1 || ids[0] != Value::Int(stmt.key)) : !ids.empty()) {
        return fail("ACCESSED has " + std::to_string(ids.size()) + " ids for segment " + segment);
      }
      // The segment itself is known unless another client may have changed it.
      const bool known = spec_.kind != WorkloadKind::kPointMixed || stmt.key % 2 == index_ % 2;
      if (known && segment != reference_->segments[static_cast<size_t>(stmt.key)]) {
        return fail("segment " + segment + ", expected " +
                    reference_->segments[static_cast<size_t>(stmt.key)]);
      }
      audit_rows_ += ids.size();
      return Status::OK();
    }
    case kOrderLookup:
      if (rows.size() != 1 || rows[0].empty() || rows[0][0] != Value::Int(stmt.key)) {
        return fail("expected the order's row");
      }
      if (!ids.empty()) return fail("an order lookup recorded ACCESSED ids");
      return Status::OK();
    case kCustomerUpdate:
      if (result.result.affected_rows != 1) return fail("expected one updated row");
      reference_->segments[static_cast<size_t>(stmt.key)] = stmt.segment;
      return Status::OK();
    case kOrderInsert:
      if (result.result.affected_rows != 1) return fail("expected one inserted row");
      inserted_orders_.push_back(stmt.key);
      return Status::OK();
    default: {
      const Reference::Answer& want =
          reference_->answers[static_cast<size_t>(stmt.cls - kFirstQuery)];
      if (rows.size() != want.rows || HashRows(rows) != want.row_hash) {
        return fail("rows differ from the serial reference run");
      }
      if (HashIds(ids) != want.accessed_hash) {
        return fail("ACCESSED differs from the serial reference run");
      }
      audit_rows_ += ids.size();
      return Status::OK();
    }
  }
}

// --- WorkloadRun ---------------------------------------------------------------

WorkloadRun::WorkloadRun(const WorkloadSpec& spec, uint64_t seed, Fixture* fixture)
    : spec_(spec), fixture_(fixture), seed_(seed) {}

ExecOptions WorkloadRun::options() const {
  ExecOptions options;
  options.num_threads = spec_.num_threads;
  return options;
}

Status WorkloadRun::CaptureReference() {
  Database* database = db();
  SELTRIG_ASSIGN_OR_RETURN(reference_.customers,
                           QueryScalar(database, "SELECT COUNT(*) FROM customer"));
  SELTRIG_ASSIGN_OR_RETURN(reference_.orders,
                           QueryScalar(database, "SELECT COUNT(*) FROM orders"));
  SELTRIG_ASSIGN_OR_RETURN(int64_t max_order,
                           QueryScalar(database, "SELECT MAX(o_orderkey) FROM orders"));
  // dbgen keys are dense from 1, which the uniform key draws rely on.
  if (max_order != reference_.orders) return Status::Internal("order keys are not dense");
  reference_.first_fresh_order = (max_order / 2 + 1) * 2;

  SELTRIG_ASSIGN_OR_RETURN(QueryResult segments,
                           RunQuiet(database, "SELECT c_custkey, c_mktsegment FROM customer"));
  reference_.segments.assign(static_cast<size_t>(reference_.customers) + 1, "");
  for (const Row& row : segments.rows) {
    const int64_t key = row[0].AsInt();
    if (key < 1 || key > reference_.customers) {
      return Status::Internal("customer keys are not dense");
    }
    reference_.segments[static_cast<size_t>(key)] = row[1].AsString();
  }

  if (spec_.kind == WorkloadKind::kOlapTpch) {
    reference_.queries = tpch::WorkloadQueries();
    ExecOptions serial = QuietOptions();
    serial.instrument_all_audit_expressions = true;
    serial.num_threads = 1;
    for (const tpch::TpchQuery& query : reference_.queries) {
      SELTRIG_ASSIGN_OR_RETURN(StatementResult result,
                               database->ExecuteWithOptions(query.sql, serial));
      Reference::Answer answer;
      answer.rows = result.result.rows.size();
      answer.row_hash = HashRows(result.result.rows);
      answer.accessed_hash = HashIds(AccessedIds(result));
      reference_.answers.push_back(answer);
    }
  }
  SELTRIG_ASSIGN_OR_RETURN(reference_.audit_rows_at_setup,
                           QueryScalar(database, "SELECT COUNT(*) FROM audit_log"));

  for (int i = 0; i < std::max(spec_.clients, 2); ++i) {
    clients_.push_back(std::make_unique<Client>(spec_, i, seed_, &reference_));
  }
  return Status::OK();
}

Result<PhaseResult> WorkloadRun::RunPhase(const PhaseOptions& options) {
  struct Slot {
    PhaseResult result;
    Status status;
  };
  const int sessions = std::clamp(options.sessions, 1, static_cast<int>(clients_.size()));
  std::vector<Slot> slots(static_cast<size_t>(sessions));
  std::atomic<bool> abort{false};
  const ExecOptions exec = this->options();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(options.duration_s));

  auto run_client = [&](int i, Tracer::Buffer* buffer) -> Status {
    Client* c = client(i);
    PhaseResult& out = slots[static_cast<size_t>(i)].result;
    std::unique_ptr<Session> session = db()->CreateSession();
    std::vector<bool> class_decomposed(kFirstQuery + 16, false);
    uint64_t statements = 0;
    uint64_t selects = 0;
    bool decompose_next = false;
    int failures_logged = 0;
    while (!abort.load(std::memory_order_relaxed)) {
      // Every client runs at least one statement (olap_tpch: one round), so
      // a zero-length phase is the one-round warm-up.
      if (out.attempted > 0 && c->AtBoundary() && Clock::now() >= deadline) break;
      const Statement stmt = c->Next();
      ++out.attempted;
      const Clock::time_point t0 = Clock::now();
      Result<StatementResult> result = session->ExecuteWithOptions(stmt.sql, exec);
      const Clock::time_point t1 = Clock::now();
      if (!result.ok()) {
        ++out.failed;
        if (failures_logged++ < 3) {
          std::fprintf(stderr, "seltrig_bench: statement failed: %s: %s\n",
                       result.status().ToString().c_str(), stmt.sql.c_str());
        }
        continue;
      }
      SELTRIG_RETURN_IF_ERROR(c->Check(stmt, *result));
      out.samples.push_back({Seconds(t1 - start),
                             Millis(t1 - t0),
                             static_cast<uint8_t>(stmt.cls)});
      const bool is_select = IsSelectClass(stmt.cls);
      if (is_select) {
        const ExecStats& stats = result->stats;
        const size_t ids = AccessedIds(*result).size();
        out.totals += SelectTotals{1,
                                   result->result.rows.size(),
                                   stats.rows_scanned,
                                   stats.rows_through_audit_ops,
                                   stats.audit_probe_hits,
                                   stats.audit_batches_prescreened,
                                   stats.subquery_executions,
                                   ids,
                                   ids > 0 ? 1u : 0u};
      }
      if (buffer == nullptr) continue;

      // Traced phase: spans and the layer-by-layer decomposition.
      ++statements;
      bool decompose = false;
      if (is_select) {
        ++selects;
        const size_t cls = stmt.cls;
        if (selects % kDecomposeEvery == 0 || !class_decomposed[cls]) decompose_next = true;
        // In point_mixed another client may change a customer it owns
        // between the two runs; only keys this client owns are stable.
        const bool stable = spec_.kind != WorkloadKind::kPointMixed ||
                            stmt.cls != kCustomerLookup || stmt.key % 2 == i % 2;
        if (decompose_next && stable) {
          decompose = true;
          decompose_next = false;
          class_decomposed[cls] = true;
        }
      }
      if (!decompose && statements % kSpanEvery != 0) continue;
      const uint64_t span_id = options.tracer->NextId();
      buffer->Add({"Session::ExecuteWithOptions", "engine", t0, t1, span_id, 0});
      if (decompose) {
        StageSample stage;
        stage.cls = stmt.cls;
        stage.session_us = Micros(t1 - t0);
        SELTRIG_RETURN_IF_ERROR(DecomposeSelect(db(), stmt.sql, exec, *result,
                                                options.tracer, buffer, span_id, &stage));
        out.stages.push_back(stage);
      }
    }
    return Status::OK();
  };

  std::vector<std::thread> threads;
  for (int i = 0; i < sessions; ++i) {
    Tracer::Buffer* buffer =
        options.tracer != nullptr
            ? options.tracer->NewBuffer("client-" + std::to_string(i))
            : nullptr;
    threads.emplace_back([&, i, buffer] {
      Status status = run_client(i, buffer);
      if (!status.ok()) abort.store(true);
      slots[static_cast<size_t>(i)].status = std::move(status);
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseResult merged;
  merged.elapsed_s = Seconds(Clock::now() - start);
  for (Slot& slot : slots) {
    SELTRIG_RETURN_IF_ERROR(slot.status);
    PhaseResult& r = slot.result;
    merged.attempted += r.attempted;
    merged.failed += r.failed;
    merged.samples.insert(merged.samples.end(), r.samples.begin(), r.samples.end());
    merged.stages.insert(merged.stages.end(), r.stages.begin(), r.stages.end());
    merged.totals += r.totals;
  }
  return merged;
}

Status WorkloadRun::CheckFinal() {
  Database* database = db();
  uint64_t audit_rows = 0;
  int64_t inserted = 0;
  for (const auto& c : clients_) {
    audit_rows += c->audit_rows();
    inserted += static_cast<int64_t>(c->inserted_orders().size());
  }
  SELTRIG_ASSIGN_OR_RETURN(int64_t logged,
                           QueryScalar(database, "SELECT COUNT(*) FROM audit_log"));
  if (logged - reference_.audit_rows_at_setup != static_cast<int64_t>(audit_rows)) {
    return Status::Internal("oracle: audit_log grew by " +
                            std::to_string(logged - reference_.audit_rows_at_setup) +
                            " rows, the answers' ACCESSED sets hold " +
                            std::to_string(audit_rows) + " ids");
  }
  SELTRIG_ASSIGN_OR_RETURN(
      int64_t fresh, QueryScalar(database, "SELECT COUNT(*) FROM orders WHERE o_orderkey >= " +
                                               std::to_string(reference_.first_fresh_order)));
  SELTRIG_ASSIGN_OR_RETURN(int64_t orders,
                           QueryScalar(database, "SELECT COUNT(*) FROM orders"));
  if (fresh != inserted || orders != reference_.orders + inserted) {
    return Status::Internal("oracle: " + std::to_string(inserted) +
                            " acknowledged inserts, " + std::to_string(fresh) +
                            " readable fresh orders, " + std::to_string(orders) + " orders");
  }
  if (fixture_->shipper() != nullptr) {
    SELTRIG_RETURN_IF_ERROR(fixture_->WaitFollowerCaughtUp(60.0));
    std::shared_ptr<Database> follower = fixture_->applier()->database();
    SELTRIG_ASSIGN_OR_RETURN(int64_t follower_orders,
                             QueryScalar(follower.get(), "SELECT COUNT(*) FROM orders"));
    SELTRIG_ASSIGN_OR_RETURN(int64_t follower_logged,
                             QueryScalar(follower.get(), "SELECT COUNT(*) FROM audit_log"));
    if (follower_orders != orders || follower_logged != logged) {
      return Status::Internal("oracle: follower holds " + std::to_string(follower_orders) +
                              " orders and " + std::to_string(follower_logged) +
                              " audit rows, primary " + std::to_string(orders) + " and " +
                              std::to_string(logged));
    }
  }
  return Status::OK();
}

}  // namespace seltrig::bench
