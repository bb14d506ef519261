// perfbench: the MOOD repo benchmark program.
//
//   perfbench --workload <scan-paths|point-wire|churn-mv> --seed <n>
//             --seconds <s> --trace <0|1> --data-dir <dir>
//             [--trace-file <csv>] [--git-commit <id>] [--source-digest <hex>]
//
// Generates the workload's data from the seed while keeping an in-memory
// model of every object it writes, runs the workload as closed loops for the
// requested time, checks every answer against the model, and prints every
// metric by name with its unit. The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). README.md in this directory documents the workloads and the
// layer -> end-to-end metric map.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/database.h"
#include "core/paper_example.h"
#include "core/session.h"
#include "net/client.h"
#include "net/server.h"
#include "sql/parser.h"
#include "trace.h"

#ifndef MOOD_BUILD_TYPE
#define MOOD_BUILD_TYPE "unknown"
#endif
#ifndef MOOD_COMPILER
#define MOOD_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using mood::Database;
using mood::DatabaseOptions;
using mood::MoodValue;
using mood::Oid;
using mood::QueryOptions;
using mood::QueryProfile;
using mood::Session;
using mood::Status;

// ---------------------------------------------------------------------------
// Small utilities

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

/// splitmix64: deterministic on every platform for a given seed.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 0x9E3779B97F4A7C15ull + 0x632BE59BD9B4E019ull) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  int32_t Range(int32_t lo, int32_t hi) {  // [lo, hi)
    return lo + static_cast<int32_t>(Uniform(static_cast<uint64_t>(hi - lo)));
  }
  double Unit() { return static_cast<double>(Next() >> 11) / 9007199254740992.0; }
};

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  return x ^ (x >> 33);
}

/// Zipf(s) over ranks 0..n-1, mapped through a seeded permutation so the hot
/// keys are spread over the id space.
class Zipf {
 public:
  Zipf(size_t n, double s, uint64_t seed) : cdf_(n), perm_(n) {
    double sum = 0;
    for (size_t i = 0; i < n; i++) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (size_t i = 0; i < n; i++) perm_[i] = static_cast<int32_t>(i);
    Rng rng(seed);
    for (size_t i = n; i > 1; i--) std::swap(perm_[i - 1], perm_[rng.Uniform(i)]);
  }
  int32_t Sample(Rng& rng) const {
    const double u = rng.Unit();
    size_t r = static_cast<size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return perm_[std::min(r, perm_.size() - 1)];
  }

 private:
  std::vector<double> cdf_;
  std::vector<int32_t> perm_;
};

/// Nearest-rank percentile of `v` (q in [0, 1]); sorts in place.
double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// The highest percentile (at most 0.99) that leaves at least ten samples
/// beyond it.
double TailQuantile(size_t n) {
  if (n <= 20) return 0.5;
  return std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

/// Tail latency that one burst of outside load cannot set: samples, in
/// completion order, are cut into consecutive groups of at least 1000 (one
/// group when there are fewer); each group's tail is its TailQuantile
/// percentile; the result is the median over groups.
struct Tail {
  double value = 0;
  double quantile = 0;  ///< per-group percentile used
  size_t groups = 0;
  std::vector<double> per_group;
};
Tail RobustTail(const std::vector<double>& in_order) {
  const size_t n = in_order.size();
  const size_t k = std::max<size_t>(1, n / 1000);
  Tail t;
  t.groups = k;
  for (size_t g = 0; g < k; g++) {
    std::vector<double> part(in_order.begin() + g * n / k, in_order.begin() + (g + 1) * n / k);
    t.quantile = TailQuantile(part.size());
    t.per_group.push_back(Percentile(part, t.quantile));
  }
  t.value = Median(t.per_group);
  return t;
}

/// Latencies sorted by completion time.
std::vector<double> InTimeOrder(const std::vector<double>& ms, const std::vector<uint64_t>& end) {
  std::vector<size_t> idx(ms.size());
  for (size_t i = 0; i < idx.size(); i++) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) { return end[a] < end[b]; });
  std::vector<double> out;
  out.reserve(ms.size());
  for (size_t i : idx) out.push_back(ms[i]);
  return out;
}

double Share(double num, double den) { return den > 0 ? num / den : 0; }

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0;
}

void SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

/// Resets VmHWM to the current RSS (Linux >= 4.0).
void ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(n);
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

bool IntAt(const std::vector<MoodValue>& row, size_t i, int32_t* out) {
  if (i >= row.size() || row[i].kind() != mood::ValueKind::kInteger) return false;
  *out = row[i].AsInteger();
  return true;
}

bool StringAt(const std::vector<MoodValue>& row, size_t i, std::string* out) {
  if (i >= row.size() || row[i].kind() != mood::ValueKind::kString) return false;
  *out = row[i].AsString();
  return true;
}

// ---------------------------------------------------------------------------
// Counter and histogram deltas read from the engine's MetricsRegistry

/// Counter deltas summed over one or more Begin/End windows.
class CounterDelta {
 public:
  explicit CounterDelta(mood::MetricsRegistry* reg) : reg_(reg) {}
  void Begin() { before_ = Read(); }
  void End() {
    for (const auto& [n, v] : Read()) {
      auto b = before_.find(n);
      sum_[n] += v - (b == before_.end() ? 0 : b->second);
    }
  }
  double operator()(const std::string& name) const {
    auto it = sum_.find(name);
    return it == sum_.end() ? 0 : it->second;
  }

 private:
  std::map<std::string, double> Read() const {
    std::map<std::string, double> m;
    for (const auto& [n, v] : reg_->Snapshot().values) m[n] = v;
    return m;
  }
  mood::MetricsRegistry* reg_;
  std::map<std::string, double> before_, sum_;
};

/// Bucket-count deltas of a log2 MetricHistogram summed over Begin/End
/// windows; percentiles interpolate linearly inside the bucket holding the
/// rank.
class HistogramDelta {
 public:
  explicit HistogramDelta(mood::MetricHistogram* h) : h_(h) {}
  void Begin() { before_ = Read(); }
  void End() {
    const auto after = Read();
    for (size_t i = 0; i < kN; i++) sum_[i] += after[i] - before_[i];
  }
  uint64_t Count() const {
    uint64_t n = 0;
    for (size_t i = 0; i < kN; i++) n += sum_[i];
    return n;
  }
  double Percentile(double q) const {
    const uint64_t total = Count();
    if (total == 0) return 0;
    const double rank = std::max(1.0, q * static_cast<double>(total));
    double seen = 0;
    for (size_t i = 0; i < kN; i++) {
      const double c = static_cast<double>(sum_[i]);
      if (c > 0 && seen + c >= rank) {
        const double lo = i == 0 ? 0 : std::ldexp(1.0, static_cast<int>(i) - 1);
        const double hi = std::ldexp(1.0, static_cast<int>(i));
        return lo + (hi - lo) * (rank - seen) / c;
      }
      seen += c;
    }
    return std::ldexp(1.0, static_cast<int>(kN) - 1);
  }

 private:
  static constexpr size_t kN = mood::MetricHistogram::kBuckets;
  std::array<uint64_t, kN> Read() const {
    std::array<uint64_t, kN> b{};
    for (size_t i = 0; i < kN; i++) b[i] = h_->bucket(i);
    return b;
  }
  mood::MetricHistogram* h_;
  std::array<uint64_t, kN> before_{}, sum_{};
};

// ---------------------------------------------------------------------------
// The seeded generator's model of the paper schema (Section 3.1)

constexpr int32_t kWeightLo = 800, kWeightHi = 2800;
constexpr int32_t kSizeLo = 1000, kSizeHi = 6000;

struct DataShape {
  size_t vehicles = 0;
  size_t companies_per_vehicle = 1;  ///< Company extent = this * vehicles
  bool subclasses = false;  ///< split vehicles over Vehicle/Automobile/JapaneseAuto
};

struct VehicleRow {
  int32_t weight = 0;
  uint32_t drivetrain = 0;
  uint32_t company = 0;
  uint8_t cls = 0;  ///< 0 Vehicle, 1 Automobile, 2 JapaneseAuto
  bool live = false;
  Oid oid;
};

struct Model {
  std::vector<int32_t> engine_size, engine_cyl;
  std::vector<uint32_t> dt_engine;
  std::vector<bool> dt_automatic;
  std::vector<Oid> engine_oid, dt_oid, company_oid, employee_oid;
  size_t companies = 0;
  size_t company_pool = 0;  ///< vehicles reference companies [0, company_pool)
  std::vector<VehicleRow> vehicles;  ///< indexed by Vehicle.id
  uint64_t user_bytes = 0;           ///< logical bytes of every value written

  static std::string CompanyName(size_t i) { return "company" + std::to_string(i); }
  int32_t CylOf(const VehicleRow& v) const { return engine_cyl[dt_engine[v.drivetrain]]; }
};

constexpr const char* kClassNames[] = {"Vehicle", "Automobile", "JapaneseAuto"};
constexpr uint64_t kVehicleTupleBytes = 4 + 4 + 8 + 8;  // id, weight, 2 refs
constexpr size_t kTrickleInserts = 1000;

MoodValue VehicleTuple(const Model& m, int32_t id, const VehicleRow& v) {
  return MoodValue::Tuple({MoodValue::Integer(id), MoodValue::Integer(v.weight),
                           MoodValue::Reference(m.dt_oid[v.drivetrain]),
                           MoodValue::Reference(m.company_oid[v.company])});
}

/// Writes the paper schema's extents through ObjectManager (the same path
/// PopulatePaperData uses), recording every value in the model. With
/// `commit_ms`, the last kTrickleInserts vehicles arrive one per durable
/// transaction and each commit's latency is appended.
Status Generate(Database* db, const DataShape& shape, uint64_t seed, Model* m,
                std::vector<double>* commit_ms = nullptr) {
  Rng rng(seed);
  mood::ObjectManager* om = db->objects();
  const size_t nv = shape.vehicles;
  const size_t n_eng = std::max<size_t>(1, nv / 2), n_dt = std::max<size_t>(1, nv / 2);
  const size_t n_emp = std::max<size_t>(1, nv / 4);
  m->companies = std::max<size_t>(1, nv * shape.companies_per_vehicle);
  // Table 15: vehicles reference about a tenth of the companies when the
  // Company extent is the paper's 10x; otherwise every company is referenced.
  m->company_pool = shape.companies_per_vehicle >= 10 ? m->companies / 10 : m->companies;
  for (size_t i = 0; i < n_eng; i++) {
    const int32_t size = rng.Range(kSizeLo, kSizeHi);
    const int32_t cyl = 2 + 2 * static_cast<int32_t>(rng.Uniform(16));
    auto oid = om->CreateObject("VehicleEngine", MoodValue::Tuple({MoodValue::Integer(size),
                                                                   MoodValue::Integer(cyl)}));
    if (!oid.ok()) return oid.status();
    m->engine_size.push_back(size);
    m->engine_cyl.push_back(cyl);
    m->engine_oid.push_back(*oid);
    m->user_bytes += 8;
  }
  for (size_t i = 0; i < n_dt; i++) {
    const uint32_t eng = static_cast<uint32_t>(rng.Uniform(n_eng));
    const bool automatic = rng.Uniform(2) == 0;
    const char* trans = automatic ? "AUTOMATIC" : "MANUAL";
    auto oid = om->CreateObject(
        "VehicleDriveTrain",
        MoodValue::Tuple({MoodValue::Reference(m->engine_oid[eng]), MoodValue::String(trans)}));
    if (!oid.ok()) return oid.status();
    m->dt_engine.push_back(eng);
    m->dt_automatic.push_back(automatic);
    m->dt_oid.push_back(*oid);
    m->user_bytes += 8 + std::strlen(trans);
  }
  for (size_t i = 0; i < n_emp; i++) {
    const std::string name = "emp" + std::to_string(i);
    auto oid = om->CreateObject(
        "Employee", MoodValue::Tuple({MoodValue::Integer(static_cast<int32_t>(i)),
                                      MoodValue::String(name),
                                      MoodValue::Integer(rng.Range(25, 65))}));
    if (!oid.ok()) return oid.status();
    m->employee_oid.push_back(*oid);
    m->user_bytes += 8 + name.size();
  }
  for (size_t i = 0; i < m->companies; i++) {
    const std::string name = Model::CompanyName(i);
    const std::string city = "city" + std::to_string(i % 50);
    auto oid = om->CreateObject(
        "Company",
        MoodValue::Tuple({MoodValue::String(name), MoodValue::String(city),
                          MoodValue::Reference(m->employee_oid[rng.Uniform(n_emp)])}));
    if (!oid.ok()) return oid.status();
    m->company_oid.push_back(*oid);
    m->user_bytes += name.size() + city.size() + 8;
  }
  m->vehicles.resize(nv);
  std::unique_ptr<Session> session;
  mood::TxnHandle txn;
  if (commit_ms != nullptr) session = db->CreateSession();
  for (size_t i = 0; i < nv; i++) {
    if (session != nullptr && i + kTrickleInserts >= nv) {
      // Make the bulk load durable first, so the trickle commits do not
      // share the device with its write-back.
      if (i + kTrickleInserts == nv) MOOD_RETURN_IF_ERROR(db->Checkpoint());
      auto begun = session->Begin();
      if (!begun.ok()) return begun.status();
      txn = std::move(*begun);
      // The extent locks an INSERT statement takes (Database::ExecNew).
      for (const char* cls : kClassNames) {
        auto type = db->catalog()->Lookup(cls);
        if (!type.ok()) return type.status();
        MOOD_RETURN_IF_ERROR(txn.txn()->Lock(mood::LockKey{1, (*type)->extent_file},
                                             mood::LockMode::kExclusive));
      }
    }
    VehicleRow& v = m->vehicles[i];
    v.weight = rng.Range(kWeightLo, kWeightHi);
    v.drivetrain = static_cast<uint32_t>(rng.Uniform(n_dt));
    v.company = static_cast<uint32_t>(rng.Uniform(m->company_pool));
    v.cls = shape.subclasses ? static_cast<uint8_t>(i % 3) : 0;
    v.live = true;
    auto oid = om->CreateObject(kClassNames[v.cls], VehicleTuple(*m, static_cast<int32_t>(i), v),
                                txn.txn());
    if (!oid.ok()) return oid.status();
    v.oid = *oid;
    m->user_bytes += kVehicleTupleBytes;
    if (txn.active()) {
      const uint64_t t0 = WallNs();
      MOOD_RETURN_IF_ERROR(txn.Commit());
      commit_ms->push_back(static_cast<double>(WallNs() - t0) / 1e6);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Concurrent-write oracle: commit sequence numbers and per-key write history

enum class TxnState : uint8_t { kPending, kCommitted, kAborted, kInDoubt };

/// One writer's commit history. The writer records each transaction's writes
/// before it commits, bumps `started` just before Commit and `acked` once
/// Commit returns OK. A read that began after commit `lo` was acknowledged and
/// ended before commit `hi + 1` started may observe the state after any
/// non-aborted commit in [latest committed <= lo, hi].
class CommitLog {
 public:
  struct Write {
    uint64_t seq;
    int32_t weight;  ///< -1 = deleted
  };

  uint64_t acked() const { return acked_.load(std::memory_order_acquire); }
  uint64_t started() const { return started_.load(std::memory_order_acquire); }

  /// Starts transaction seq = started()+1 (writer thread only).
  uint64_t Open() {
    std::lock_guard<std::mutex> lock(mu_);
    state_.push_back(TxnState::kPending);
    return state_.size() - 1;
  }
  void RecordWrite(uint64_t seq, int32_t key, int32_t weight) {
    std::lock_guard<std::mutex> lock(mu_);
    history_[key].push_back(Write{seq, weight});
  }
  void MarkStarted(uint64_t seq) { started_.store(seq, std::memory_order_release); }
  void Finish(uint64_t seq, TxnState s) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      state_[seq] = s;
    }
    if (s == TxnState::kCommitted) acked_.store(seq, std::memory_order_release);
  }

  /// Values `key` may show to a read over [lo, hi]; `initial` is the
  /// generator's value (-1 = absent). Call after the writer has stopped.
  std::vector<int32_t> Allowed(int32_t key, int32_t initial, uint64_t lo, uint64_t hi) const {
    std::vector<int32_t> out;
    int32_t base = initial;
    auto it = history_.find(key);
    if (it != history_.end()) {
      for (const Write& w : it->second) {
        const TxnState s = state_[w.seq];
        if (s == TxnState::kAborted) continue;
        if (w.seq <= lo && s == TxnState::kCommitted) {
          base = w.weight;
          out.clear();
        } else if (w.seq <= hi) {
          out.push_back(w.weight);
        }
      }
    }
    out.push_back(base);
    return out;
  }
  /// Non-aborted commit sequence numbers a read over [lo, hi] may observe.
  std::vector<uint64_t> AllowedStates(uint64_t lo, uint64_t hi) const {
    std::vector<uint64_t> out;
    uint64_t base = 0;
    for (uint64_t s = 1; s <= lo && s < state_.size(); s++) {
      if (state_[s] == TxnState::kCommitted) base = s;
    }
    out.push_back(base);
    for (uint64_t s = base + 1; s <= hi && s < state_.size(); s++) {
      if (state_[s] != TxnState::kAborted) out.push_back(s);
    }
    return out;
  }
  size_t InDoubt() const {
    return static_cast<size_t>(std::count(state_.begin(), state_.end(), TxnState::kInDoubt));
  }

 private:
  std::atomic<uint64_t> acked_{0}, started_{0};
  mutable std::mutex mu_;
  std::vector<TxnState> state_{TxnState::kCommitted};  ///< seq 0 = generated data
  std::unordered_map<int32_t, std::vector<Write>> history_;
};

// ---------------------------------------------------------------------------
// Per-thread operation accounting

struct OpStats {
  std::vector<double> read_ms, commit_ms;
  std::vector<uint64_t> read_end_ns, commit_end_ns;  ///< completion times
  std::map<std::string, std::vector<double>> by_statement;  ///< read latencies
  uint64_t attempted = 0, failed = 0, wrong = 0;
  /// Requests the server dropped with the connection before answering; the
  /// client reconnected and retried. They count against ok_share, not as
  /// failed operations.
  uint64_t dropped = 0;
  uint64_t reads = 0, commits = 0, row_writes = 0, mv_reads = 0;
  uint64_t user_bytes_written = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  void AddRead(double ms, const char* statement) {
    read_ms.push_back(ms);
    read_end_ns.push_back(WallNs());
    by_statement[statement].push_back(ms);
  }
  void AddCommit(double ms) {
    commit_ms.push_back(ms);
    commit_end_ns.push_back(WallNs());
  }
  void Fail(const std::string& what) {
    failed++;
    if (errors.size() < 5) errors.push_back(what);
  }
  void Drop(const std::string& what) {
    dropped++;
    if (errors.size() < 5) errors.push_back("dropped, retried: " + what);
  }
  void Merge(const OpStats& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    commit_ms.insert(commit_ms.end(), o.commit_ms.begin(), o.commit_ms.end());
    read_end_ns.insert(read_end_ns.end(), o.read_end_ns.begin(), o.read_end_ns.end());
    commit_end_ns.insert(commit_end_ns.end(), o.commit_end_ns.begin(), o.commit_end_ns.end());
    attempted += o.attempted;
    failed += o.failed;
    wrong += o.wrong;
    dropped += o.dropped;
    reads += o.reads;
    commits += o.commits;
    row_writes += o.row_writes;
    mv_reads += o.mv_reads;
    user_bytes_written += o.user_bytes_written;
    for (const auto& [k, v] : o.by_statement) {
      by_statement[k].insert(by_statement[k].end(), v.begin(), v.end());
    }
    for (const auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(e);
    }
  }
};

double MsSince(uint64_t start_ns) { return static_cast<double>(WallNs() - start_ns) / 1e6; }

/// Replay results: per-operator self time and pool activity from QueryProfile.
struct ProfileStats {
  uint64_t statements = 0;
  double bind_ms = 0, select_ms = 0, path_ms = 0, join_ms = 0, finish_ms = 0;
  uint64_t leaf_rows = 0, result_rows = 0, fetches = 0;
  uint64_t indsel_nodes = 0, indsel_pages = 0;
  uint64_t point_reads = 0, point_indsel = 0;

  static bool StartsWith(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }

  void Walk(const QueryProfile& p) {
    const double self_ms =
        static_cast<double>(p.wall_ns - std::min(p.wall_ns, p.ChildWallNs())) / 1e6;
    const std::string& l = p.label;
    if (StartsWith(l, "BIND(") || StartsWith(l, "INDSEL(")) {
      bind_ms += self_ms;
      leaf_rows += p.rows_out;
      if (StartsWith(l, "INDSEL(")) {
        indsel_nodes++;
        indsel_pages += p.pool.hits + p.pool.misses;
      }
    } else if (StartsWith(l, "SELECT") || l == "UNION") {
      select_ms += self_ms;
    } else if (StartsWith(l, "JOIN[NESTED_LOOP]") || StartsWith(l, "JOIN[HASH_PARTITION]")) {
      join_ms += self_ms;
    } else if (StartsWith(l, "JOIN[")) {
      path_ms += self_ms;
    } else {
      finish_ms += self_ms;  // RESULT, PROJECT, GROUP BY, HAVING, ORDER BY, DISTINCT
    }
    for (const auto& c : p.children) Walk(*c);
  }

  static bool HasIndexSelect(const QueryProfile& p) {
    if (StartsWith(p.label, "INDSEL(")) return true;
    for (const auto& c : p.children) {
      if (HasIndexSelect(*c)) return true;
    }
    return false;
  }

  void Add(const QueryProfile& root) {
    statements++;
    result_rows += std::max<uint64_t>(1, root.rows_out);
    for (const auto& c : root.children) fetches += c->pool.hits + c->pool.misses;
    Walk(root);
  }
};

// ---------------------------------------------------------------------------
// Workloads

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string trace_file;
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Creates a fresh database under `dir` and loads the workload's data.
  virtual void Setup(const std::string& dir, uint64_t seed) = 0;
  /// Runs the closed loops for `seconds`; `tracer` records spans when enabled.
  virtual OpStats Run(double seconds, uint64_t seed, Tracer* tracer) = 0;
  /// Checks the reads logged by Run against the model; returns wrong answers.
  virtual uint64_t Validate() = 0;
  /// Sampled replay of the workload's statements for per-layer numbers.
  virtual void Replay(Tracer* tracer, ProfileStats* prof, uint64_t seed) = 0;
  /// Stops servers; the database stays open.
  virtual void Quiesce() {}
  virtual std::string Describe() const = 0;
  /// Counter invariants specific to the workload; appends violations.
  virtual void CheckInvariants(const CounterDelta&, std::vector<std::string>*) const {}

  Database* db() { return db_.get(); }
  /// Commit latencies of transactional loads, over every set-up so far.
  const std::vector<double>& load_commit_ms() const { return load_commit_ms_; }
  const Model& model() const { return model_; }
  const std::string& path() const { return path_; }
  /// Database-wide options: everything as shipped.
  DatabaseOptions options() const { return DatabaseOptions{}; }

  void Close() {
    Quiesce();
    if (db_ != nullptr && db_->is_open()) Check(db_->Close(), "close");
  }
  uint64_t StoredBytes() const { return FileBytes(path_ + ".mood") + FileBytes(path_ + ".wal"); }

 protected:
  void OpenFresh(const std::string& dir) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    path_ = dir + "/mood";
    db_ = std::make_unique<Database>();
    Check(db_->Open(path_, options()), "open");
    Check(mood::paperdb::CreatePaperSchema(db_.get()), "schema");
  }
  /// Parses and optimizes `sql`, each under its span.
  void ReplayPlan(Tracer* tracer, const std::string& sql) {
    mood::Result<mood::Statement> stmt = [&] {
      Tracer::Scope s(tracer, "sql");
      return mood::Parser::Parse(sql);
    }();
    Check(stmt.status(), "replay parse");
    const auto* select = std::get_if<mood::SelectStmt>(&*stmt);
    if (select == nullptr) Fatal("replay: not a SELECT: " + sql);
    Tracer::Scope s(tracer, "optimizer");
    Check(db()->optimizer()->Optimize(*select).status(), "replay optimize");
  }

  /// ReplayPlan, then EXPLAIN ANALYZE under the explain span.
  void ReplayStatement(Tracer* tracer, ProfileStats* prof, const std::string& sql) {
    ReplayPlan(tracer, sql);
    mood::ExplainOptions eo;
    eo.analyze = true;
    mood::Result<mood::ExplainResult> ex = [&] {
      Tracer::Scope s(tracer, "explain");
      return db()->Explain(sql, eo);
    }();
    Check(ex.status(), "replay explain");
    if (ex->profile != nullptr) prof->Add(*ex->profile);
  }

  /// ReplayPlan, then a profiled execution of the prepared point read.
  void ReplayPrepared(Tracer* tracer, ProfileStats* prof, Session* session,
                      const mood::PreparedStatement& stmt, int32_t key) {
    ReplayPlan(tracer, stmt.sql());
    QueryOptions qo;
    qo.collect_profile = true;
    mood::Result<mood::ExecResult> res = [&] {
      Tracer::Scope s(tracer, "explain");
      return session->ExecutePrepared(stmt, {MoodValue::Integer(key)}, qo);
    }();
    Check(res.status(), "replay point read");
    if (res->profile == nullptr) return;
    prof->Add(*res->profile);
    prof->point_reads++;
    if (ProfileStats::HasIndexSelect(*res->profile)) prof->point_indsel++;
  }

  std::unique_ptr<Database> db_;
  std::vector<double> load_commit_ms_;
  Model model_;
  std::string path_;
};

// --- scan-paths -------------------------------------------------------------

/// In-process, one session, read-only: the paper's query shapes over about
/// 2.5e5 objects (roughly 3x the default 4 MiB pool). The timed phase has no
/// writes; the workload's commits are the set-up's single-vehicle insert
/// transactions at the end of the load.
class ScanPaths : public Workload {
 public:
  static constexpr size_t kVehicles = 20000;
  static constexpr int kShapes = 7;
  static constexpr const char* kShapeNames[kShapes] = {
      "immediate", "arithmetic", "path1_company", "path2_ex82",
      "two_paths_ex81", "join_s31", "group_by"};

  void Setup(const std::string& dir, uint64_t seed) override {
    OpenFresh(dir);
    model_ = Model{};
    Check(Generate(db(), DataShape{kVehicles, 10, true}, seed, &model_, &load_commit_ms_),
          "generate");
    Check(db()->CollectAllStatistics(), "statistics");
  }

  std::string Describe() const override {
    return "vehicles=" + std::to_string(model_.vehicles.size()) +
           " companies=" + std::to_string(model_.companies) +
           " engines=" + std::to_string(model_.engine_oid.size()) +
           " drivetrains=" + std::to_string(model_.dt_oid.size()) +
           " employees=" + std::to_string(model_.employee_oid.size());
  }

  struct Query {
    std::string sql;
    std::vector<int64_t> expected;  ///< sorted row encodings
  };

  /// Statement `shape` (0..6) with literals from wide seeded domains.
  Query Make(int shape, Rng& rng) const {
    Query q;
    const auto& vs = model_.vehicles;
    auto cyl_lit = [&] { return 2 + 2 * static_cast<int32_t>(rng.Uniform(16)); };
    switch (shape) {
      case 0: {  // immediate selection
        const int32_t a = rng.Range(kWeightLo, kWeightHi), b = a + rng.Range(20, 220);
        q.sql = "SELECT v.id, v.weight FROM Vehicle v WHERE v.weight >= " +
                std::to_string(a) + " AND v.weight < " + std::to_string(b);
        for (size_t i = 0; i < vs.size(); i++) {
          if (vs[i].cls == 0 && vs[i].weight >= a && vs[i].weight < b) {
            q.expected.push_back(static_cast<int64_t>(i) * 4096 + vs[i].weight);
          }
        }
        break;
      }
      case 1: {  // arithmetic filter
        const int32_t k = rng.Range(2, 10), t = rng.Range(3000, 30000),
                      u = rng.Range(900, kWeightHi);
        q.sql = "SELECT v.id FROM Vehicle v WHERE v.weight * " + std::to_string(k) +
                " + v.id > " + std::to_string(t) + " AND v.weight < " + std::to_string(u);
        for (size_t i = 0; i < vs.size(); i++) {
          const int64_t lhs = int64_t{vs[i].weight} * k + static_cast<int64_t>(i);
          if (vs[i].cls == 0 && lhs > t && vs[i].weight < u) q.expected.push_back(i);
        }
        break;
      }
      case 2: {  // 1-hop company path
        const size_t n = rng.Uniform(model_.company_pool);
        q.sql = "SELECT v.id FROM Vehicle v WHERE v.company.name = '" +
                Model::CompanyName(n) + "'";
        for (size_t i = 0; i < vs.size(); i++) {
          if (vs[i].cls == 0 && vs[i].company == n) q.expected.push_back(i);
        }
        break;
      }
      case 3: {  // 2-hop path (Example 8.2) plus a weight bound
        const int32_t c = cyl_lit(), w = rng.Range(kWeightLo, kWeightHi);
        q.sql = "SELECT v.id FROM Vehicle v WHERE v.drivetrain.engine.cylinders = " +
                std::to_string(c) + " AND v.weight > " + std::to_string(w);
        for (size_t i = 0; i < vs.size(); i++) {
          if (vs[i].cls == 0 && model_.CylOf(vs[i]) == c && vs[i].weight > w) {
            q.expected.push_back(i);
          }
        }
        break;
      }
      case 4: {  // two path predicates (Example 8.1)
        const size_t n = rng.Uniform(model_.company_pool);
        const int32_t c = cyl_lit();
        q.sql = "SELECT v.id FROM Vehicle v WHERE v.company.name = '" + Model::CompanyName(n) +
                "' AND v.drivetrain.engine.cylinders = " + std::to_string(c);
        for (size_t i = 0; i < vs.size(); i++) {
          if (vs[i].cls == 0 && vs[i].company == n && model_.CylOf(vs[i]) == c) {
            q.expected.push_back(i);
          }
        }
        break;
      }
      case 5: {  // Section 3.1 explicit join
        const int32_t c = 2 + 2 * static_cast<int32_t>(rng.Uniform(15));
        const int32_t s = rng.Range(kSizeLo, kSizeHi);
        q.sql = "SELECT c.id FROM EVERY Automobile - JapaneseAuto c, VehicleEngine e "
                "WHERE c.drivetrain.transmission = 'AUTOMATIC' AND c.drivetrain.engine = e "
                "AND e.cylinders > " + std::to_string(c) + " AND e.size < " + std::to_string(s);
        for (size_t i = 0; i < vs.size(); i++) {
          const uint32_t eng = model_.dt_engine[vs[i].drivetrain];
          if (vs[i].cls == 1 && model_.dt_automatic[vs[i].drivetrain] &&
              model_.engine_cyl[eng] > c && model_.engine_size[eng] < s) {
            q.expected.push_back(i);
          }
        }
        break;
      }
      default: {  // GROUP BY
        const int32_t s = rng.Range(kSizeLo, kSizeHi);
        q.sql = "SELECT e.cylinders FROM VehicleEngine e WHERE e.size > " + std::to_string(s) +
                " GROUP BY e.cylinders";
        std::set<int32_t> groups;
        for (size_t i = 0; i < model_.engine_size.size(); i++) {
          if (model_.engine_size[i] > s) groups.insert(model_.engine_cyl[i]);
        }
        q.expected.assign(groups.begin(), groups.end());
        break;
      }
    }
    std::sort(q.expected.begin(), q.expected.end());
    return q;
  }

  static bool Matches(int shape, const mood::QueryResult& r, const std::vector<int64_t>& expected) {
    std::vector<int64_t> got;
    got.reserve(r.rows.size());
    for (const auto& row : r.rows) {
      int32_t a = 0, b = 0;
      if (!IntAt(row, 0, &a)) return false;
      if (shape == 0) {
        if (!IntAt(row, 1, &b)) return false;
        got.push_back(int64_t{a} * 4096 + b);
      } else {
        got.push_back(a);
      }
    }
    std::sort(got.begin(), got.end());
    return got == expected;
  }

  OpStats Run(double seconds, uint64_t seed, Tracer* tracer) override {
    OpStats st;
    Rng rng(seed);
    auto session = db()->CreateSession();
    const uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
    // Round-robin over the shapes keeps the mix identical across seeds; only
    // the literals vary.
    for (int shape = 0; WallNs() < deadline; shape = (shape + 1) % kShapes) {
      Query q = Make(shape, rng);
      Tracer::Scope op(tracer, "op");
      st.attempted++;
      const uint64_t t0 = WallNs();
      mood::Result<mood::ExecResult> res = [&] {
        Tracer::Scope s(tracer, "core");
        return session->Execute(q.sql);
      }();
      const double read_ms = MsSince(t0);
      if (!res.ok()) {
        st.Fail(q.sql + ": " + res.status().ToString());
        continue;
      }
      st.reads++;
      st.AddRead(read_ms, kShapeNames[shape]);
      if (!Matches(shape, res->query, q.expected)) {
        st.wrong++;
        st.Fail("wrong answer: " + q.sql);
      }
    }
    return st;
  }

  uint64_t Validate() override { return 0; }  // checked inline: the data is static

  void Replay(Tracer* tracer, ProfileStats* prof, uint64_t seed) override {
    Rng rng(seed ^ 0x5EED);
    for (int round = 0; round < 2; round++) {
      for (int shape = 0; shape < kShapes; shape++) {
        ReplayStatement(tracer, prof, Make(shape, rng).sql);
      }
    }
  }

  void CheckInvariants(const CounterDelta& d, std::vector<std::string>* out) const override {
    if (d("exec.expr.fallback") != 0) {
      out->push_back("exec.expr.fallback == 0 on scan-paths (got " +
                     std::to_string(static_cast<uint64_t>(d("exec.expr.fallback"))) + ")");
    }
  }
};

// --- point-wire -------------------------------------------------------------

/// MoodServer on loopback with default ServerOptions; closed-loop wire
/// clients: readers run prepared point reads over Zipf keys, one writer runs
/// durable two-row UPDATE transactions.
class PointWire : public Workload {
 public:
  static constexpr size_t kVehicles = 10000;
  static constexpr const char* kPointSql =
      "SELECT v.weight, v.company.name FROM Vehicle v WHERE v.id = ?";

  void Setup(const std::string& dir, uint64_t seed) override {
    OpenFresh(dir);
    model_ = Model{};
    Check(Generate(db(), DataShape{kVehicles, 1, false}, seed, &model_), "generate");
    Check(db()->Execute("CREATE INDEX vehicle_id ON Vehicle(id) USING BTREE").status(),
          "index");
    Check(db()->CollectAllStatistics(), "statistics");
    zipf_ = std::make_unique<Zipf>(kVehicles, 0.99, seed ^ 0x21FF);
    log_ = std::make_unique<CommitLog>();
    reads_.clear();
    server_ = std::make_unique<mood::net::MoodServer>();
    Check(server_->Start(db(), mood::net::ServerOptions{}), "server start");
  }

  void Quiesce() override {
    if (server_ != nullptr) server_->Stop();
  }

  static size_t Connections() {
    const size_t n = std::max<size_t>(1, std::thread::hardware_concurrency());
    return std::clamp<size_t>(n, 2, 4);
  }

  std::string Describe() const override {
    return "vehicles=" + std::to_string(model_.vehicles.size()) +
           " companies=" + std::to_string(model_.companies) +
           " connections=" + std::to_string(Connections()) + " (readers=" +
           std::to_string(Connections() - 1) + ", writers=1) zipf_s=0.99";
  }

  struct ReadLog {
    int32_t key;
    int32_t weight;
    uint64_t lo, hi;
  };

  OpStats Run(double seconds, uint64_t seed, Tracer* tracer) override {
    const size_t readers = Connections() - 1;
    std::vector<OpStats> stats(readers + 1);
    std::vector<std::vector<ReadLog>> logs(readers);
    const uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < readers; t++) {
      threads.emplace_back([&, t] { ReaderLoop(deadline, seed * 131 + t, tracer, &stats[t], &logs[t]); });
    }
    threads.emplace_back([&] { WriterLoop(deadline, seed * 131 + 97, tracer, &stats[readers]); });
    for (auto& th : threads) th.join();
    OpStats all;
    for (const auto& s : stats) all.Merge(s);
    for (auto& l : logs) reads_.insert(reads_.end(), l.begin(), l.end());
    return all;
  }

  uint64_t Validate() override {
    uint64_t wrong = 0;
    for (const ReadLog& r : reads_) {
      const auto allowed = log_->Allowed(r.key, model_.vehicles[r.key].weight, r.lo, r.hi);
      if (std::find(allowed.begin(), allowed.end(), r.weight) == allowed.end()) wrong++;
    }
    reads_.clear();
    return wrong;
  }

  void Replay(Tracer* tracer, ProfileStats* prof, uint64_t seed) override {
    Rng rng(seed ^ 0x5EED);
    auto session = db()->CreateSession();
    auto prepared = session->Prepare(kPointSql);
    Check(prepared.status(), "replay prepare");
    for (int i = 0; i < 200; i++) {
      ReplayPrepared(tracer, prof, session.get(), *prepared, zipf_->Sample(rng));
    }
    // The writer's key lookups (literal ids, as in its UPDATEs) and its commit.
    for (int i = 0; i < 32; i++) {
      const int32_t key = zipf_->Sample(rng);
      const std::string id = std::to_string(key);
      ReplayStatement(tracer, prof, "SELECT v.id FROM Vehicle v WHERE v.id = " + id);
      auto txn = session->Begin();
      Check(txn.status(), "replay begin");
      Check(session->Execute("UPDATE Vehicle v SET weight = v.weight WHERE v.id = " + id).status(),
            "replay update");
      Tracer::Scope s(tracer, "txn");
      Check(txn->Commit(), "replay commit");
    }
  }

 private:
  static bool Disconnected(const Status& s) { return s.IsUnavailable() || s.IsIOError(); }

  /// Connects (retrying until the deadline) and prepares the point read.
  /// Returns false, and counts a failed operation, when the deadline passes
  /// first.
  bool Connect(mood::net::MoodClient* c, mood::net::WirePrepared* p, uint64_t deadline,
               OpStats* st) {
    c->Close();
    while (WallNs() < deadline) {
      Status s = c->Connect("127.0.0.1", server_->port());
      // Point-read clients ask for serial execution: intra-query threads do
      // not shorten these reads (26-28 ms at 1 or 4 threads on 4 cores), they
      // only oversubscribe the CPU, which then sets every latency here.
      if (s.ok()) s = c->SetOption("exec_threads", 1);
      if (s.ok() && p == nullptr) return true;
      if (s.ok()) {
        auto prep = c->Prepare(kPointSql);
        if (prep.ok()) {
          *p = *prep;
          return true;
        }
        s = prep.status();
      }
      st->attempted++;
      st->Drop("connect: " + s.ToString());
      c->Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    st->attempted++;
    st->Fail("connect: deadline passed");
    return false;
  }

  void ReaderLoop(uint64_t deadline, uint64_t seed, Tracer* tracer, OpStats* st,
                  std::vector<ReadLog>* log) {
    Rng rng(seed);
    mood::net::MoodClient c;
    mood::net::WirePrepared p;
    if (!Connect(&c, &p, deadline, st)) return;
    // A read the server dropped, sent again: its key and when it was first
    // sent, so its latency includes the lost attempt and the reconnect.
    struct Retry {
      int32_t key;
      uint64_t first_ns;
    };
    std::optional<Retry> retry;
    while (WallNs() < deadline) {
      const int32_t key = retry.has_value() ? retry->key : zipf_->Sample(rng);
      Tracer::Scope op(tracer, "op");
      st->attempted++;
      const uint64_t lo = log_->acked();
      const uint64_t t0 = retry.has_value() ? retry->first_ns : WallNs();
      retry.reset();
      auto res = [&] {
        Tracer::Scope s(tracer, "net");
        return c.ExecutePrepared(p, {MoodValue::Integer(key)});
      }();
      const double ms = MsSince(t0);
      const uint64_t hi = log_->started();
      if (!res.ok() && Disconnected(res.status())) {
        st->Drop("point read: " + res.status().ToString());
        if (!Connect(&c, &p, deadline, st)) return;
        retry = Retry{key, t0};
        continue;
      }
      if (!res.ok()) {
        st->Fail("point read: " + res.status().ToString());
        continue;
      }
      st->reads++;
      st->AddRead(ms, "point");
      int32_t weight = 0;
      std::string company;
      if (res->rows.size() != 1 || !IntAt(res->rows[0], 0, &weight) ||
          !StringAt(res->rows[0], 1, &company) ||
          company != Model::CompanyName(model_.vehicles[key].company)) {
        st->wrong++;
        st->Fail("wrong answer: point read id=" + std::to_string(key));
        continue;
      }
      log->push_back(ReadLog{key, weight, lo, hi});
    }
  }

  void WriterLoop(uint64_t deadline, uint64_t seed, Tracer* tracer, OpStats* st) {
    Rng rng(seed);
    mood::net::MoodClient c;
    if (!Connect(&c, nullptr, deadline, st)) return;
    while (WallNs() < deadline) {
      int32_t k1 = zipf_->Sample(rng), k2 = zipf_->Sample(rng);
      while (k2 == k1) k2 = zipf_->Sample(rng);
      Tracer::Scope op(tracer, "op");
      st->attempted++;
      const uint64_t seq = log_->Open();
      // Weights above the generator's domain, unique per write, identify
      // exactly which write a read observed.
      const int32_t w1 = 3000 + static_cast<int32_t>(2 * seq), w2 = w1 + 1;
      auto net_call = [&](auto&& fn) {
        Tracer::Scope s(tracer, "net");
        return fn();
      };
      Status s = net_call([&] { return c.Begin(); });
      for (auto [k, w] : {std::pair{k1, w1}, std::pair{k2, w2}}) {
        if (!s.ok()) break;
        log_->RecordWrite(seq, k, w);
        s = net_call([&] {
          return c.Execute("UPDATE Vehicle v SET weight = " + std::to_string(w) +
                           " WHERE v.id = " + std::to_string(k)).status();
        });
      }
      if (!s.ok()) {
        log_->Finish(seq, TxnState::kAborted);
        if (Disconnected(s)) {
          // The transaction died with its connection; the next one replaces it.
          st->Drop("writer: " + s.ToString());
          if (!Connect(&c, nullptr, deadline, st)) return;
        } else {
          st->Fail("writer: " + s.ToString());
          (void)c.Abort();
        }
        continue;
      }
      log_->MarkStarted(seq);
      const uint64_t t0 = WallNs();
      s = net_call([&] { return c.Commit(); });
      const double ms = MsSince(t0);
      if (!s.ok()) {
        // A dropped connection leaves the outcome unknown; either is allowed.
        log_->Finish(seq, Disconnected(s) ? TxnState::kInDoubt : TxnState::kAborted);
        if (!Disconnected(s)) {
          st->Fail("commit: " + s.ToString());
          continue;
        }
        st->Drop("commit: " + s.ToString());
        if (!Connect(&c, nullptr, deadline, st)) return;
        continue;
      }
      log_->Finish(seq, TxnState::kCommitted);
      st->commits++;
      st->row_writes += 2;
      st->user_bytes_written += 2 * 4;
      st->AddCommit(ms);
    }
  }

  std::unique_ptr<mood::net::MoodServer> server_;
  std::unique_ptr<Zipf> zipf_;
  std::unique_ptr<CommitLog> log_;
  std::vector<ReadLog> reads_;
};

// --- churn-mv ---------------------------------------------------------------

/// In-process, two sessions over data that fits the pool: a writer inserting,
/// updating and deleting vehicles (extent size steady), a reader repeating the
/// hot 2-hop path (served by a materialized view), a GROUP BY and a point read.
class ChurnMv : public Workload {
 public:
  static constexpr size_t kVehicles = 2000;
  static constexpr int32_t kHotCyl = 8;
  static constexpr int32_t kGroupBelow = 1000;
  static inline const std::string kMvSql =
      "SELECT v.id, v.weight FROM Vehicle v WHERE v.drivetrain.engine.cylinders = 8";
  static inline const std::string kGroupSql =
      "SELECT v.weight FROM Vehicle v WHERE v.weight < 1000 GROUP BY v.weight";
  static constexpr const char* kPointSql =
      "SELECT v.weight, v.drivetrain.transmission FROM Vehicle v WHERE v.id = ?";

  void Setup(const std::string& dir, uint64_t seed) override {
    OpenFresh(dir);
    model_ = Model{};
    Check(Generate(db(), DataShape{kVehicles, 1, false}, seed, &model_), "generate");
    Check(db()->Execute("CREATE INDEX vehicle_id ON Vehicle(id) USING BTREE").status(),
          "index");
    Check(db()->CollectAllStatistics(), "statistics");
    Check(db()->Execute("CREATE MATERIALIZED VIEW hot_path AS " + kMvSql).status(),
          "materialized view");
    log_ = std::make_unique<CommitLog>();
    live_.clear();
    for (size_t i = 0; i < model_.vehicles.size(); i++) live_.push_back(static_cast<int32_t>(i));
    states_.assign(1, Fingerprint());
    next_id_ = static_cast<int32_t>(model_.vehicles.size());
    reads_.clear();
  }

  std::string Describe() const override {
    return "vehicles=" + std::to_string(live_.size()) +
           " companies=" + std::to_string(model_.companies) +
           " sessions=2 (reader, writer) mv=hot_path";
  }

  /// Order-independent content hash of the two set-valued answers.
  struct State {
    uint64_t mv_sum = 0, mv_count = 0, gb_sum = 0, gb_count = 0;
    bool operator==(const State&) const = default;
  };

  struct ReadLog {
    int kind;  ///< 0 mv, 1 group by, 2 point
    uint64_t lo, hi;
    State state;      ///< kinds 0/1
    int32_t key = 0;  ///< kind 2
    int32_t weight = -1;
    bool transmission_ok = true;
  };

  /// One thread drives both sessions in a fixed cycle: the writer's statements,
  /// one reader round while its transaction is open (snapshot reads beside
  /// uncommitted versions), the commit, then two reader rounds on the committed
  /// state. A fixed interleaving makes the share of reads the view and the
  /// result cache can serve the same on every run.
  OpStats Run(double seconds, uint64_t seed, Tracer* tracer) override {
    OpStats st;
    std::vector<ReadLog> log;
    Rng read_rng(seed * 131 + 1), write_rng(seed * 131 + 2);
    auto reader = db()->CreateSession();
    auto prepared = reader->Prepare(kPointSql);
    Check(prepared.status(), "prepare");
    auto writer = db()->CreateSession();
    auto round = [&] {
      for (int kind = 0; kind < 3; kind++) {
        ReadOnce(kind, reader.get(), *prepared, read_rng, tracer, &st, &log);
      }
    };
    const uint64_t deadline = WallNs() + static_cast<uint64_t>(seconds * 1e9);
    while (WallNs() < deadline) {
      WriteTxn(writer.get(), write_rng, tracer, &st, round);
      round();
      round();
    }
    reads_.insert(reads_.end(), log.begin(), log.end());
    return st;
  }

  uint64_t Validate() override {
    uint64_t wrong = 0;
    for (const ReadLog& r : reads_) {
      if (r.kind == 2) {
        const int32_t initial = static_cast<size_t>(r.key) < kVehicles
                                    ? initial_weight_.at(static_cast<size_t>(r.key))
                                    : -1;
        const auto allowed = log_->Allowed(r.key, initial, r.lo, r.hi);
        if (!r.transmission_ok ||
            std::find(allowed.begin(), allowed.end(), r.weight) == allowed.end()) {
          wrong++;
        }
        continue;
      }
      bool ok = false;
      for (uint64_t s : log_->AllowedStates(r.lo, r.hi)) {
        const State& st = states_[s];
        ok = ok || (r.kind == 0 ? st.mv_sum == r.state.mv_sum && st.mv_count == r.state.mv_count
                                : st.gb_sum == r.state.gb_sum && st.gb_count == r.state.gb_count);
      }
      if (!ok) wrong++;
    }
    reads_.clear();
    return wrong;
  }

  void Replay(Tracer* tracer, ProfileStats* prof, uint64_t seed) override {
    Rng rng(seed ^ 0x5EED);
    auto session = db()->CreateSession();
    auto prepared = session->Prepare(kPointSql);
    Check(prepared.status(), "replay prepare");
    for (int i = 0; i < 20; i++) {
      ReplayStatement(tracer, prof, kMvSql);
      ReplayStatement(tracer, prof, kGroupSql);
      ReplayPrepared(tracer, prof, session.get(), *prepared, live_[rng.Uniform(live_.size())]);
    }
  }

  void CheckInvariants(const CounterDelta& d, std::vector<std::string>* out) const override {
    if (d("mv.full_refreshes") != 0) {
      out->push_back("mv.full_refreshes == 0 on churn-mv (got " +
                     std::to_string(static_cast<uint64_t>(d("mv.full_refreshes"))) + ")");
    }
  }

 private:
  static uint64_t RowHash(int32_t id, int32_t weight) {
    return Mix((static_cast<uint64_t>(static_cast<uint32_t>(id)) << 32) |
               static_cast<uint32_t>(weight));
  }

  /// The answers' hashes over the model's current (committed) contents.
  State Fingerprint() {
    State s;
    group_counts_.assign(kGroupBelow - kWeightLo, 0);
    initial_weight_.clear();
    initial_dt_.clear();
    for (size_t i = 0; i < model_.vehicles.size(); i++) {
      const VehicleRow& v = model_.vehicles[i];
      initial_weight_.push_back(v.live ? v.weight : -1);
      initial_dt_.push_back(v.drivetrain);
      if (v.live) Apply(&s, static_cast<int32_t>(i), v, +1);
    }
    return s;
  }

  /// Adds (+1) or removes (-1) one live vehicle's contribution.
  void Apply(State* s, int32_t id, const VehicleRow& v, int sign) {
    if (model_.CylOf(v) == kHotCyl) {
      s->mv_sum += sign > 0 ? RowHash(id, v.weight) : -RowHash(id, v.weight);
      s->mv_count += sign;
    }
    if (v.weight < kGroupBelow) {
      int& c = group_counts_[v.weight - kWeightLo];
      const uint64_t h = Mix(static_cast<uint64_t>(v.weight));
      if (sign > 0 && c++ == 0) {
        s->gb_sum += h;
        s->gb_count++;
      } else if (sign < 0 && --c == 0) {
        s->gb_sum -= h;
        s->gb_count--;
      }
    }
  }

  static bool HashRows(const mood::QueryResult& r, int kind, State* s) {
    for (const auto& row : r.rows) {
      int32_t a = 0, b = 0;
      if (!IntAt(row, 0, &a)) return false;
      if (kind == 0) {
        if (!IntAt(row, 1, &b)) return false;
        s->mv_sum += RowHash(a, b);
        s->mv_count++;
      } else {
        s->gb_sum += Mix(static_cast<uint64_t>(a));
        s->gb_count++;
      }
    }
    return true;
  }

  void ReadOnce(int kind, Session* session, const mood::PreparedStatement& prepared, Rng& rng,
                Tracer* tracer, OpStats* st, std::vector<ReadLog>* log) {
    Tracer::Scope op(tracer, "op");
    st->attempted++;
    ReadLog r{};
    r.kind = kind;
    r.lo = log_->acked();
    const uint64_t t0 = WallNs();
    mood::Result<mood::ExecResult> res = Status::OK();
    {
      Tracer::Scope s(tracer, "core");
      if (kind == 2) {
        r.key = static_cast<int32_t>(rng.Uniform(static_cast<uint64_t>(next_id_)));
        res = session->ExecutePrepared(prepared, {MoodValue::Integer(r.key)});
      } else {
        res = session->Execute(kind == 0 ? kMvSql : kGroupSql);
      }
    }
    const double ms = MsSince(t0);
    r.hi = log_->started();
    if (!res.ok()) {
      st->Fail("reader: " + res.status().ToString());
      return;
    }
    st->reads++;
    if (kind == 0) st->mv_reads++;
    st->AddRead(ms, kind == 0 ? "view" : kind == 1 ? "group_by" : "point");
    bool shape_ok = true;
    if (kind == 2) {
      const auto& rows = res->query.rows;
      std::string trans;
      if (rows.size() == 1 && IntAt(rows[0], 0, &r.weight) && StringAt(rows[0], 1, &trans)) {
        r.transmission_ok = trans == TransmissionOf(r.key);
      } else {
        shape_ok = rows.empty();
      }
    } else {
      shape_ok = HashRows(res->query, kind, &r.state);
    }
    if (!shape_ok) {
      st->wrong++;
      st->Fail("wrong answer shape (reader kind " + std::to_string(kind) + ")");
      return;
    }
    log->push_back(r);
  }

  /// Static per id: the drivetrain a vehicle references never changes.
  std::string TransmissionOf(int32_t id) {
    auto it = dt_of_.find(id);
    const uint32_t dt =
        it != dt_of_.end() ? it->second : initial_dt_[static_cast<size_t>(id)];
    return model_.dt_automatic[dt] ? "AUTOMATIC" : "MANUAL";
  }

  /// One transaction: an insert, an update and a delete. `while_open` runs
  /// after the statements and before the commit; the statements and the
  /// commit are separate `op` spans, so the reads in between are not counted
  /// inside the write.
  void WriteTxn(Session* session, Rng& rng, Tracer* tracer, OpStats* st,
                const std::function<void()>& while_open) {
    const auto* vehicle_type = db()->catalog()->Lookup("Vehicle").value();
    std::optional<Tracer::Scope> op;
    op.emplace(tracer, "op");
    st->attempted++;
    const uint64_t seq = log_->Open();
    const int32_t new_id = next_id_;
    VehicleRow ins;
    ins.weight = rng.Range(kWeightLo, kWeightHi);
    ins.drivetrain = static_cast<uint32_t>(rng.Uniform(model_.dt_oid.size()));
    ins.company = static_cast<uint32_t>(rng.Uniform(model_.company_pool));
    ins.live = true;
    const size_t upd_pos = rng.Uniform(live_.size());
    size_t del_pos = rng.Uniform(live_.size());
    while (del_pos == upd_pos) del_pos = rng.Uniform(live_.size());
    const int32_t upd_id = live_[upd_pos], del_id = live_[del_pos];
    const int32_t upd_weight = rng.Range(kWeightLo, kWeightHi);
    dt_of_[new_id] = ins.drivetrain;
    log_->RecordWrite(seq, new_id, ins.weight);
    log_->RecordWrite(seq, upd_id, upd_weight);
    log_->RecordWrite(seq, del_id, -1);

    Status s;
    auto txn = session->Begin();
    if (!txn.ok()) s = txn.status();
    if (s.ok()) {
      // MOODSQL NEW cannot set references: insert through ObjectManager under
      // the extent lock an INSERT takes.
      Tracer::Scope span(tracer, "objects");
      s = txn->txn()->Lock(mood::LockKey{1, vehicle_type->extent_file},
                           mood::LockMode::kExclusive);
      if (s.ok()) {
        auto oid = db()->objects()->CreateObject("Vehicle", VehicleTuple(model_, new_id, ins),
                                                 txn->txn());
        s = oid.status();
        if (oid.ok()) ins.oid = *oid;
      }
    }
    if (s.ok()) {
      Tracer::Scope span(tracer, "core");
      s = session->Execute("UPDATE Vehicle v SET weight = " + std::to_string(upd_weight) +
                           " WHERE v.id = " + std::to_string(upd_id)).status();
    }
    if (s.ok()) {
      Tracer::Scope span(tracer, "core");
      s = session->Execute("DELETE FROM Vehicle v WHERE v.id = " + std::to_string(del_id))
              .status();
    }
    if (!s.ok()) {
      if (txn.ok()) (void)txn->Abort();
      log_->Finish(seq, TxnState::kAborted);
      states_.push_back(states_.back());
      st->Fail("writer: " + s.ToString());
      return;
    }
    // The state this commit produces, recorded before it becomes visible.
    State next = states_.back();
    VehicleRow& upd = model_.vehicles[static_cast<size_t>(upd_id)];
    VehicleRow& del = model_.vehicles[static_cast<size_t>(del_id)];
    VehicleRow upd_new = upd;
    upd_new.weight = upd_weight;
    Apply(&next, new_id, ins, +1);
    Apply(&next, upd_id, upd, -1);
    Apply(&next, upd_id, upd_new, +1);
    Apply(&next, del_id, del, -1);
    states_.push_back(next);
    op.reset();
    while_open();
    op.emplace(tracer, "op");
    log_->MarkStarted(seq);
    const uint64_t t0 = WallNs();
    {
      Tracer::Scope span(tracer, "txn");
      s = txn->Commit();
    }
    const double ms = MsSince(t0);
    if (!s.ok()) {
      // The state is unchanged; only the group counts Apply advanced need
      // reverting.
      State undo;
      Apply(&undo, del_id, del, +1);
      Apply(&undo, upd_id, upd_new, -1);
      Apply(&undo, upd_id, upd, +1);
      Apply(&undo, new_id, ins, -1);
      states_.back() = states_[states_.size() - 2];
      log_->Finish(seq, TxnState::kAborted);
      st->Fail("commit: " + s.ToString());
      return;
    }
    log_->Finish(seq, TxnState::kCommitted);
    upd.weight = upd_weight;
    del.live = false;
    model_.vehicles.push_back(ins);
    next_id_ = new_id + 1;
    live_[del_pos] = new_id;
    st->commits++;
    st->row_writes += 3;
    st->user_bytes_written += kVehicleTupleBytes + 4;
    st->AddCommit(ms);
  }

  std::unique_ptr<CommitLog> log_;
  std::vector<int32_t> live_;            ///< ids of live vehicles (writer-owned)
  std::vector<State> states_;            ///< state after each commit seq
  std::vector<int> group_counts_;        ///< live vehicles per weight below kGroupBelow
  std::vector<int32_t> initial_weight_;  ///< generated weight per id
  std::vector<uint32_t> initial_dt_;     ///< generated drivetrain per id
  int32_t next_id_ = 0;
  std::unordered_map<int32_t, uint32_t> dt_of_;  ///< drivetrain of inserted ids
  std::vector<ReadLog> reads_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "scan-paths") return std::make_unique<ScanPaths>();
  if (name == "point-wire") return std::make_unique<PointWire>();
  if (name == "churn-mv") return std::make_unique<ChurnMv>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* FsyncName(mood::WalFsync f) {
  switch (f) {
    case mood::WalFsync::kAlways: return "always";
    case mood::WalFsync::kGroup: return "group";
    case mood::WalFsync::kOff: return "off";
  }
  return "?";
}

bool DebugBuild() {
#ifdef NDEBUG
  return std::string(MOOD_BUILD_TYPE) == "Debug";
#else
  return true;
#endif
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--data-dir") o.data_dir = v;
    else if (k == "--trace-file") o.trace_file = v;
    else if (k == "--git-commit") o.git_commit = v;
    else if (k == "--source-digest") o.source_digest = v;
    else Fatal("unknown argument " + k);
  }
  if (o.data_dir.empty()) Fatal("--data-dir is required");
  if (!(o.seconds > 0)) Fatal("--seconds must be positive");
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (w == nullptr) Fatal("unknown workload '" + opt.workload + "'");

  // Set-up, repeated at least kMinSetups times and until kSetupBudgetS have
  // passed (at most kMaxSetups times), so that a quick set-up is timed often
  // enough for its median to hold still; the last instance runs the workload.
  constexpr int kMinSetups = 5, kMaxSetups = 25;
  constexpr double kSetupBudgetS = 3.0;
  constexpr int kWindows = 5;
  std::vector<double> setup_s;
  double setup_total_s = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || setup_total_s < kSetupBudgetS); i++) {
    if (i > 0) w->Close();
    const uint64_t t0 = WallNs();
    w->Setup(opt.data_dir + "/db", opt.seed);
    // Write back what set-up left in the page cache, so the first timed
    // fsyncs do not pay for it.
    SyncFile(w->path() + ".mood");
    SyncFile(w->path() + ".wal");
    setup_s.push_back(Seconds(WallNs() - t0));
    setup_total_s += setup_s.back();
  }
  const DatabaseOptions dbo = w->options();
  const uint64_t stored_after_setup = w->StoredBytes();
  const size_t exec_threads =
      dbo.exec_threads != 0 ? dbo.exec_threads : std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %u, \"build_type\": \"%s\", \"debug_build\": %s, \"compiler\": \"%s\", "
      "\"git_commit\": \"%s\", \"source_digest\": \"%s\", \"scale\": \"%s\", "
      "\"pool_pages\": %zu, \"pool_bytes\": %zu, \"wal_fsync\": \"%s\", "
      "\"exec_threads\": %zu, \"data_file_bytes_after_setup\": %llu}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0, std::thread::hardware_concurrency(),
      MOOD_BUILD_TYPE, DebugBuild() ? "true" : "false", MOOD_COMPILER,
      JsonEscape(opt.git_commit).c_str(), JsonEscape(opt.source_digest).c_str(),
      w->Describe().c_str(), dbo.pool_pages, dbo.pool_pages * 4096, FsyncName(dbo.wal_fsync),
      exec_threads, static_cast<unsigned long long>(stored_after_setup));
  if (DebugBuild()) std::printf("WARNING: debug build; timings are not representative\n");

  // Peak RSS covers the run from here on: earlier set-ups' freed memory
  // would otherwise make the high-water mark depend on allocator reuse.
  ResetPeakRss();
  Database* db = w->db();
  Tracer tracer(false);
  // Warm-up: fill the pool and the caches; its answers are checked too.
  OpStats warm = w->Run(std::min(1.0, opt.seconds / 10), opt.seed ^ 0xA11CE, &tracer);

  CounterDelta counters(db->metrics());
  HistogramDelta net_us(db->metrics()->Histogram("net.request_us"));
  HistogramDelta stmt_us(db->metrics()->Histogram("exec.query_us"));
  uint64_t wal_growth = 0;
  OpStats run, untraced;  // run: the measured (trace 0) or traced (trace 1) time
  double run_s = 0, untraced_s = 0;
  uint64_t t0 = 0;
  double chains_peak = 0;
  std::atomic<bool> sampling{opt.trace};
  std::thread sampler;
  if (opt.trace) {
    sampler = std::thread([&] {
      while (sampling.load()) {
        if (tracer.enabled()) {
          chains_peak = std::max(
              chains_peak, db->metrics()->Snapshot().ValueOf("txn.snapshot.chains"));
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  // The traced run alternates untraced and traced quarters (U T T U), so a
  // linear drift of the workload cancels out of the overhead ratio. The
  // untraced run measures one stretch.
  const std::vector<bool> slices =
      opt.trace ? std::vector<bool>{false, true, true, false} : std::vector<bool>{false};
  for (size_t i = 0; i < slices.size(); i++) {
    const bool measured = opt.trace ? slices[i] : true;
    tracer.set_enabled(slices[i]);
    if (measured) {
      counters.Begin();
      net_us.Begin();
      stmt_us.Begin();
    }
    const uint64_t wal_before = FileBytes(w->path() + ".wal");
    const uint64_t start = WallNs();
    if (i == 0) t0 = start;
    OpStats st = w->Run(opt.seconds / static_cast<double>(slices.size()), opt.seed + 1 + i,
                        &tracer);
    const double secs = Seconds(WallNs() - start);
    if (measured) {
      counters.End();
      net_us.End();
      stmt_us.End();
      const uint64_t wal_after = FileBytes(w->path() + ".wal");
      wal_growth += wal_after - std::min(wal_after, wal_before);
      run.Merge(st);
      run_s += secs;
    } else {
      untraced.Merge(st);
      untraced_s += secs;
    }
  }
  sampling.store(false);
  if (sampler.joinable()) sampler.join();
  tracer.set_enabled(opt.trace);

  w->Quiesce();
  const uint64_t wrong_post = w->Validate();
  ProfileStats prof;
  if (opt.trace) w->Replay(&tracer, &prof, opt.seed);
  std::vector<std::string> violations;
  if (counters("bufferpool.hits") + counters("bufferpool.misses") != counters("bufferpool.fetches")) {
    violations.push_back("bufferpool.hits + bufferpool.misses == bufferpool.fetches");
  }
  w->CheckInvariants(counters, &violations);
  const double peak_rss = PeakRssMb();
  const uint64_t user_bytes = w->model().user_bytes;
  w->Close();
  const uint64_t stored = w->StoredBytes();
  std::filesystem::remove_all(opt.data_dir + "/db");

  OpStats all = warm;
  all.Merge(untraced);
  all.Merge(run);
  const uint64_t wrong = all.wrong + wrong_post;
  const uint64_t failed = all.failed + wrong_post;
  const bool correct = wrong == 0 && violations.empty();

  std::printf("answers: attempted=%llu failed=%llu wrong=%llu dropped_and_retried=%llu "
              "(warm-up included)\n",
              static_cast<unsigned long long>(all.attempted),
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(wrong),
              static_cast<unsigned long long>(all.dropped));
  for (const auto& e : all.errors) std::printf("  failure: %s\n", e.c_str());
  for (const auto& v : violations) std::printf("INVARIANT VIOLATED: %s\n", v.c_str());

  std::vector<Metric> metrics;
  // A workload without commits in its timed phase reports its load commits.
  std::vector<double> commit_ms = run.commit_ms.empty()
                                      ? w->load_commit_ms()
                                      : InTimeOrder(run.commit_ms, run.commit_end_ns);
  const Tail commit_tail = RobustTail(commit_ms);
  const double commit_p50 = Percentile(commit_ms, 0.5);
  if (!opt.trace) {
    const Tail read_tail = RobustTail(InTimeOrder(run.read_ms, run.read_end_ns));
    const double failed_share = Share(static_cast<double>(run.failed + run.dropped + wrong_post),
                                      static_cast<double>(run.attempted));
    // Throughput over the whole timed phase. The per-window rates are printed
    // to show drift; their mean held still better between runs than their
    // median (ten churn-mv runs on a 4-core shared host: middle half 8% against
    // 11% of the median), as outside load there came in spells, not bursts.
    std::vector<double> win_ops;
    const uint64_t win_ns = static_cast<uint64_t>(run_s * 1e9) / kWindows;
    for (int k = 0; k < kWindows; k++) {
      const uint64_t lo = t0 + k * win_ns, hi = lo + win_ns;
      auto in_window = [&](const std::vector<uint64_t>& end) {
        return std::count_if(end.begin(), end.end(),
                             [&](uint64_t t) { return t >= lo && t < hi; });
      };
      win_ops.push_back(static_cast<double>(in_window(run.read_end_ns) +
                                            in_window(run.commit_end_ns)) /
                        Seconds(win_ns));
    }
    std::printf("ops_per_s by window (%d x %.2f s):", kWindows, Seconds(win_ns));
    for (double v : win_ops) std::printf(" %.2f", v);
    std::printf("\n");
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", static_cast<double>(run.reads + run.commits) / run_s, "1/s"},
        {"read_ms_p50", Percentile(run.read_ms, 0.5), "ms"},
        {"read_ms_p99", read_tail.value, "ms"},
        {"ok_share", 1.0 - failed_share, "share"},
        {"peak_rss_mb", peak_rss, "MiB"},
        {"db_bytes_per_user_byte", Share(static_cast<double>(stored), static_cast<double>(user_bytes)), "B/B"},
    };
    std::printf("samples: reads=%zu (tail: p%.2f, median of %zu groups), "
                "commits=%zu (tail: p%.2f, median of %zu groups)\n",
                run.read_ms.size(), read_tail.quantile * 100, read_tail.groups,
                commit_ms.size(), commit_tail.quantile * 100, commit_tail.groups);
    for (const Tail* t : {&read_tail, &commit_tail}) {
      std::printf("%s tail by group:", t == &read_tail ? "read" : "commit");
      for (double v : t->per_group) std::printf(" %.4f", v);
      std::printf("\n");
    }
    std::printf("commit_ms p50=%.4f p%.2f=%.4f (commit latency is reported per layer)\n",
                commit_p50, commit_tail.quantile * 100, commit_tail.value);
    std::printf("failed_share=%.6g (%llu failed + %llu dropped and retried of %llu)\n",
                failed_share, static_cast<unsigned long long>(run.failed + wrong_post),
                static_cast<unsigned long long>(run.dropped),
                static_cast<unsigned long long>(run.attempted));
    std::printf("read_ms_p50 by statement:");
    for (auto& [name, v] : run.by_statement) {
      std::printf(" %s=%.4f(n=%zu)", name.c_str(), Percentile(v, 0.5), v.size());
    }
    std::printf("\n");
    std::printf("setup_s samples:");
    for (double s : setup_s) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    auto summary = tracer.Summarize();
    auto p50 = [&](const char* layer) {
      auto it = summary.find(layer);
      return it == summary.end() ? 0.0 : Median(it->second.durations_us);
    };
    const double reads = static_cast<double>(run.reads);
    const double commits = static_cast<double>(run.commits);
    const double n_prof = static_cast<double>(std::max<uint64_t>(1, prof.statements));
    const double traced_ops = static_cast<double>(run.reads + run.commits) / run_s;
    const double untraced_ops = static_cast<double>(untraced.reads + untraced.commits) / untraced_s;
    const double client_rtt = p50("net");
    const double server_us = net_us.Percentile(0.5);
    metrics = {
        {"sql.parse_us_p50", p50("sql"), "us"},
        {"optimizer.optimize_us_p50", p50("optimizer"), "us"},
        {"optimizer.point_indsel_share", Share(prof.point_indsel, prof.point_reads), "share"},
        {"exec.bind.self_ms", prof.bind_ms / n_prof, "ms"},
        {"exec.select.self_ms", prof.select_ms / n_prof, "ms"},
        {"exec.path.self_ms", prof.path_ms / n_prof, "ms"},
        {"exec.join.self_ms", prof.join_ms / n_prof, "ms"},
        {"exec.finish.self_ms", prof.finish_ms / n_prof, "ms"},
        {"exec.rows_examined_per_row", Share(prof.leaf_rows, prof.result_rows), "rows/row"},
        {"exec.expr.fallback", counters("exec.expr.fallback"), "count"},
        {"cache.plan.hit_share", Share(counters("cache.plan.hits"), counters("cache.plan.hits") + counters("cache.plan.misses")), "share"},
        {"cache.result.hit_share", Share(counters("cache.result.hits"), counters("cache.result.hits") + counters("cache.result.misses")), "share"},
        {"cache.result.invalidations", counters("cache.result.invalidations"), "count"},
        {"objects.deref_cache.hit_share", Share(counters("objects.deref_cache.hits"), counters("objects.deref_cache.hits") + counters("objects.deref_cache.misses")), "share"},
        {"bufferpool.hit_share", Share(counters("bufferpool.hits"), counters("bufferpool.fetches")), "share"},
        {"bufferpool.misses_per_read", Share(counters("bufferpool.misses"), reads), "pages"},
        {"bufferpool.evictions", counters("bufferpool.evictions"), "count"},
        {"bufferpool.prefetches", counters("bufferpool.prefetches"), "count"},
        {"storage.fetches_per_row", Share(prof.fetches, prof.leaf_rows), "pages/row"},
        {"index.pages_per_lookup", Share(prof.indsel_pages, prof.indsel_nodes), "pages"},
        {"txn.commit_us_p50", p50("txn"), "us"},
        {"txn.client_commit_ms_p50", commit_p50, "ms"},
        {"txn.client_commit_ms_p99", commit_tail.value, "ms"},
        {"wal.fsyncs_per_commit", Share(counters("wal.fsyncs"), commits), "count"},
        {"wal.bytes_per_user_byte", Share(static_cast<double>(wal_growth), static_cast<double>(run.user_bytes_written)), "B/B"},
        {"lockman.wait_blocks_per_commit", Share(counters("lockman.wait_blocks"), commits), "count"},
        {"lockman.deadlocks", counters("lockman.deadlocks"), "count"},
        {"txn.snapshot.chains_peak", chains_peak, "count"},
        {"mv.hit_share", Share(counters("mv.hits"), static_cast<double>(run.mv_reads)), "share"},
        {"mv.maintenance_rows_per_write", Share(counters("mv.maintenance_rows"), static_cast<double>(run.row_writes)), "rows"},
        {"mv.full_refreshes", counters("mv.full_refreshes"), "count"},
        {"net.client_rtt_us_p50", client_rtt, "us"},
        {"net.server_us_p50", server_us, "us"},
        {"net.wire_overhead_us_p50", client_rtt > 0 ? client_rtt - server_us : 0, "us"},
        {"net.sessions_reaped", counters("net.sessions_reaped"), "count"},
        {"net.disconnects", counters("net.disconnects"), "count"},
        {"net.errors", counters("net.errors"), "count"},
        {"net.requests_dropped", static_cast<double>(run.dropped), "count"},
        {"core.statement_us_p50", stmt_us.Percentile(0.5), "us"},
        {"trace.ops_per_s_ratio", Share(traced_ops, untraced_ops), "ratio"},
        {"trace.untraced_ops_per_s", untraced_ops, "1/s"},
        {"trace.traced_ops_per_s", traced_ops, "1/s"},
    };
    std::printf("trace summary (traced half + replay): layer count self_ms wait_ms\n");
    for (const char* layer : {"op", "net", "core", "txn", "objects", "sql", "optimizer", "explain"}) {
      auto it = summary.find(layer);
      const LayerSummary l = it == summary.end() ? LayerSummary{} : it->second;
      std::printf("  %-10s %10llu %12.3f %12.3f\n", layer,
                  static_cast<unsigned long long>(l.count), l.self_ms, l.wait_ms);
      const std::string base = std::string("trace.") + layer;
      metrics.push_back({base + ".count", static_cast<double>(l.count), "count"});
      metrics.push_back({base + ".self_ms", l.self_ms, "ms"});
      metrics.push_back({base + ".wait_ms", l.wait_ms, "ms"});
    }
    std::printf("profiled statements=%llu point_reads=%llu point_indsel=%llu\n",
                static_cast<unsigned long long>(prof.statements),
                static_cast<unsigned long long>(prof.point_reads),
                static_cast<unsigned long long>(prof.point_indsel));
    if (!opt.trace_file.empty() && !tracer.WriteCsv(opt.trace_file)) {
      std::printf("warning: could not write spans to %s\n", opt.trace_file.c_str());
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-36s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max<uint64_t>(1, all.attempted)) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + JsonNumber(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
