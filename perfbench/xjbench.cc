// xjbench: the repository benchmark. One binary, three workloads
// (serve, analytic, read_write), driven only through public entry
// points. perfbench/README.md lists the workloads, metrics and the
// layer -> end-to-end table; perfbench/run.py builds this binary and
// turns its last output line into the benchmark's result line.
//
//   xjbench --workload analytic --seed 1 --seconds 30 [--trace 1]
//           [--trace-out spans.csv] [--scale tiny]
//           [--corrupt-expected result|replay]
//
// A run: generate seeded CSV/XML text -> on a reference system, check
// every query class against the baseline engine and generate the delta
// stream -> 12 rounds of: set the system up a few times (setup_s is the
// median over all set-ups), closed-loop reads for its share of
// --seconds (read_write: beside the open-loop writer), checks of what
// the round produced -> with --trace 1, a probe pass that times every
// layer entry point per query class, and on workloads without a
// concurrent writer a probe write stream. With --trace 1 the odd rounds
// are traced and the even ones not, so the tracing overhead is measured
// within one process. Spans are kept in memory and written at exit; the
// last stdout line is one JSON object with every metric, its unit and
// the run's context.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/simd.h"
#include "core/database.h"
#include "core/xjoin.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "relational/csv.h"
#include "relational/intersect_kernels.h"
#include "relational/trie.h"
#include "workload/bookstore.h"
#include "workload/xmark.h"
#include "xml/node_index.h"
#include "xml/parser.h"
#include "xml/serialize.h"

#ifndef XJBENCH_BUILD_TYPE
#define XJBENCH_BUILD_TYPE "unknown"
#endif

namespace xjoin {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------
// Correctness failures: any thread may report one; the run stops and
// the process exits 3 without printing a result line.

std::atomic<bool> g_mismatch{false};
std::mutex g_mismatch_mu;

void Mismatch(const std::string& what) {
  std::lock_guard<std::mutex> lk(g_mismatch_mu);
  if (!g_mismatch.exchange(true)) {
    std::fprintf(stderr, "xjbench: CORRECTNESS FAILURE: %s\n", what.c_str());
  }
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "xjbench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

// ---------------------------------------------------------------------
// Tracing: spans recorded by the benchmark around each call into the
// program. On only in a --trace 1 run's odd rounds and its probe pass;
// an inactive Span is one branch.

enum Phase : uint8_t { kLoad = 0, kWrite = 1, kProbe = 2 };

struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = nullptr;
  int cls = -1;  // query class index, -1 = none
  Phase phase = kLoad;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

bool g_trace = false;
std::atomic<uint64_t> g_next_request{1};
std::atomic<uint32_t> g_next_thread{0};
std::mutex g_spans_mu;
std::vector<std::unique_ptr<std::vector<SpanRec>>> g_span_buffers;

struct ThreadTrace {
  std::vector<SpanRec>* spans = nullptr;
  uint64_t thread = 0;
  uint64_t counter = 0;
  uint64_t current = 0;  // innermost open span id
  uint64_t request = 0;
  Phase phase = kLoad;
};
thread_local ThreadTrace t_trace;

ThreadTrace& Tls() {
  if (t_trace.spans == nullptr) {
    auto buf = std::make_unique<std::vector<SpanRec>>();
    buf->reserve(1 << 15);
    std::lock_guard<std::mutex> lk(g_spans_mu);
    t_trace.spans = buf.get();
    t_trace.thread = g_next_thread.fetch_add(1) + 1;
    g_span_buffers.push_back(std::move(buf));
  }
  return t_trace;
}

class Span {
 public:
  explicit Span(const char* name, int cls = -1) {
    if (!g_trace) return;
    ThreadTrace& t = Tls();
    active_ = true;
    rec_.id = (t.thread << 40) | ++t.counter;
    rec_.parent = t.current;
    rec_.request = t.request;
    rec_.name = name;
    rec_.cls = cls;
    rec_.phase = t.phase;
    t.current = rec_.id;
    rec_.start_ns = NowNs();
  }
  ~Span() {
    if (!active_) return;
    rec_.end_ns = NowNs();
    ThreadTrace& t = Tls();
    t.current = rec_.parent;
    t.spans->push_back(rec_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRec rec_;
};

// Spans opened inside share one request id.
class RequestScope {
 public:
  RequestScope() {
    if (g_trace) Tls().request = g_next_request.fetch_add(1);
  }
  ~RequestScope() {
    if (g_trace) Tls().request = 0;
  }
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;
};

void SetPhase(Phase p) {
  if (g_trace) Tls().phase = p;
}

std::vector<SpanRec> AllSpans() {
  std::lock_guard<std::mutex> lk(g_spans_mu);
  std::vector<SpanRec> all;
  for (const auto& buf : g_span_buffers) {
    all.insert(all.end(), buf->begin(), buf->end());
  }
  return all;
}

// ---------------------------------------------------------------------
// Statistics.

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  if (rank < 1) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

double Median(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

// Samples strictly above the p-th percentile's rank.
size_t Beyond(size_t n, double p) {
  return n - std::min(n, static_cast<size_t>(std::ceil(p * static_cast<double>(n))));
}

// ---------------------------------------------------------------------
// Inputs: generated as text from the seed; the program sees only this
// text, through the public registration API.

struct RelText {
  std::string name;
  std::string csv;
  size_t rows = 0;
};
struct DocText {
  std::string name;
  std::string xml;
};
struct QueryClass {
  std::string name;
  std::string text;
};

struct Inputs {
  std::vector<RelText> relations;
  std::vector<DocText> documents;
};

const std::map<std::string, std::string>& QueryTexts() {
  static const std::map<std::string, std::string> texts = {
      {"fig1",
       "Q(userID, ISBN, price) := R, "
       "invoices:invoice[orderID]/orderLine[ISBN]/price"},
      {"enriched",
       "Q(userID, country, ISBN, genre, price) := R, Cust, Book, "
       "invoices:invoice[orderID]/orderLine[ISBN]/price"},
      {"closed",
       "Q(itemref, category, buyer, country, price) := ItemCat, PersonGeo, "
       "auction:closed_auction[itemref,buyer]/price"},
      {"open",
       "Q(itemref, category, personref) := ItemCat, "
       "auction:site//open_auction[bidder/personref]/itemref"},
      {"join2", "Q(A, B, C) := P, S"},
      {"triangle", "Q(A, B, C) := E1, E2, E3"},
  };
  return texts;
}

void AddRelation(Inputs* in, const std::string& name, const Relation& rel,
                 const Dictionary& dict) {
  in->relations.push_back({name, WriteCsv(rel, dict), rel.num_rows()});
}

int64_t Scaled(int64_t base, double scale) {
  return std::max<int64_t>(1, static_cast<int64_t>(std::llround(base * scale)));
}

void AddBookstore(Inputs* in, double scale, uint64_t seed) {
  BookstoreOptions o;
  o.num_orders = Scaled(o.num_orders, scale);
  o.num_invoices = Scaled(o.num_invoices, scale);
  o.num_users = Scaled(o.num_users, scale);
  o.num_books = Scaled(o.num_books, scale);
  o.seed = seed;
  BookstoreInstance inst = MakeBookstore(o);
  AddRelation(in, "R", *inst.orders, *inst.dict);
  AddRelation(in, "Cust", *inst.customers, *inst.dict);
  AddRelation(in, "Book", *inst.books, *inst.dict);
  in->documents.push_back({"invoices", WriteXml(*inst.doc, {false, true})});
}

void AddXMark(Inputs* in, double scale, uint64_t seed) {
  XMarkOptions o;
  o.num_items = Scaled(o.num_items, scale);
  o.num_persons = Scaled(o.num_persons, scale);
  o.num_open_auctions = Scaled(o.num_open_auctions, scale);
  o.num_closed_auctions = Scaled(o.num_closed_auctions, scale);
  o.seed = seed;
  XMarkInstance inst = MakeXMark(o);
  AddRelation(in, "ItemCat", *inst.item_category, *inst.dict);
  AddRelation(in, "PersonGeo", *inst.person_country, *inst.dict);
  in->documents.push_back({"auction", WriteXml(*inst.doc, {false, true})});
}

// Two-column CSV of `rows` distinct pairs; each column drawn Zipf over
// its own domain (theta 0 = uniform).
std::string PairCsv(const std::string& a, const std::string& b,
                    const std::string& prefix_a, const std::string& prefix_b,
                    int64_t rows, uint64_t dom_a, uint64_t dom_b, double theta,
                    uint64_t seed, size_t* out_rows) {
  Rng rng(seed);
  ZipfGenerator za(dom_a, theta), zb(dom_b, theta);
  std::set<std::pair<uint64_t, uint64_t>> pairs;
  const int64_t max_draws = rows * 20;
  for (int64_t d = 0; static_cast<int64_t>(pairs.size()) < rows && d < max_draws;
       ++d) {
    pairs.insert({za.Next(&rng), zb.Next(&rng)});
  }
  std::string csv = a + "," + b + "\n";
  for (const auto& [x, y] : pairs) {
    csv += prefix_a + std::to_string(x) + "," + prefix_b + std::to_string(y) +
           "\n";
  }
  *out_rows = pairs.size();
  return csv;
}

void AddJoin2(Inputs* in, uint64_t seed) {
  RelText p{"P", "", 0}, s{"S", "", 0};
  p.csv = PairCsv("A", "B", "a", "b", 300, 100, 120, 0.0, seed, &p.rows);
  s.csv = PairCsv("B", "C", "b", "c", 300, 120, 100, 0.0, seed + 1, &s.rows);
  in->relations.push_back(std::move(p));
  in->relations.push_back(std::move(s));
}

// Zipf-skewed triangle E1(A,B), E2(B,C), E3(A,C): three independent
// edge draws over one vertex set, so high-degree vertices meet in all
// three relations and the AGM bound, not the input size, governs.
void AddTriangle(Inputs* in, int64_t edges, uint64_t seed) {
  const uint64_t vertices = static_cast<uint64_t>(std::max<int64_t>(64, edges / 6));
  const double theta = 0.6;
  const char* names[3][3] = {{"E1", "A", "B"}, {"E2", "B", "C"}, {"E3", "A", "C"}};
  for (int i = 0; i < 3; ++i) {
    RelText r{names[i][0], "", 0};
    r.csv = PairCsv(names[i][1], names[i][2], "v", "v", edges, vertices,
                    vertices, theta, seed + static_cast<uint64_t>(i), &r.rows);
    in->relations.push_back(std::move(r));
  }
}

// ---------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  // Read cycle of query classes, round-robin. A cycle of odd length,
  // repeating a class where needed, puts the median read inside one
  // class's latency cluster instead of on the edge between two.
  std::vector<std::string> mix;
  std::vector<std::string> delta_targets;
  int load_threads = 1;
  bool over_wire = false;
  bool fresh_session_per_read = false;
  bool concurrent_writer = false;  // read_write; elsewhere probe writes only
  QueryOptions read_options;
  int probe_batches = 200;  // traced probe writes, no concurrent writer
  int setup_reps = 2;       // per round
  int probe_reps = 9;
};

constexpr int kDeltaBatchTuples = 16;
constexpr double kWritePeriodMs = 10.0;  // one delta batch due every 10 ms
constexpr size_t kMinReads = 1000;
constexpr int kRounds = 12;
// read_write: every 7th read of a reader records a sample (7 is coprime
// to the 3-read cycle, so every class is sampled); per round and class,
// the middle and the last recorded sample are checked.
constexpr size_t kSampleEvery = 7;
constexpr size_t kChecksPerClass = 2;

Workload MakeWorkload(const std::string& name, bool tiny, uint64_t seed,
                      Inputs* in) {
  Workload w;
  w.name = name;
  const double big = tiny ? 0.5 : 8.0;
  const int64_t edges = tiny ? 2000 : 40000;
  if (name == "serve") {
    w.mix = {"fig1", "closed", "open", "join2", "fig1"};
    w.delta_targets = {"P", "R"};
    w.load_threads = 2;
    w.over_wire = true;
    w.read_options.xjoin.num_threads = net::ServerOptions().query_num_threads;
    w.setup_reps = 3;
    w.probe_reps = 31;
    const double s = tiny ? 0.25 : 1.0;
    AddBookstore(in, s, seed * 1000 + 1);
    AddXMark(in, s, seed * 1000 + 2);
    AddJoin2(in, seed * 1000 + 3);
  } else if (name == "analytic") {
    w.mix = {"triangle", "fig1", "enriched", "closed", "open"};
    w.delta_targets = {"E1", "R"};
    w.read_options.xjoin.num_threads = 2;
    AddTriangle(in, edges, seed * 1000 + 4);
    AddBookstore(in, big, seed * 1000 + 1);
    AddXMark(in, big, seed * 1000 + 2);
  } else if (name == "read_write") {
    w.mix = {"triangle", "fig1", "triangle"};
    w.delta_targets = {"E1", "R"};
    w.load_threads = 2;
    w.fresh_session_per_read = true;
    w.concurrent_writer = true;
    AddTriangle(in, edges, seed * 1000 + 4);
    AddBookstore(in, big, seed * 1000 + 1);
  } else {
    Die("unknown workload '" + name + "' (serve | analytic | read_write)");
  }
  if (tiny) {
    w.setup_reps = 2;
    w.probe_reps = 3;
    w.probe_batches = 40;
  }
  return w;
}

// ---------------------------------------------------------------------
// The system under test.

// Members are destroyed in reverse order: the server drains and stops
// before the database it serves goes away.
struct System {
  std::unique_ptr<MultiModelDatabase> db;
  std::unique_ptr<net::XJoinServer> server;  // serve only
};

std::unique_ptr<System> Setup(const Inputs& in, const Workload& w,
                              const std::vector<QueryClass>& classes) {
  auto sys = std::make_unique<System>();
  sys->db = std::make_unique<MultiModelDatabase>();
  for (const RelText& r : in.relations) {
    CheckOk(sys->db->RegisterRelationCsv(r.name, r.csv), "register " + r.name);
  }
  for (const DocText& d : in.documents) {
    CheckOk(sys->db->RegisterDocumentXml(d.name, d.xml), "register " + d.name);
  }
  if (w.over_wire) {
    sys->server = std::make_unique<net::XJoinServer>(sys->db.get(),
                                                     net::ServerOptions());
    CheckOk(sys->server->Start(), "server start");
    net::ClientOptions co;
    co.port = sys->server->port();
    net::XJoinClient client(co);
    for (const QueryClass& c : classes) {
      net::QueryRequest req;
      req.text = c.text;
      auto r = client.Query(req);
      CheckOk(r.status(), "cold wire query " + c.name);
    }
  } else {
    const Session session = sys->db->OpenSession();
    for (const QueryClass& c : classes) {
      CheckOk(session.Query(c.text, w.read_options).status(),
              "cold query " + c.name);
    }
  }
  return sys;
}

// ---------------------------------------------------------------------
// Result references.

uint64_t HashMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Order-independent multiset hash: the sum of the rows' hashes.
// `cell(row, col)` reads one value, so a Relation is hashed in place:
// the per-read check in the timed loop must stay cheap.
template <typename Cell>
uint64_t RowsHash(size_t rows, size_t cols, Cell cell) {
  uint64_t h = 0;
  for (size_t r = 0; r < rows; ++r) {
    uint64_t rh = 0x12345;
    for (size_t c = 0; c < cols; ++c) {
      rh = HashMix(rh ^ static_cast<uint64_t>(cell(r, c)));
    }
    h += rh;
  }
  return h;
}

uint64_t RelationHash(const Relation& rel) {
  return RowsHash(rel.num_rows(), rel.num_columns(),
                  [&](size_t r, size_t c) { return rel.at(r, c); });
}

uint64_t TuplesHash(const std::vector<Tuple>& rows) {
  return RowsHash(rows.size(), rows.empty() ? 0 : rows[0].size(),
                  [&](size_t r, size_t c) { return rows[r][c]; });
}

// Rows projected onto `attrs`, sorted, duplicates removed.
std::vector<Tuple> Canonical(const Relation& r,
                             const std::vector<std::string>& attrs) {
  std::vector<const std::vector<int64_t>*> cols;
  for (const std::string& a : attrs) {
    auto col = r.ColumnByName(a);
    if (!col.ok()) return {};
    cols.push_back(*col);
  }
  std::vector<Tuple> rows(r.num_rows(), Tuple(attrs.size()));
  for (size_t row = 0; row < r.num_rows(); ++row) {
    for (size_t c = 0; c < cols.size(); ++c) rows[row][c] = (*cols[c])[row];
  }
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return rows;
}

bool SameAsBaseline(const Relation& xjoin, const Relation& baseline) {
  const auto& attrs = xjoin.schema().attributes();
  if (baseline.num_columns() != attrs.size()) return false;
  return Canonical(xjoin, attrs) == Canonical(baseline, attrs);
}

// The server's wire rendering of a result, rebuilt in process.
net::QueryResultSet Decoded(const Relation& rel, const Dictionary& dict) {
  net::QueryResultSet rs;
  rs.columns = rel.schema().attributes();
  rs.rows.reserve(rel.num_rows());
  for (size_t r = 0; r < rel.num_rows(); ++r) {
    std::vector<std::string> row;
    row.reserve(rel.num_columns());
    for (size_t c = 0; c < rel.num_columns(); ++c) {
      const int64_t code = rel.at(r, c);
      row.push_back(dict.Contains(code) ? dict.Decode(code)
                                        : "#" + std::to_string(code));
    }
    rs.rows.push_back(std::move(row));
  }
  return rs;
}

struct Expected {
  std::vector<std::string> attrs;  // result columns
  size_t rows = 0;
  uint64_t hash = 0;
  net::QueryResultSet wire;  // serve only
};

// ---------------------------------------------------------------------
// Delta stream: 16-tuple batches (8 deletes of live tuples, 8 inserts
// of fresh pairs over the column domains) for two target relations,
// generated before the run from the seed and the registered contents.

struct DeltaStream {
  std::vector<std::string> targets;
  std::vector<size_t> target_of;  // batch -> target index
  std::vector<RelationDelta> batches;
  std::vector<std::set<Tuple>> initial;  // per target

  // Contents of target `ti` after its first `k` batches.
  std::set<Tuple> Replay(size_t ti, size_t k) const {
    std::set<Tuple> rows = initial[ti];
    for (size_t b = 0; b < batches.size() && k > 0; ++b) {
      if (target_of[b] != ti) continue;
      for (const Tuple& t : batches[b].deletes) rows.erase(t);
      for (const Tuple& t : batches[b].inserts) rows.insert(t);
      --k;
    }
    return rows;
  }
};

DeltaStream MakeDeltaStream(const MultiModelDatabase& db,
                            const std::vector<std::string>& targets,
                            size_t num_batches, uint64_t seed) {
  DeltaStream ds;
  ds.targets = targets;
  Rng rng(seed);
  struct Model {
    std::vector<Tuple> live;
    std::set<Tuple> members;
    std::vector<std::vector<int64_t>> domains;
  };
  std::vector<Model> models;
  for (const std::string& t : targets) {
    auto rel = db.relation(t);
    CheckOk(rel.status(), "delta target " + t);
    Model m;
    m.live = (*rel)->ToTuples();
    m.members.insert(m.live.begin(), m.live.end());
    m.live.assign(m.members.begin(), m.members.end());
    ds.initial.push_back(m.members);
    for (size_t c = 0; c < (*rel)->num_columns(); ++c) {
      std::set<int64_t> dom((*rel)->column(c).begin(), (*rel)->column(c).end());
      m.domains.emplace_back(dom.begin(), dom.end());
    }
    models.push_back(std::move(m));
  }
  for (size_t b = 0; b < num_batches; ++b) {
    // Two of every three batches go to the first (larger) target, so
    // the update median lies inside its cost cluster rather than on the
    // boundary between the two targets' clusters.
    const size_t ti = b % 3 == 2 ? 1 : 0;
    Model& m = models[ti];
    RelationDelta delta;
    for (int k = 0; k < kDeltaBatchTuples / 2 && !m.live.empty(); ++k) {
      const size_t pick = rng.NextBounded(m.live.size());
      delta.deletes.push_back(m.live[pick]);
      m.members.erase(m.live[pick]);
      m.live[pick] = m.live.back();
      m.live.pop_back();
    }
    for (int k = 0; k < kDeltaBatchTuples / 2; ++k) {
      for (int attempt = 0; attempt < 8; ++attempt) {
        Tuple t;
        for (const auto& dom : m.domains) {
          t.push_back(dom[rng.NextBounded(dom.size())]);
        }
        if (m.members.insert(t).second) {
          m.live.push_back(t);
          delta.inserts.push_back(std::move(t));
          break;
        }
      }
    }
    ds.target_of.push_back(ti);
    ds.batches.push_back(std::move(delta));
  }
  return ds;
}

struct WriteResult {
  std::vector<double> latency_ms;  // from due time to completion
  std::vector<double> apply_ms;    // the call alone
  double max_lag_ms = 0;           // how late the generator ran
  size_t applied = 0;
  int64_t failed = 0;

  void Append(const WriteResult& o) {
    latency_ms.insert(latency_ms.end(), o.latency_ms.begin(), o.latency_ms.end());
    apply_ms.insert(apply_ms.end(), o.apply_ms.begin(), o.apply_ms.end());
    max_lag_ms = std::max(max_lag_ms, o.max_lag_ms);
    applied += o.applied;
    failed += o.failed;
  }
};

// Open loop: batch i is due at start + i * kWritePeriodMs and is timed
// from then, so a slow update delays (and is charged to) the ones after
// it.
void RunWriter(MultiModelDatabase* db, const DeltaStream& ds,
               Clock::time_point start, Clock::time_point end,
               WriteResult* out) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(kWritePeriodMs));
  for (size_t i = 0; i < ds.batches.size(); ++i) {
    if (g_mismatch.load()) break;
    const Clock::time_point due = start + period * static_cast<int64_t>(i);
    if (due >= end) break;
    std::this_thread::sleep_until(due);
    RequestScope rq;
    Span span("update");
    const Clock::time_point t0 = Clock::now();
    out->max_lag_ms = std::max(out->max_lag_ms, MsSince(due, t0));
    Status st;
    {
      Span apply("db.apply_delta");
      st = db->ApplyRelationDelta(ds.targets[ds.target_of[i]], ds.batches[i]);
    }
    const Clock::time_point t1 = Clock::now();
    ++out->applied;
    if (!st.ok()) {
      ++out->failed;
      continue;
    }
    out->latency_ms.push_back(MsSince(due, t1));
    out->apply_ms.push_back(MsSince(t0, t1));
  }
}

// Final state == serial replay of the applied prefix of the stream,
// both in storage and through a query over the (delta-patched) tries.
void CheckReplay(const MultiModelDatabase& db, const DeltaStream& ds,
                 size_t applied, bool corrupt) {
  for (size_t ti = 0; ti < ds.targets.size(); ++ti) {
    std::set<Tuple> expect = ds.Replay(
        ti, static_cast<size_t>(std::count(ds.target_of.begin(),
                                           ds.target_of.begin() + applied, ti)));
    if (corrupt && ti == 0) expect.insert(Tuple{-7, -7});
    const std::vector<Tuple> want(expect.begin(), expect.end());
    const std::string& name = ds.targets[ti];
    auto rel = db.relation(name);
    CheckOk(rel.status(), "replay target " + name);
    const auto& attrs = (*rel)->schema().attributes();
    if (Canonical(**rel, attrs) != want) {
      Mismatch(name + ": stored relation differs from the serial replay of " +
               std::to_string(applied) + " batches");
      return;
    }
    auto q = db.OpenSession().Query("Q(*) := " + name, QueryOptions());
    CheckOk(q.status(), "replay query " + name);
    if (Canonical(*q, attrs) != want) {
      Mismatch(name + ": query over patched tries differs from the replay");
      return;
    }
  }
}

// ---------------------------------------------------------------------
// The timed read loop.

// A sampled read_write read: the versions of the delta targets its
// snapshot saw, and a fingerprint of its distinct result rows.
struct SampledRead {
  size_t cls = 0;
  std::vector<uint64_t> versions;  // per delta target
  size_t rows = 0;
  uint64_t hash = 0;
};

struct LoadResult {
  std::vector<double> read_ms;
  std::vector<size_t> read_cls;  // query class of each read_ms sample
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t retries = 0;
  double elapsed_s = 0;
  std::vector<SampledRead> samples;  // read_write: checked after the loop

  void Append(LoadResult&& o) {
    read_ms.insert(read_ms.end(), o.read_ms.begin(), o.read_ms.end());
    read_cls.insert(read_cls.end(), o.read_cls.begin(), o.read_cls.end());
    attempted += o.attempted;
    failed += o.failed;
    retries += o.retries;
    elapsed_s += o.elapsed_s;
    for (SampledRead& s : o.samples) samples.push_back(std::move(s));
  }
};

// The samples to check: per class, kChecksPerClass of them evenly
// spaced in snapshot order and ending at the last (with 2: the middle
// and the last). Snapshot order is the sum of the versions, which only
// grow. Every class must have at least one; a round without is an error
// of the benchmark, not of the program.
std::vector<SampledRead> SelectChecks(std::vector<SampledRead> samples,
                                      const std::vector<QueryClass>& classes) {
  auto age = [](const SampledRead& s) {
    uint64_t sum = 0;
    for (uint64_t v : s.versions) sum += v;
    return sum;
  };
  std::stable_sort(samples.begin(), samples.end(),
                   [&](const SampledRead& a, const SampledRead& b) {
                     return age(a) < age(b);
                   });
  std::vector<SampledRead> picked;
  for (size_t c = 0; c < classes.size(); ++c) {
    std::vector<const SampledRead*> of_class;
    for (const SampledRead& s : samples) {
      if (s.cls == c) of_class.push_back(&s);
    }
    if (of_class.empty()) {
      Die("read_write: no sampled read of class " + classes[c].name +
          " in a round");
    }
    // Evenly spaced, ending at the last: ceil(k * m / C) - 1.
    const size_t m = of_class.size();
    size_t prev = m;
    for (size_t k = 1; k <= kChecksPerClass; ++k) {
      const size_t pos = (k * m + kChecksPerClass - 1) / kChecksPerClass - 1;
      if (pos != prev) picked.push_back(*of_class[pos]);
      prev = pos;
    }
  }
  return picked;
}

// Each checked read must equal the baseline engine's answer over the
// contents its snapshot saw. Those are rebuilt by replaying the delta
// stream up to the snapshot's versions (one version per applied batch,
// counted from `base_versions`) and installed with UpdateRelation, so
// run this after the final-state check: it rewinds the database.
// `corrupt` flips the first checked fingerprint, so the run must fail.
void CheckSamples(MultiModelDatabase* db, const DeltaStream& ds,
                  const std::vector<uint64_t>& base_versions,
                  const std::vector<QueryClass>& classes,
                  const std::vector<Expected>& expected,
                  std::vector<SampledRead> checks, bool corrupt) {
  QueryOptions baseline_opts;
  baseline_opts.engine = Engine::kBaseline;
  if (corrupt && !checks.empty()) checks[0].hash ^= 1;
  for (const SampledRead& s : checks) {
    for (size_t ti = 0; ti < ds.targets.size(); ++ti) {
      const std::set<Tuple> rows =
          ds.Replay(ti, static_cast<size_t>(s.versions[ti] - base_versions[ti]));
      auto current = db->relation(ds.targets[ti]);
      CheckOk(current.status(), "sample target " + ds.targets[ti]);
      auto rel = Relation::FromTuples((*current)->schema(),
                                      std::vector<Tuple>(rows.begin(), rows.end()));
      CheckOk(rel.status(), "sample relation " + ds.targets[ti]);
      CheckOk(db->UpdateRelation(ds.targets[ti], *std::move(rel)),
              "rewind " + ds.targets[ti]);
    }
    auto base = db->OpenSession().Query(classes[s.cls].text, baseline_opts);
    CheckOk(base.status(), "baseline query " + classes[s.cls].name);
    const std::vector<Tuple> want = Canonical(*base, expected[s.cls].attrs);
    if (want.size() != s.rows || TuplesHash(want) != s.hash) {
      Mismatch(classes[s.cls].name +
               ": read differs from the baseline engine on its snapshot");
      return;
    }
  }
}

struct Run {
  const Workload& w;
  const std::vector<QueryClass>& classes;
  const std::vector<size_t>& mix;  // read cycle, as class indices
  System* sys;
  const std::vector<Expected>& expected;
  uint64_t seed;
};

void ReaderThread(const Run& run, int thread, Clock::time_point end,
                  LoadResult* out) {
  const Workload& w = run.w;
  const size_t n = run.mix.size();
  std::unique_ptr<net::XJoinClient> client;
  if (w.over_wire) {
    net::ClientOptions co;
    co.port = run.sys->server->port();
    co.jitter_seed = run.seed * 16 + static_cast<uint64_t>(thread);
    client = std::make_unique<net::XJoinClient>(co);
  }
  std::unique_ptr<Session> shared;
  if (!w.fresh_session_per_read) {
    shared = std::make_unique<Session>(run.sys->db->OpenSession());
  }
  // Threads start at different points of the cycle so the mix is
  // interleaved.
  for (size_t i = static_cast<size_t>(thread);
       Clock::now() < end && !g_mismatch.load(); ++i) {
    const size_t cls = run.mix[i % n];
    const QueryClass& qc = run.classes[cls];
    const Expected& want = run.expected[cls];
    RequestScope rq;
    Span request("request", static_cast<int>(cls));
    ++out->attempted;
    if (w.over_wire) {
      net::QueryRequest req;
      req.text = qc.text;
      const Clock::time_point t0 = Clock::now();
      Result<net::QueryResultSet> r = [&] {
        Span s("net.client_query", static_cast<int>(cls));
        return client->Query(req);
      }();
      const Clock::time_point t1 = Clock::now();
      if (!r.ok()) {
        ++out->failed;
        continue;
      }
      out->read_ms.push_back(MsSince(t0, t1));
      out->read_cls.push_back(cls);
      Span s("check", static_cast<int>(cls));
      if (r->columns != want.wire.columns || r->rows != want.wire.rows) {
        Mismatch(qc.name + ": wire response differs from the in-process result");
      }
      continue;
    }
    std::unique_ptr<Session> fresh;
    if (w.fresh_session_per_read) {
      Span s("db.open_session", static_cast<int>(cls));
      fresh = std::make_unique<Session>(run.sys->db->OpenSession());
    }
    const Session& session = fresh ? *fresh : *shared;
    const Clock::time_point t0 = Clock::now();
    Result<Relation> r = [&] {
      Span s("db.session_query", static_cast<int>(cls));
      return session.Query(qc.text, w.read_options);
    }();
    const Clock::time_point t1 = Clock::now();
    if (!r.ok()) {
      ++out->failed;
      continue;
    }
    out->read_ms.push_back(MsSince(t0, t1));
    out->read_cls.push_back(cls);
    Span s("check", static_cast<int>(cls));
    if (w.concurrent_writer) {
      // The data moves under the readers, so every kSampleEvery-th read
      // records its snapshot versions and result fingerprint; a selection
      // of them is checked against the baseline engine after the round.
      if (i % kSampleEvery == 0) {
        const std::vector<Tuple> rows = Canonical(*r, want.attrs);
        SampledRead sample{cls, {}, rows.size(), TuplesHash(rows)};
        for (const std::string& t : w.delta_targets) {
          auto v = session.relation_version(t);
          CheckOk(v.status(), "snapshot version " + t);
          sample.versions.push_back(*v);
        }
        out->samples.push_back(std::move(sample));
      }
    } else if (r->num_rows() != want.rows || RelationHash(*r) != want.hash) {
      Mismatch(qc.name + ": result rows/hash differ from the reference");
    }
  }
  if (client) out->retries = client->stats().retries;
}

LoadResult RunLoad(const Run& run, double seconds) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<LoadResult> parts(static_cast<size_t>(run.w.load_threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < run.w.load_threads; ++t) {
    threads.emplace_back(ReaderThread, std::cref(run), t, end, &parts[t]);
  }
  for (auto& t : threads) t.join();
  LoadResult total;
  for (LoadResult& p : parts) total.Append(std::move(p));
  total.elapsed_s = std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

// The end-to-end read figures of a pool of reads.
struct Figures {
  double p50 = 0, p99 = 0, qps = 0;
};

Figures FiguresOf(const LoadResult& l) {
  return {Percentile(l.read_ms, 0.50), Percentile(l.read_ms, 0.99),
          static_cast<double>(l.read_ms.size()) / std::max(l.elapsed_s, 1e-9)};
}

// ---------------------------------------------------------------------
// Output.

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

std::string Num(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  }
  return buf;
}

std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------------
// Traced probe: every layer entry point, timed per query class.

struct ClassProbe {
  std::string name;
  size_t rows = 0;
  Metrics counts;
  double bytes = 0;
};

// Median duration (µs) of the probe spans called `name` for class `cls`.
double SpanMedianUs(const std::vector<SpanRec>& spans, const char* name,
                    int cls, Phase phase) {
  std::vector<double> d;
  for (const SpanRec& s : spans) {
    if (s.phase == phase && s.cls == cls && std::strcmp(s.name, name) == 0) {
      d.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return Median(d);
}

void Probe(const Inputs& in, const Workload& w,
           const std::vector<QueryClass>& classes, System* sys,
           std::vector<ClassProbe>* probes, int64_t* probe_retries) {
  SetPhase(kProbe);
  const int reps = w.probe_reps;
  MultiModelDatabase& db = *sys->db;
  // src/relational and src/xml: load and index the workload's inputs.
  for (int r = 0; r < reps; ++r) {
    Dictionary dict;
    std::vector<Relation> rels;
    {
      Span s("csv.read");
      for (const RelText& t : in.relations) {
        auto rel = ReadCsv(t.csv, CsvOptions(), &dict);
        CheckOk(rel.status(), "ReadCsv " + t.name);
        rels.push_back(*std::move(rel));
      }
    }
    {
      Span s("trie.build");
      for (const Relation& rel : rels) {
        CheckOk(RelationTrie::Build(rel, rel.schema().attributes()).status(),
                "trie build");
      }
    }
    std::vector<XmlDocument> docs;
    {
      Span s("xml.parse");
      for (const DocText& d : in.documents) {
        auto doc = ParseXml(d.xml);
        CheckOk(doc.status(), "ParseXml " + d.name);
        docs.push_back(*std::move(doc));
      }
    }
    {
      Span s("xml.index");
      for (const XmlDocument& doc : docs) NodeIndex::Build(&doc, &dict);
    }
    Span s("db.open_session");
    Session unused = db.OpenSession();
  }
  // A wire front-end for the in-process workloads too, so the net
  // layer is measured on every workload's result shapes.
  std::unique_ptr<net::XJoinServer> probe_server;
  int port = sys->server ? sys->server->port() : 0;
  if (!sys->server) {
    probe_server = std::make_unique<net::XJoinServer>(&db, net::ServerOptions());
    CheckOk(probe_server->Start(), "probe server start");
    port = probe_server->port();
  }
  net::ClientOptions co;
  co.port = port;
  net::XJoinClient client(co);
  QueryOptions wire_opts;
  wire_opts.xjoin.num_threads = net::ServerOptions().query_num_threads;
  QueryOptions baseline_opts;
  baseline_opts.engine = Engine::kBaseline;

  const Session session = db.OpenSession();
  for (size_t ci = 0; ci < classes.size(); ++ci) {
    const int cls = static_cast<int>(ci);
    const QueryClass& qc = classes[ci];
    ClassProbe p;
    p.name = qc.name;
    {
      QueryOptions counted = w.read_options;
      counted.metrics = &p.counts;
      auto r = session.Query(qc.text, counted);
      CheckOk(r.status(), "probe query " + qc.name);
      p.rows = r->num_rows();
    }
    std::string payload;
    {
      auto r = session.Query(qc.text, wire_opts);
      CheckOk(r.status(), "probe wire-shaped query " + qc.name);
      const net::QueryResultSet rs = Decoded(*r, db.dictionary());
      for (int k = 0; k < reps; ++k) {
        Span s("net.encode", cls);
        auto enc = net::EncodeQueryResultSet(rs);
        CheckOk(enc.status(), "encode " + qc.name);
        payload = *std::move(enc);
      }
      p.bytes = static_cast<double>(payload.size());
      for (int k = 0; k < reps; ++k) {
        Span s("net.decode", cls);
        CheckOk(net::DecodeQueryResultSet(payload).status(), "decode");
      }
    }
    net::QueryRequest req;
    req.text = qc.text;
    for (int k = 0; k < reps; ++k) {
      {
        RequestScope rq;
        Span s("net.client_query", cls);
        CheckOk(client.Query(req).status(), "probe wire query " + qc.name);
      }
      {
        Span s("db.session_query", cls);
        CheckOk(session.Query(qc.text, wire_opts).status(), "probe query");
      }
    }
    for (int k = 0; k < reps; ++k) {
      Result<PreparedQuery> prepared = [&] {
        Span s("db.prepare", cls);
        return session.Prepare(qc.text, w.read_options);
      }();
      CheckOk(prepared.status(), "prepare " + qc.name);
      {
        Span s("db.execute", cls);
        CheckOk(session.Execute(*prepared, w.read_options).status(), "execute");
      }
      {
        Span s("exec.execute_plan", cls);
        CheckOk(ExecutePlan(*prepared->plan, XJoinOptions()).status(),
                "ExecutePlan " + qc.name);
      }
      // The baseline can be orders of magnitude slower: three runs.
      if (k < 3) {
        Span s("baseline.query", cls);
        CheckOk(session.Query(qc.text, baseline_opts).status(), "baseline");
      }
    }
    for (int k = 0; k < reps; ++k) {
      db.ClearPlanCache();
      db.ClearTrieCache();
      const Session cold = db.OpenSession();
      Span s("plan.prepare_cold", cls);
      CheckOk(cold.Prepare(qc.text, w.read_options).status(), "cold prepare");
    }
    probes->push_back(std::move(p));
  }
  *probe_retries = client.stats().retries;
  if (probe_server) probe_server->Shutdown();
  SetPhase(kLoad);
}

struct SelfTime {
  int64_t count = 0;
  double self_ms = 0;
  std::vector<double> dur_us;
};

// Self time = span duration minus the part its children cover
// (children nest on the parent's thread, so they never overlap).
std::map<std::string, SelfTime> SelfTimes(const std::vector<SpanRec>& spans,
                                          Phase phase) {
  std::map<uint64_t, int64_t> child_ns;
  for (const SpanRec& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, SelfTime> out;
  for (const SpanRec& s : spans) {
    if (s.phase != phase) continue;
    SelfTime& st = out[s.name];
    const int64_t dur = s.end_ns - s.start_ns;
    auto it = child_ns.find(s.id);
    const int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    ++st.count;
    st.self_ms += static_cast<double>(self) / 1e6;
    st.dur_us.push_back(static_cast<double>(dur) / 1e3);
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<SpanRec>& spans,
                const std::vector<QueryClass>& classes) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "xjbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "request,span,parent,name,class,phase,start_us,end_us\n");
  const int64_t t0 = spans.empty() ? 0 : std::min_element(
      spans.begin(), spans.end(), [](const SpanRec& a, const SpanRec& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  static const char* kPhases[] = {"load", "write", "probe"};
  for (const SpanRec& s : spans) {
    const char* cls = s.cls >= 0 ? classes[static_cast<size_t>(s.cls)].name.c_str()
                                 : "";
    std::fprintf(f, "%llu,%llu,%llu,%s,%s,%s,%.3f,%.3f\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name, cls,
                 kPhases[s.phase], static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - t0) / 1e3);
  }
  std::fclose(f);
}

// Restarts the process's RSS high-water mark at its current RSS (after
// returning freed heap to the system), so the next PeakRssMb covers what
// runs from here on. A host that refuses the reset fails the run: the
// metric would silently mean something else there.
void ResetPeakRss() {
  malloc_trim(0);
  FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) Die("cannot open /proc/self/clear_refs to reset VmHWM");
  const bool wrote = std::fputs("5", f) >= 0;
  if (std::fclose(f) != 0 || !wrote) Die("cannot reset VmHWM");
}

double PeakRssMb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Die("cannot read /proc/self/status");
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atol(line + 6);
  }
  std::fclose(f);
  if (kib <= 0) Die("no VmHWM in /proc/self/status");
  return static_cast<double>(kib) / 1024.0;
}

// Reference results: every class must agree with the baseline engine
// before any timing counts. False on a mismatch.
bool ComputeExpected(const MultiModelDatabase& db, const Workload& w,
                     const std::vector<QueryClass>& classes, bool corrupt,
                     std::vector<Expected>* expected) {
  const Session session = db.OpenSession();
  QueryOptions baseline_opts;
  baseline_opts.engine = Engine::kBaseline;
  for (size_t ci = 0; ci < classes.size(); ++ci) {
    auto x = session.Query(classes[ci].text, w.read_options);
    auto b = session.Query(classes[ci].text, baseline_opts);
    CheckOk(x.status(), "reference query " + classes[ci].name);
    CheckOk(b.status(), "baseline query " + classes[ci].name);
    if (!SameAsBaseline(*x, *b)) {
      Mismatch(classes[ci].name + ": XJoin and baseline disagree at setup");
    }
    Expected& e = (*expected)[ci];
    e.attrs = x->schema().attributes();
    e.rows = x->num_rows();
    e.hash = RelationHash(*x);
    if (w.over_wire) e.wire = Decoded(*x, db.dictionary());
    std::printf("class %-9s %7zu rows  %s\n", classes[ci].name.c_str(),
                x->num_rows(), classes[ci].text.c_str());
  }
  if (corrupt && !w.concurrent_writer) {
    Expected& e = (*expected)[0];
    e.hash ^= 1;
    if (e.wire.rows.empty()) e.wire.rows.push_back({"corrupt"});
    e.wire.rows[0][0] += "#corrupt";
  }
  return !g_mismatch.load();
}

// Cache counters: plan lookups during the timed reads and trie lookups
// since set-up, summed over rounds; patches, compactions and rebinds
// over the writes (read_write: the rounds, with their concurrent reads;
// elsewhere: the probe writes).
struct RoundStats {
  int64_t plan_hits = 0, plan_misses = 0;
  int64_t trie_hits = 0, trie_misses = 0;
  int64_t patches = 0, compactions = 0, rebinds = 0;

  void AddReads(const CacheStats& before, const CacheStats& after) {
    plan_hits += after.plan_hits - before.plan_hits;
    plan_misses += after.plan_misses - before.plan_misses;
    trie_hits += after.trie_hits;
    trie_misses += after.trie_misses;
  }
  void AddWrites(const CacheStats& before, const CacheStats& after) {
    patches += after.trie_patches - before.trie_patches;
    compactions += after.trie_compactions - before.trie_compactions;
    rebinds += after.plan_rebinds - before.plan_rebinds;
  }
};

// Workloads without a concurrent writer: after the probe, every class
// is run once (caching its tries and plan), then the delta stream is
// applied on the same open-loop schedule as read_write's writer.
void ProbeWrites(const Workload& w, const std::vector<QueryClass>& classes,
                 const DeltaStream& ds, MultiModelDatabase* db,
                 WriteResult* writes, RoundStats* counts) {
  const Session session = db->OpenSession();
  for (const QueryClass& c : classes) {
    CheckOk(session.Query(c.text, w.read_options).status(),
            "warm query " + c.name);
  }
  const CacheStats before = db->cache_stats();
  SetPhase(kWrite);
  RunWriter(db, ds, Clock::now(), Clock::time_point::max(), writes);
  SetPhase(kLoad);
  counts->AddWrites(before, db->cache_stats());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string corrupt;  // "", "result" or "replay"
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = next();
    } else if (k == "--seed") {
      a.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(next().c_str());
    } else if (k == "--trace") {
      a.trace = next() != "0";
    } else if (k == "--trace-out") {
      a.trace_out = next();
    } else if (k == "--scale") {
      const std::string s = next();
      if (s != "tiny" && s != "full") Die("--scale is tiny or full");
      a.tiny = s == "tiny";
    } else if (k == "--corrupt-expected") {
      a.corrupt = next();
      if (a.corrupt != "result" && a.corrupt != "replay") {
        Die("--corrupt-expected is result or replay");
      }
    } else {
      Die("unknown argument " + k);
    }
  }
  if (a.workload.empty()) Die("--workload is required");
  if (!(a.seconds > 0)) Die("--seconds must be positive");
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  Inputs inputs;
  const Workload w = MakeWorkload(args.workload, args.tiny, args.seed, &inputs);
  std::vector<QueryClass> classes;
  std::vector<size_t> mix;
  for (const std::string& c : w.mix) {
    size_t i = 0;
    while (i < classes.size() && classes[i].name != c) ++i;
    if (i == classes.size()) classes.push_back({c, QueryTexts().at(c)});
    mix.push_back(i);
  }

  std::printf("workload %s  seed %llu  scale %s  seconds %g  trace %d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.tiny ? "tiny" : "full", args.seconds, args.trace ? 1 : 0);
  size_t xml_bytes = 0, rows = 0;
  for (const RelText& r : inputs.relations) {
    std::printf("input relation %-9s %8zu rows %9zu csv bytes\n", r.name.c_str(),
                r.rows, r.csv.size());
    rows += r.rows;
  }
  for (const DocText& d : inputs.documents) {
    std::printf("input document %-9s %9zu xml bytes\n", d.name.c_str(),
                d.xml.size());
    xml_bytes += d.xml.size();
  }

  // Reference system, set up once before the rounds: the per-class
  // results every read is checked against, and the delta stream.
  const int rounds = args.tiny ? 2 : kRounds;
  const double round_s = args.seconds / rounds;
  const bool has_writes = w.concurrent_writer || args.trace;
  if (args.corrupt == "replay" && !has_writes) {
    Die("--corrupt-expected replay: this run applies no delta batches");
  }
  std::vector<Expected> expected(classes.size());
  CacheStats warm;
  DeltaStream ds;
  {
    const std::unique_ptr<System> ref = Setup(inputs, w, classes);
    warm = ref->db->cache_stats();
    std::printf("input trie cache %zu bytes of %zu budget (%.1f%%) in %zu "
                "tries\n",
                warm.trie_bytes, warm.trie_budget,
                100.0 * static_cast<double>(warm.trie_bytes) /
                    static_cast<double>(std::max<size_t>(1, warm.trie_budget)),
                warm.trie_entries);
    if (!ComputeExpected(*ref->db, w, classes, args.corrupt == "result",
                         &expected)) {
      return 3;
    }
    const size_t stream_len =
        w.concurrent_writer
            ? static_cast<size_t>(round_s * 1000.0 / kWritePeriodMs) + 16
            : static_cast<size_t>(w.probe_batches);
    ds = MakeDeltaStream(*ref->db, w.delta_targets, stream_len,
                         args.seed * 1000 + 9);
  }

  // The run is split into rounds, each on a freshly set-up system, and
  // the samples of all rounds are pooled. Host speed swings for seconds
  // at a time and a system's heap placement is fixed for its lifetime;
  // short rounds spread over the run average both, where one long round
  // would report whichever state it landed in. With --trace 1 the odd
  // rounds are traced: load[1] pools them, load[0] the untraced ones.
  std::vector<double> setup_s, peak_rss;
  RoundStats counts;
  LoadResult load[2];
  std::vector<Figures> plain_rounds;  // untraced, for the overhead note
  WriteResult writes;
  int64_t shed = 0;
  std::vector<size_t> sampled(classes.size()), checked(classes.size());
  std::unique_ptr<System> sys;
  for (int round = 0; round < rounds; ++round) {
    sys.reset();
    const bool traced = args.trace && round % 2 == 1;
    g_trace = traced;  // no benchmark thread runs between rounds
    // The high-water mark covers this round's set-ups and reads only.
    ResetPeakRss();
    // Set-up, several times from the same text; the last system is kept.
    for (int r = 0; r < w.setup_reps; ++r) {
      sys.reset();
      malloc_trim(0);  // every set-up starts from the same heap state
      const Clock::time_point t0 = Clock::now();
      {
        Span s("setup");
        sys = Setup(inputs, w, classes);
      }
      setup_s.push_back(MsSince(t0, Clock::now()) / 1e3);
    }
    MultiModelDatabase& db = *sys->db;
    std::vector<uint64_t> base_versions;
    for (const std::string& t : w.delta_targets) {
      auto v = db.relation_version(t);
      CheckOk(v.status(), "version " + t);
      base_versions.push_back(*v);
    }
    const CacheStats before = db.cache_stats();
    const Run run{w, classes, mix, sys.get(), expected, args.seed};
    WriteResult round_writes;
    LoadResult round_load;
    if (w.concurrent_writer) {
      const Clock::time_point start = Clock::now();
      const Clock::time_point end =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(round_s));
      std::thread writer([&] {
        SetPhase(kWrite);
        RunWriter(&db, ds, start, end, &round_writes);
      });
      round_load = RunLoad(run, round_s);
      writer.join();
    } else {
      round_load = RunLoad(run, round_s);
    }
    peak_rss.push_back(PeakRssMb());
    const CacheStats after = db.cache_stats();
    if (g_mismatch.load()) return 3;
    counts.AddReads(before, after);
    if (sys->server) {
      const net::ServerStats st = sys->server->stats();
      shed += st.shed_inflight + st.rejected_conn_limit + st.shed_draining;
    }
    if (w.concurrent_writer) {
      counts.AddWrites(before, after);
      CheckReplay(db, ds, round_writes.applied, args.corrupt == "replay");
      const std::vector<SampledRead> checks =
          SelectChecks(round_load.samples, classes);
      for (const SampledRead& x : round_load.samples) ++sampled[x.cls];
      for (const SampledRead& x : checks) ++checked[x.cls];
      if (!g_mismatch.load()) {
        CheckSamples(&db, ds, base_versions, classes, expected, checks,
                     args.corrupt == "result" && round == 0);
      }
      if (g_mismatch.load()) return 3;
    }
    std::printf("round %d%s: %zu reads p50 %.4f ms p99 %.4f ms, peak rss %.1f MB",
                round, traced ? " (traced)" : "", round_load.read_ms.size(),
                Percentile(round_load.read_ms, 0.50),
                Percentile(round_load.read_ms, 0.99), peak_rss.back());
    if (w.concurrent_writer) {
      std::printf(", %zu updates p50 %.4f ms", round_writes.latency_ms.size(),
                  Percentile(round_writes.latency_ms, 0.50));
    }
    std::printf("\n");
    writes.Append(round_writes);
    if (!traced) plain_rounds.push_back(FiguresOf(round_load));
    load[traced ? 1 : 0].Append(std::move(round_load));
  }

  std::vector<ClassProbe> probes;
  int64_t probe_retries = 0;
  if (args.trace) {
    g_trace = true;
    Probe(inputs, w, classes, sys.get(), &probes, &probe_retries);
    if (!w.concurrent_writer) {
      ProbeWrites(w, classes, ds, sys->db.get(), &writes, &counts);
      CheckReplay(*sys->db, ds, writes.applied, args.corrupt == "replay");
      if (g_mismatch.load()) return 3;
    }
  }
  sys.reset();

  // --- metrics ---
  // End-to-end figures come from the untraced rounds (all of them with
  // --trace 0); attempts and failures count every round.
  std::vector<MetricOut> m;
  const LoadResult& plain = load[0];
  const size_t n = plain.read_ms.size();
  auto count_note = [](size_t total, double p) {
    return "n=" + std::to_string(total) + " beyond=" +
           std::to_string(Beyond(total, p));
  };
  const Figures e2e = FiguresOf(plain);
  m.push_back({"setup_s", Median(setup_s), "s",
               "median of " + std::to_string(setup_s.size()) + " set-ups"});
  m.push_back({"latency_p50_ms", e2e.p50, "ms", count_note(n, 0.50)});
  m.push_back({"latency_p99_ms", e2e.p99, "ms", count_note(n, 0.99)});
  m.push_back({"throughput_qps", e2e.qps, "1/s",
               std::to_string(n) + " reads in " + Num(plain.elapsed_s) + " s"});
  const size_t u = writes.latency_ms.size();
  if (u > 0) {
    const std::string where = w.concurrent_writer
                                  ? " concurrent with reads"
                                  : " probe writes, no concurrent reads";
    m.push_back({"update_p50_ms", Percentile(writes.latency_ms, 0.50), "ms",
                 count_note(u, 0.50) + where + ", open loop every " +
                     Num(kWritePeriodMs) + " ms"});
    m.push_back({"update_p99_ms", Percentile(writes.latency_ms, 0.99), "ms",
                 count_note(u, 0.99) + " max_lag_ms=" + Num(writes.max_lag_ms)});
  }
  m.push_back({"peak_rss_mb", Median(peak_rss), "MB",
               "median over " + std::to_string(peak_rss.size()) +
                   " rounds of the high-water mark of the round's set-ups "
                   "and reads"});
  const int64_t attempted = load[0].attempted + load[1].attempted +
                            static_cast<int64_t>(writes.applied);
  const int64_t failed = load[0].failed + load[1].failed + writes.failed;
  std::printf("metric fail_ratio %s ratio (%lld of %lld reads+updates)\n",
              Num(static_cast<double>(failed) /
                  static_cast<double>(std::max<int64_t>(1, attempted)))
                  .c_str(),
              static_cast<long long>(failed), static_cast<long long>(attempted));
  for (size_t c = 0; c < classes.size(); ++c) {
    std::vector<double> v;
    for (size_t i = 0; i < n; ++i) {
      if (plain.read_cls[i] == c) v.push_back(plain.read_ms[i]);
    }
    std::printf("reads %-9s n=%-6zu p50 %.4f ms  p99 %.4f ms\n",
                classes[c].name.c_str(), v.size(), Percentile(v, 0.50),
                Percentile(v, 0.99));
  }
  if (n < kMinReads && !args.tiny && !args.trace) {
    std::printf("warning: %zu reads < %zu; p99 has fewer than 10 samples beyond\n",
                n, kMinReads);
  }
  if (w.concurrent_writer) {
    for (size_t c = 0; c < classes.size(); ++c) {
      std::printf("check %-9s %zu of %zu sampled reads matched the baseline on "
                  "their snapshot\n",
                  classes[c].name.c_str(), checked[c], sampled[c]);
    }
  }
  if (has_writes) {
    std::printf("check final state matches the serial replay of %zu batches\n",
                writes.applied);
  }

  if (args.trace) {
    const std::vector<SpanRec> spans = AllSpans();
    auto per_class_mean = [&](const char* name) {
      std::vector<double> v;
      for (size_t c = 0; c < classes.size(); ++c) {
        v.push_back(SpanMedianUs(spans, name, static_cast<int>(c), kProbe));
      }
      return Mean(v);
    };
    auto counter_sum = [&](const char* name) {
      double s = 0;
      for (const ClassProbe& p : probes) s += static_cast<double>(p.counts.Get(name));
      return s;
    };
    std::vector<double> overhead, bytes;
    for (size_t c = 0; c < classes.size(); ++c) {
      const int cls = static_cast<int>(c);
      overhead.push_back(
          SpanMedianUs(spans, "net.client_query", cls, kProbe) -
          SpanMedianUs(spans, "db.session_query", cls, kProbe));
      bytes.push_back(probes[c].bytes);
    }
    auto ratio = [](int64_t hit, int64_t miss) {
      return hit + miss == 0 ? 0.0
                             : static_cast<double>(hit) /
                                   static_cast<double>(hit + miss);
    };
    std::vector<double> apply_us;
    for (double ms : writes.apply_ms) apply_us.push_back(ms * 1e3);
    const double expanded = counter_sum("xjoin.expanded");
    const double validated = counter_sum("xjoin.validated");
    const std::string mix = "mean over classes of per-class median";
    const std::string pass = "sum over one pass of the mix";
    m.push_back({"net.request_us", per_class_mean("net.client_query"), "us", mix});
    m.push_back({"net.overhead_us", Mean(overhead), "us",
                 "client minus Session::Query, same text and snapshot"});
    m.push_back({"net.encode_us", per_class_mean("net.encode"), "us", mix});
    m.push_back({"net.decode_us", per_class_mean("net.decode"), "us", mix});
    m.push_back({"net.result_bytes", Mean(bytes), "B", "mean over classes"});
    m.push_back({"net.retries",
                 static_cast<double>(load[0].retries + load[1].retries +
                                     probe_retries),
                 "count", "client retries, load + probe"});
    m.push_back({"net.shed", static_cast<double>(shed), "count",
                 "load-server sheds over the rounds (0 off serve)"});
    m.push_back({"db.open_session_us",
                 SpanMedianUs(spans, "db.open_session", -1, kProbe), "us",
                 "median"});
    m.push_back({"db.prepare_us", per_class_mean("db.prepare"), "us",
                 "warm Session::Prepare, " + mix});
    m.push_back({"db.execute_us", per_class_mean("db.execute"), "us", mix});
    m.push_back({"db.plan_hit_ratio",
                 ratio(counts.plan_hits, counts.plan_misses), "ratio",
                 "timed reads"});
    m.push_back({"db.trie_hit_ratio",
                 ratio(counts.trie_hits, counts.trie_misses), "ratio",
                 std::to_string(counts.trie_hits) + " hits " +
                     std::to_string(counts.trie_misses) +
                     " misses since set-up"});
    m.push_back({"plan.prepare_cold_us", per_class_mean("plan.prepare_cold"),
                 "us", "empty plan + trie caches, " + mix});
    m.push_back({"exec.execute_plan_us", per_class_mean("exec.execute_plan"),
                 "us", "direct ExecutePlan, " + mix});
    m.push_back({"baseline.query_us", per_class_mean("baseline.query"), "us",
                 "Engine::kBaseline, " + mix});
    m.push_back({"gj.seeks", counter_sum("gj.seeks"), "count", pass});
    m.push_back({"gj.total_intermediate", counter_sum("gj.total_intermediate"),
                 "count", pass});
    m.push_back({"xjoin.expanded", expanded, "count", pass});
    m.push_back({"xjoin.validated", validated, "count", pass});
    m.push_back({"xjoin.validated_ratio",
                 expanded > 0 ? validated / expanded : 0.0, "ratio",
                 "validated / expanded"});
    m.push_back({"db.apply_delta_us", Median(apply_us), "us",
                 "median ApplyRelationDelta call"});
    const std::string during = w.concurrent_writer
                                   ? "over the rounds' reads and writes"
                                   : "over the probe writes";
    m.push_back({"db.trie_patches", static_cast<double>(counts.patches),
                 "count", during});
    m.push_back({"db.trie_compactions", static_cast<double>(counts.compactions),
                 "count", during});
    m.push_back({"db.plan_rebinds", static_cast<double>(counts.rebinds),
                 "count", during});
    m.push_back({"csv.read_us", SpanMedianUs(spans, "csv.read", -1, kProbe),
                 "us", "all relations"});
    m.push_back({"trie.build_us", SpanMedianUs(spans, "trie.build", -1, kProbe),
                 "us", "all relations, schema order"});
    m.push_back({"trie.bytes", static_cast<double>(warm.trie_bytes), "B",
                 "budget " + std::to_string(warm.trie_budget)});
    m.push_back({"xml.parse_us", SpanMedianUs(spans, "xml.parse", -1, kProbe),
                 "us", "all documents"});
    m.push_back({"xml.index_us", SpanMedianUs(spans, "xml.index", -1, kProbe),
                 "us", "all documents"});

    std::printf("\nper class (probe medians, us)   rows  execute_plan  baseline"
                "  prepare_cold        seeks  expanded  validated\n");
    for (size_t c = 0; c < classes.size(); ++c) {
      const int cls = static_cast<int>(c);
      const ClassProbe& p = probes[c];
      std::printf("  %-27s %6zu %13.1f %9.1f %13.1f %12lld %9lld %10lld\n",
                  p.name.c_str(), p.rows,
                  SpanMedianUs(spans, "exec.execute_plan", cls, kProbe),
                  SpanMedianUs(spans, "baseline.query", cls, kProbe),
                  SpanMedianUs(spans, "plan.prepare_cold", cls, kProbe),
                  static_cast<long long>(p.counts.Get("gj.seeks")),
                  static_cast<long long>(p.counts.Get("xjoin.expanded")),
                  static_cast<long long>(p.counts.Get("xjoin.validated")));
    }
    for (Phase ph : {kLoad, kWrite}) {
      const auto self = SelfTimes(spans, ph);
      if (self.empty()) continue;
      std::printf("\nself time, %s phase        spans    self_ms  median_us\n",
                  ph == kLoad ? "load " : "write");
      for (const auto& [name, st] : self) {
        std::printf("  %-24s %8lld %10.1f %10.1f\n", name.c_str(),
                    static_cast<long long>(st.count), st.self_ms,
                    Median(st.dur_us));
      }
    }
    // Tracing overhead: traced rounds against the untraced rounds of the
    // same process. A difference inside the spread of the untraced
    // rounds' own figures is noted as unresolved.
    const Figures traced_fig = FiguresOf(load[1]);
    auto add_overhead = [&](const char* name, double Figures::*f) {
      std::vector<double> v;
      for (const Figures& r : plain_rounds) v.push_back(r.*f);
      const double base = e2e.*f;
      const double pct = base == 0 ? 0.0 : 100.0 * (traced_fig.*f - base) / base;
      const double spread =
          v.empty() || Median(v) == 0
              ? 0.0
              : 100.0 * (*std::max_element(v.begin(), v.end()) -
                         *std::min_element(v.begin(), v.end())) /
                    Median(v);
      const bool resolved = v.size() >= 2 && std::fabs(pct) >= spread;
      char note[160];
      std::snprintf(note, sizeof(note),
                    "%zu traced vs %zu untraced rounds; untraced rounds span "
                    "%.1f%%: %s",
                    static_cast<size_t>(rounds) - v.size(), v.size(), spread,
                    resolved ? "resolved" : "unresolved");
      m.push_back({name, pct, "%", note});
    };
    add_overhead("trace.overhead_p50_pct", &Figures::p50);
    add_overhead("trace.overhead_p99_pct", &Figures::p99);
    add_overhead("trace.overhead_qps_pct", &Figures::qps);
    if (!args.trace_out.empty()) WriteSpans(args.trace_out, spans, classes);
    std::printf("spans %zu recorded%s%s\n", spans.size(),
                args.trace_out.empty() ? "" : ", written to ",
                args.trace_out.c_str());
  }

  std::printf("\n");
  for (const MetricOut& x : m) {
    std::printf("metric %-24s %14s %-5s (%s)\n", x.name.c_str(),
                Num(x.value).c_str(), x.unit.c_str(), x.note.c_str());
  }

  // Context stamp: the code path and settings behind every number.
  std::string ctx = "{\"workload\": " + JsonStr(w.name) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"scale\": " + JsonStr(args.tiny ? "tiny" : "full") +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"intersect_kernel\": " +
                    JsonStr(SimdLevelName(ActiveIntersectKernel().level)) +
                    ", \"nproc\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"build_type\": " + JsonStr(XJBENCH_BUILD_TYPE) +
                    ", \"load_threads\": " + std::to_string(w.load_threads) +
                    ", \"reads\": " + std::to_string(n) +
                    ", \"updates\": " + std::to_string(u) +
                    ", \"setups\": " + std::to_string(setup_s.size()) +
                    ", \"input_rows\": " + std::to_string(rows) +
                    ", \"input_xml_bytes\": " + std::to_string(xml_bytes) +
                    ", \"trie_bytes\": " + std::to_string(warm.trie_bytes) +
                    ", \"trie_budget\": " + std::to_string(warm.trie_budget) + "}";
  std::string metrics = "{";
  for (size_t i = 0; i < m.size(); ++i) {
    if (i) metrics += ", ";
    metrics += JsonStr(m[i].name) + ": {\"value\": " + Num(m[i].value) +
               ", \"unit\": " + JsonStr(m[i].unit) + "}";
  }
  metrics += "}";
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s, \"context\": %s}\n",
              static_cast<long long>(attempted), static_cast<long long>(failed),
              metrics.c_str(), ctx.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace xjoin

int main(int argc, char** argv) { return xjoin::Main(argc, argv); }
