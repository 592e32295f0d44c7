// Served-query benchmark: one workload against an in-process
// server::QueryServer over real sockets. Two synchronous clients send a
// seeded request sequence at a fixed offered rate (open loop, latency timed
// from each request's scheduled send), then as fast as they can (closed
// loop). Every answer is checked against an oracle. With --trace 1 the run
// serves the fixed-rate sequence a second time with client-side spans
// before the closed loop, and afterwards replays it in-process with a span
// around each public call into the engine's layers. The raw samples are
// written as JSON; perfbench/run.py turns them into metrics.
//
//   served_bench --workload read_hot|mixed_fresh --seed N
//                --seconds S --trace 0|1 --work DIR --out FILE

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numbers>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/block_set.h"
#include "core/scan_kernels.h"
#include "io/update_log.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/sharded_dataset.h"
#include "storage/sorted_dataset.h"
#include "util/thread_pool.h"
#include "workload/datagen.h"
#include "workload/polygen.h"
#include "workload/workload.h"

namespace geoblocks::perfbench {
namespace {

using core::BlockSet;
using Tuple = core::GeoBlock::UpdateTuple;

constexpr size_t kPoints = 1'000'000;
constexpr size_t kNeighborhoods = 195;
constexpr int kLevel = 17;
constexpr size_t kAggregates = 4;
// Two synchronous clients and two pool workers: with the acceptor, batcher
// and per-connection readers mostly blocked, runnable threads stay within
// a 4-core host, so the latency phase measures the engine, not the
// scheduler.
constexpr size_t kClients = 2;
constexpr size_t kPoolWorkers = 2;
constexpr size_t kUpdateTuples = 32;
constexpr double kNewRegionShare = 0.10;  // update tuples placed uniformly
constexpr size_t kSetupRepeats = 3;
constexpr double kHotShare = 0.9;     // read_hot: requests to the hot set
constexpr double kHotFraction = 0.1;  // read_hot: polygons in the hot set
// Shares of --seconds: the fixed-rate phase, then the closed loop for the
// rest. A traced run serves the fixed-rate sequence twice (untraced, then
// traced), each for kTracedPhaseShare.
constexpr double kFixedRateShare = 0.7;
constexpr double kTracedPhaseShare = 0.4;
// Served at the fixed rate before anything is measured, so lazily faulted
// shards, thread-local scratch and the WAL file are past their first use.
constexpr double kWarmupSeconds = 1.0;
// sleep_for overshoots by tens of microseconds; the generator sleeps until
// this long before a request is due and spins the rest.
constexpr uint64_t kSpinNs = 200'000;

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WaitUntil(uint64_t due_ns) {
  for (uint64_t now = NowNs(); now < due_ns; now = NowNs()) {
    if (due_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(due_ns - now - kSpinNs));
    }
  }
}

enum class Op : uint8_t { kSelect = 0, kCount = 1, kUpdate = 2 };

struct Spec {
  const char* name;
  double rate;  // offered requests per second in the fixed-rate phase
  double count_share;
  double update_share;
  // Every read a new polygon (and a WAL attached, group commit); otherwise
  // reads go to the neighborhoods, 90% of them to a hot 10%.
  bool fresh;
};

// Rates sit well below each workload's closed-loop capacity on a 4-core
// host (perfbench/README.md), so queueing stays bounded and p50 repeats.
constexpr Spec kSpecs[] = {
    {"read_hot", 1000, 1.0 / 8, 0.0, false},
    {"mixed_fresh", 250, 0.10, 0.20, true},
};
constexpr size_t kShards = 8;

struct Request {
  Op op = Op::kSelect;
  uint32_t polygon = 0;  // index into Inputs::polygons
  uint32_t batch = 0;    // index into Inputs::batches
};

struct Inputs {
  storage::PointTable raw;
  std::vector<geo::Polygon> polygons;
  std::vector<std::vector<Tuple>> batches;
  std::vector<Request> warmup;      // fixed-rate, not measured
  std::vector<Request> fixed_rate;  // in schedule order
  std::vector<Request> closed;      // drawn in order by both clients
};

// ---------------------------------------------------------------------------
// Input generation (the traffic derives from --seed)
// ---------------------------------------------------------------------------

// A never-repeated query polygon: a star-shaped ring around a data point,
// 4-64 vertices (log-uniform) and a 0.008-0.05 degree radius.
geo::Polygon FreshPolygon(const storage::PointTable& raw,
                          std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  const geo::Point center =
      raw.Location(std::uniform_int_distribution<size_t>(
          0, raw.num_rows() - 1)(rng));
  const int vertices = static_cast<int>(
      std::lround(std::exp(std::log(4.0) + uni(rng) * std::log(16.0))));
  const double radius = 0.008 + 0.042 * uni(rng);
  geo::Ring ring;
  ring.reserve(vertices);
  for (int i = 0; i < vertices; ++i) {
    // Jittered regular angles keep the ring simple at any vertex count.
    const double a = 2.0 * std::numbers::pi * (i + 0.8 * uni(rng)) / vertices;
    const double r = radius * (0.55 + 0.45 * uni(rng));
    ring.push_back({center.x + r * std::cos(a),
                    center.y + 0.75 * r * std::sin(a)});
  }
  return geo::Polygon(std::move(ring));
}

// Most tuples sit on an existing data point (an existing cell, applied in
// place); kNewRegionShare land uniformly in the city, mostly in cells the
// set has never aggregated, so the pending buffer and merge-rebuild run.
std::vector<Tuple> MakeBatch(const storage::PointTable& raw,
                             std::mt19937_64& rng) {
  const geo::Rect city = workload::NycBounds();
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  std::vector<Tuple> batch(kUpdateTuples);
  for (Tuple& t : batch) {
    if (uni(rng) < kNewRegionShare) {
      t.location = {city.min.x + uni(rng) * city.Width(),
                    city.min.y + uni(rng) * city.Height()};
    } else {
      do {
        t.location = raw.Location(std::uniform_int_distribution<size_t>(
            0, raw.num_rows() - 1)(rng));
      } while (!city.Contains(t.location));
    }
    t.values.resize(raw.num_columns());
    for (double& v : t.values) v = static_cast<double>(rng() % 1000) / 8.0;
  }
  return batch;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed, size_t warmup_n,
                  size_t fixed_n, size_t closed_n) {
  Inputs in;
  // The points and the neighborhoods are the same on every seed (the
  // generators' own default seeds): with seeded neighborhoods the polygon
  // set itself moved read_hot's SELECT p50 by 25% between seeds, so the
  // yardstick would shift with the seed. The seed draws the traffic.
  in.raw = workload::GenTaxi(kPoints);
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::uniform_real_distribution<double> uni(0.0, 1.0);

  // The hot set is the paper's skewed workload as workload::SkewedWorkload
  // draws it: a uniformly random 10% of the neighborhoods, with that
  // generator's own default seed, so it is the same set on every --seed and
  // for the whole run. A per-seed hot set made the SELECT p50 a property of
  // which ~19 polygons were drawn: even stratified by covering cost, ten
  // seeds would spread it by about 0.15 (perfbench/README.md).
  std::vector<uint32_t> hot;
  if (!spec.fresh) {
    in.polygons = workload::Neighborhoods(in.raw, kNeighborhoods);
    for (const geo::Polygon* p :
         workload::SkewedWorkload(in.polygons, kHotFraction).queries) {
      hot.push_back(static_cast<uint32_t>(p - in.polygons.data()));
    }
  }
  const auto draw = [&]() {
    Request r;
    const double u = uni(rng);
    if (u < spec.update_share) {
      r.op = Op::kUpdate;
      r.batch = static_cast<uint32_t>(in.batches.size());
      in.batches.push_back(MakeBatch(in.raw, rng));
      return r;
    }
    r.op = u < spec.update_share + spec.count_share ? Op::kCount
                                                     : Op::kSelect;
    if (spec.fresh) {
      r.polygon = static_cast<uint32_t>(in.polygons.size());
      in.polygons.push_back(FreshPolygon(in.raw, rng));
    } else {
      r.polygon = uni(rng) < kHotShare
                      ? hot[rng() % hot.size()]
                      : static_cast<uint32_t>(rng() % kNeighborhoods);
    }
    return r;
  };
  for (size_t i = 0; i < warmup_n; ++i) in.warmup.push_back(draw());
  for (size_t i = 0; i < fixed_n; ++i) in.fixed_rate.push_back(draw());
  for (size_t i = 0; i < closed_n; ++i) in.closed.push_back(draw());
  return in;
}

// ---------------------------------------------------------------------------
// Set-up: extract, partition, build, start
// ---------------------------------------------------------------------------

struct SetupTimes {
  double extract_s = 0, partition_s = 0, build_s = 0, start_s = 0;
  double total() const { return extract_s + partition_s + build_s + start_s; }
};

// What the last set-up repetition leaves serving. Members are destroyed in
// reverse order: the server before the set, the set before its log.
struct Served {
  std::unique_ptr<io::UpdateLog> log;
  std::unique_ptr<storage::ShardedDataset> sharded;
  std::unique_ptr<BlockSet> set;
  std::unique_ptr<server::QueryServer> server;
};

double SecondsSince(uint64_t t0) {
  return static_cast<double>(NowNs() - t0) / 1e9;
}

Served SetupOnce(const Inputs& in, util::ThreadPool* pool, SetupTimes* times) {
  Served s;
  uint64_t t = NowNs();
  storage::ExtractOptions extract;
  extract.clean_bounds = workload::NycBounds();
  storage::SortedDataset data = storage::SortedDataset::Extract(in.raw, extract);
  times->extract_s = SecondsSince(t);

  t = NowNs();
  storage::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.align_level = kLevel;
  s.sharded = std::make_unique<storage::ShardedDataset>(
      storage::ShardedDataset::Partition(std::move(data), shard_options));
  times->partition_s = SecondsSince(t);

  t = NowNs();
  // `new T(prvalue)` constructs in place: a set is never moved once built.
  s.set.reset(new BlockSet(BlockSet::Build(
      *s.sharded, core::BlockSetOptions{{kLevel, {}}}, pool)));
  times->build_s = SecondsSince(t);

  server::ServerOptions options;
  options.pool = pool;
  t = NowNs();
  s.server = std::make_unique<server::QueryServer>(s.set.get(), options);
  s.server->Start();
  times->start_s = SecondsSince(t);
  return s;
}

// ---------------------------------------------------------------------------
// Load generation
// ---------------------------------------------------------------------------

// Spans: the traced served phase records client-side spans, the in-process
// replay one span around each public call. Spans of one request share its
// id; `parent` indexes the same span vector (-1 for a root).
enum SpanName : uint8_t {
  kSpanRequest,  // root: one replayed request
  kSpanEncode,   // server::Encode* (request and result)
  kSpanDecode,   // server::DecodeRequest / Decode*Result
  kSpanCover,    // BlockSet::CoverInto
  kSpanRoute,    // BlockSet::OverlappingShards
  kSpanFoldSelect,  // BlockSet::SelectCovering
  kSpanFoldCount,   // BlockSet::CountCovering
  kSpanWalAppend,   // io::UpdateLog::Append (twin log)
  kSpanCommit,      // BlockSet::ApplyBatchUpdate (unlogged twin)
  kSpanClientRequest,  // served request, due time to answer (client side)
  kSpanClientCall,     // served request, send to answer (client side)
};
constexpr const char* kSpanNames[] = {
    "request",   "server.encode",    "server.decode",
    "cell.cover", "core.route",      "core.fold_select",
    "core.fold_count", "io.wal_append", "core.commit",
    "client.request", "client.call"};

struct Span {
  uint32_t rid;
  int32_t parent;
  uint8_t name;
  uint64_t start, end;
};

struct Sample {
  // ns. `ready` is when the generator was free to send: the later of the
  // due time and the client's previous answer. send - ready is generator
  // lateness; ready - sched is the wait behind a slow previous request.
  uint64_t sched = 0, ready = 0, send = 0, done = 0;
  Op op = Op::kSelect;
  bool issued = false;
  bool ok = false;
  uint64_t value = 0;          // count returned, or tuples accepted
  uint64_t change_number = 0;  // UPDATE only
  std::vector<double> values;  // SELECT answers checked after the run
};

bool BitIdentical(const core::QueryResult& a, const core::QueryResult& b) {
  return a.count == b.count && a.values.size() == b.values.size() &&
         (a.values.empty() ||
          std::memcmp(a.values.data(), b.values.data(),
                      a.values.size() * sizeof(double)) == 0);
}

// Answers every read is compared against. read_hot holds one entry per
// neighborhood; mixed_fresh checks each read after the run instead, against
// the states it could have seen (CheckReadsAgainstLog).
struct Oracle {
  bool exact = false;
  std::vector<core::QueryResult> select;  // ExecuteBatch: the served path
  std::vector<core::QueryResult> fold;    // SelectCovering: the replay path
  std::vector<uint64_t> count;
};

struct Issuer {
  const Inputs* in;
  const core::AggregateRequest* req;
  const Oracle* oracle;

  void operator()(server::Client& c, const Request& r, Sample* s) const {
    s->op = r.op;
    try {
      switch (r.op) {
        case Op::kSelect: {
          core::QueryResult got = c.Select(in->polygons[r.polygon], *req);
          s->value = got.count;
          s->ok = !oracle->exact || BitIdentical(got, oracle->select[r.polygon]);
          if (!oracle->exact) s->values = std::move(got.values);
          break;
        }
        case Op::kCount:
          s->value = c.Count(in->polygons[r.polygon]);
          s->ok = !oracle->exact || s->value == oracle->count[r.polygon];
          break;
        case Op::kUpdate: {
          const server::UpdateAck ack = c.Update(in->batches[r.batch]);
          s->value = ack.accepted;
          s->change_number = ack.change_number;
          s->ok = ack.accepted == in->batches[r.batch].size();
          break;
        }
      }
    } catch (const std::exception&) {
      s->ok = false;  // refused, timed out, transport error, internal error
    }
  }
};

// Open loop: request i is due at t0 + i / rate and goes out on client
// i % kClients. A synchronous client still waiting on its previous answer
// sends late, and that wait counts in the latency (timed from `sched`).
std::vector<Sample> FixedRatePhase(std::vector<server::Client>& clients,
                                   const std::vector<Request>& seq,
                                   size_t n, double rate,
                                   const Issuer& issue,
                                   std::vector<Span>* spans,
                                   double* server_cpu_s) {
  std::vector<Sample> samples(n);
  std::vector<std::vector<Span>> local(clients.size());
  const double interval_ns = 1e9 / rate;
  const uint64_t t0 = NowNs() + 1'000'000;
  std::vector<double> client_cpu(clients.size(), 0.0);
  const double process_cpu0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      const double cpu0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
      uint64_t prev_done = 0;
      for (size_t i = t; i < n; i += clients.size()) {
        Sample& s = samples[i];
        s.sched = t0 + static_cast<uint64_t>(static_cast<double>(i) *
                                             interval_ns);
        s.ready = std::max(s.sched, prev_done);
        WaitUntil(s.sched);
        s.send = NowNs();
        issue(clients[t], seq[i], &s);
        s.done = prev_done = NowNs();
        s.issued = true;
        if (spans != nullptr) {
          const auto root = static_cast<int32_t>(local[t].size());
          local[t].push_back({static_cast<uint32_t>(i), -1,
                              kSpanClientRequest, s.sched, s.done});
          local[t].push_back({static_cast<uint32_t>(i), root, kSpanClientCall,
                              s.send, s.done});
        }
      }
      client_cpu[t] = CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    });
  }
  for (std::thread& th : threads) th.join();
  // Everything but the clients: reader, batcher and pool threads.
  *server_cpu_s = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0;
  for (const double c : client_cpu) *server_cpu_s -= c;
  if (spans != nullptr) {
    for (const auto& l : local) {
      const auto base = static_cast<int32_t>(spans->size());
      for (Span sp : l) {
        if (sp.parent >= 0) sp.parent += base;
        spans->push_back(sp);
      }
    }
  }
  return samples;
}

// Closed loop: both clients draw the next request as soon as their previous
// one completes, until `seconds` pass or the sequence runs out.
std::vector<Sample> ClosedLoopPhase(std::vector<server::Client>& clients,
                                    const std::vector<Request>& seq,
                                    double seconds, const Issuer& issue,
                                    double* elapsed_s) {
  std::vector<Sample> samples(seq.size());
  std::atomic<size_t> next{0};
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients.size(); ++t) {
    threads.emplace_back([&, t] {
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= seq.size() || NowNs() >= deadline) return;
        Sample& s = samples[i];
        s.sched = s.ready = s.send = NowNs();
        issue(clients[t], seq[i], &s);
        s.done = NowNs();
        s.issued = true;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  *elapsed_s = SecondsSince(t0);
  return samples;
}

// ---------------------------------------------------------------------------
// In-process replay (traced runs): a span around each public call
// ---------------------------------------------------------------------------

class Tracer {
 public:
  explicit Tracer(uint32_t rid) : rid_(rid) {}
  // Opens a span; returns its index for Close.
  size_t Open(SpanName name, int32_t parent) {
    spans_.push_back({rid_, parent, name, NowNs(), 0});
    return spans_.size() - 1;
  }
  void Close(size_t i) { spans_[i].end = NowNs(); }
  template <typename Fn>
  auto Time(SpanName name, int32_t parent, const Fn& fn) {
    const size_t i = Open(name, parent);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      Close(i);
    } else {
      auto result = fn();
      Close(i);
      return result;
    }
  }
  void set_rid(uint32_t rid) { rid_ = rid; }
  std::vector<Span>& spans() { return spans_; }

 private:
  uint32_t rid_;
  std::vector<Span> spans_;
};

struct ReplayRecord {
  Op op = Op::kSelect;
  uint32_t vertices = 0, cover_cells = 0, route_shards = 0;
  uint64_t rebuilds = 0, tuples = 0;
};

struct Replay {
  std::vector<Span> spans;
  std::vector<ReplayRecord> records;
  double batch_us_per_query = 0;
  std::vector<double> select_us;  // sequential BlockSet::Select
  uint64_t pending_tuples = 0;
};

// Replays `seq` through the engine's public calls on `set`, in order. Updates
// go to the set (an unlogged twin on mixed_fresh) after an Append to
// `twin_log`.
Replay ReplayInProcess(const Inputs& in, const std::vector<Request>& seq,
                       size_t n, const core::AggregateRequest& req,
                       BlockSet* set, io::UpdateLog* twin_log,
                       util::ThreadPool* pool, const Oracle& oracle,
                       uint64_t* mismatches) {
  Replay out;
  Tracer tr(0);
  std::vector<cell::CellId> covering;
  std::vector<size_t> shards;
  for (size_t i = 0; i < n; ++i) {
    const Request& r = seq[i];
    ReplayRecord rec;
    rec.op = r.op;
    tr.set_rid(static_cast<uint32_t>(i));
    const size_t root = tr.Open(kSpanRequest, -1);
    const auto parent = static_cast<int32_t>(root);
    if (r.op == Op::kUpdate) {
      const std::vector<Tuple>& batch = in.batches[r.batch];
      tr.Time(kSpanWalAppend, parent, [&] { return twin_log->Append(batch); });
      const BlockSet::SetUpdateResult res = tr.Time(
          kSpanCommit, parent, [&] { return set->ApplyBatchUpdate(batch); });
      rec.rebuilds = res.rebuilds;
      rec.tuples = batch.size();
    } else {
      const geo::Polygon& poly = in.polygons[r.polygon];
      const std::string frame = tr.Time(kSpanEncode, parent, [&] {
        return r.op == Op::kSelect ? server::EncodeSelect(0, i, poly, req)
                                   : server::EncodeCount(0, i, poly);
      });
      const server::Request decoded = tr.Time(kSpanDecode, parent, [&] {
        return server::DecodeRequest(std::string_view(frame).substr(4));
      });
      tr.Time(kSpanCover, parent,
              [&] { set->CoverInto(decoded.polygon, &covering); });
      tr.Time(kSpanRoute, parent,
              [&] { set->OverlappingShards(covering, &shards); });
      core::QueryResult got;
      if (r.op == Op::kSelect) {
        got = tr.Time(kSpanFoldSelect, parent,
                      [&] { return set->SelectCovering(covering, req); });
        const std::string payload = tr.Time(kSpanEncode, parent, [&] {
          return server::EncodeSelectResult({got.count, got.values});
        });
        tr.Time(kSpanDecode, parent,
                [&] { return server::DecodeSelectResult(payload); });
      } else {
        got.count = tr.Time(kSpanFoldCount, parent,
                            [&] { return set->CountCovering(covering); });
        const std::string payload = tr.Time(kSpanEncode, parent, [&] {
          return server::EncodeCountResult(got.count);
        });
        tr.Time(kSpanDecode, parent,
                [&] { return server::DecodeCountResult(payload); });
      }
      if (oracle.exact &&
          (r.op == Op::kSelect ? !BitIdentical(got, oracle.fold[r.polygon])
                               : got.count != oracle.count[r.polygon])) {
        ++*mismatches;
      }
      rec.vertices = static_cast<uint32_t>(poly.num_vertices());
      rec.cover_cells = static_cast<uint32_t>(covering.size());
      rec.route_shards = static_cast<uint32_t>(shards.size());
    }
    tr.Close(root);
    out.records.push_back(rec);
  }
  out.spans = std::move(tr.spans());
  out.pending_tuples = set->PendingUpdateCount();

  // The batched seam the server executes through: with two synchronous
  // clients an epoch never holds more than two SELECTs.
  std::vector<const geo::Polygon*> selects;
  for (size_t i = 0; i < n; ++i) {
    if (seq[i].op == Op::kSelect) {
      selects.push_back(&in.polygons[seq[i].polygon]);
    }
  }
  const uint64_t t0 = NowNs();
  for (size_t i = 0; i < selects.size(); i += kClients) {
    core::QueryBatch qb;
    qb.polygons.assign(selects.begin() + i,
                       selects.begin() + std::min(selects.size(), i + kClients));
    qb.request = &req;
    (void)set->ExecuteBatch(qb, pool);
  }
  out.batch_us_per_query = selects.empty()
                               ? 0.0
                               : static_cast<double>(NowNs() - t0) / 1e3 /
                                     static_cast<double>(selects.size());
  for (const geo::Polygon* p : selects) {
    const uint64_t t = NowNs();
    (void)set->Select(*p, req);
    out.select_us.push_back(static_cast<double>(NowNs() - t) / 1e3);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JSON output
// ---------------------------------------------------------------------------

class Json {
 public:
  explicit Json(const std::string& path) : out_(path) {}
  bool ok() const { return static_cast<bool>(out_); }
  void Open(const char* key = nullptr) { Key(key); out_ << '{'; first_ = true; }
  void Close() { out_ << '}'; first_ = false; }
  void Num(const char* key, double v) {
    Key(key);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    out_ << buf;
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    out_ << '"' << v << '"';  // callers pass plain identifiers only
  }
  template <typename T, typename Fn>
  void Array(const char* key, const std::vector<T>& xs, const Fn& fn) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < xs.size(); ++i) {
      if (i) out_ << ',';
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", static_cast<double>(fn(xs[i])));
      out_ << buf;
    }
    out_ << ']';
  }
  void StrArray(const char* key, const std::vector<std::string>& xs) {
    Key(key);
    out_ << '[';
    for (size_t i = 0; i < xs.size(); ++i) {
      out_ << (i ? "," : "") << '"' << xs[i] << '"';
    }
    out_ << ']';
  }

 private:
  void Key(const char* key) {
    if (!first_) out_ << ',';
    first_ = false;
    if (key != nullptr) out_ << '"' << key << "\":";
  }
  std::ofstream out_;
  bool first_ = true;
};

struct Phase {
  const char* name;
  const std::vector<Request>* seq;
  std::vector<Sample> samples;  // indexed like *seq
  double elapsed_s;
  double server_cpu_s;  // fixed-rate phases: CPU of all but the clients
};

void WritePhase(Json& j, const Phase& p) {
  std::vector<Sample> issued;
  for (const Sample& s : p.samples) {
    if (s.issued) issued.push_back(s);
  }
  j.Open(p.name);
  j.Num("elapsed_s", p.elapsed_s);
  j.Num("server_cpu_s", p.server_cpu_s);
  j.Array("op", issued, [](const Sample& s) { return static_cast<int>(s.op); });
  j.Array("latency_us", issued, [](const Sample& s) {
    return static_cast<double>(s.done - s.sched) / 1e3;
  });
  j.Array("lag_us", issued, [](const Sample& s) {
    return static_cast<double>(s.send - s.ready) / 1e3;
  });
  j.Close();
}

using LogRecord = std::pair<uint64_t, std::vector<Tuple>>;  // (cn, tuples)

bool SameAnswer(const Sample& s, Op op, const core::QueryResult& want) {
  return op == Op::kCount
             ? s.value == want.count
             : s.value == want.count && s.values.size() == want.values.size() &&
                   (s.values.empty() ||
                    std::memcmp(s.values.data(), want.values.data(),
                                s.values.size() * sizeof(double)) == 0);
}

// mixed_fresh: every read must be bit-identical to the set at one of the
// change numbers it could have seen. The server runs an epoch's reads
// before the epoch's one coalesced update record, so a read sees exactly
// one committed state: that of every UPDATE acknowledged before the read
// was sent or a later one, and none of an UPDATE sent after its answer
// arrived. `twin` starts at the run's checkpoint (change number
// `checkpoint_cn`); applying the WAL's `records` to it in order walks it
// through every such state. Marks each read that matches none as failed and
// returns how many did.
uint64_t CheckReadsAgainstLog(std::vector<Phase>& phases, const Inputs& in,
                              const core::AggregateRequest& req,
                              uint64_t checkpoint_cn,
                              const std::vector<LogRecord>& records,
                              BlockSet* twin, util::ThreadPool* pool) {
  // (time, change number) of acknowledged UPDATEs: by ack time with the
  // running maximum, and by send time with the minimum of the rest.
  std::vector<std::pair<uint64_t, uint64_t>> by_done, by_send;
  for (const Phase& phase : phases) {
    for (const Sample& s : phase.samples) {
      if (s.issued && s.ok && s.op == Op::kUpdate) {
        by_done.emplace_back(s.done, s.change_number);
        by_send.emplace_back(s.send, s.change_number);
      }
    }
  }
  std::sort(by_done.begin(), by_done.end());
  std::sort(by_send.begin(), by_send.end());
  for (size_t k = 1; k < by_done.size(); ++k) {
    by_done[k].second = std::max(by_done[k].second, by_done[k - 1].second);
  }
  for (size_t k = by_send.size(); k-- > 1;) {
    by_send[k - 1].second = std::min(by_send[k - 1].second, by_send[k].second);
  }
  std::vector<uint64_t> record_cn;
  for (const LogRecord& r : records) record_cn.push_back(r.first);

  // State k is the checkpoint with the first k records applied.
  struct Read {
    Sample* sample;
    const Request* request;
    size_t last;  // the latest state the read could have seen
  };
  std::vector<std::vector<Read>> first_seen(records.size() + 1);
  uint64_t failed = 0;
  const auto fail = [&failed](Sample* s) {
    s->ok = false;
    ++failed;
  };
  for (Phase& phase : phases) {
    for (size_t i = 0; i < phase.samples.size(); ++i) {
      Sample& s = phase.samples[i];
      if (!s.issued || !s.ok || s.op == Op::kUpdate) continue;
      const auto acked = std::upper_bound(
          by_done.begin(), by_done.end(), std::make_pair(s.send, UINT64_MAX));
      const uint64_t lo =
          acked == by_done.begin() ? checkpoint_cn : std::prev(acked)->second;
      const auto later = std::lower_bound(by_send.begin(), by_send.end(),
                                          std::make_pair(s.done, uint64_t{0}));
      const size_t first = static_cast<size_t>(
          std::upper_bound(record_cn.begin(), record_cn.end(), lo) -
          record_cn.begin());
      const size_t last =
          later == by_send.end()
              ? records.size()
              : static_cast<size_t>(std::lower_bound(record_cn.begin(),
                                                     record_cn.end(),
                                                     later->second) -
                                    record_cn.begin());
      if (first > last) {
        fail(&s);
      } else {
        first_seen[first].push_back({&s, &(*phase.seq)[i], last});
      }
    }
  }

  std::vector<Read> open;
  for (size_t k = 0; k <= records.size(); ++k) {
    if (k > 0) (void)twin->ApplyBatchUpdate(records[k - 1].second, pool);
    open.insert(open.end(), first_seen[k].begin(), first_seen[k].end());
    if (open.empty()) continue;
    std::vector<const geo::Polygon*> selects, counts;
    for (const Read& r : open) {
      (r.request->op == Op::kSelect ? selects : counts)
          .push_back(&in.polygons[r.request->polygon]);
    }
    core::QueryBatch qb;
    qb.polygons = selects;
    qb.request = &req;
    const std::vector<core::QueryResult> sel = twin->ExecuteBatch(qb, pool);
    const std::vector<uint64_t> cnt = twin->CountBatch(counts, pool);
    std::vector<Read> still_open;
    size_t si = 0, ci = 0;
    for (const Read& r : open) {
      const Op op = r.request->op;
      const core::QueryResult want =
          op == Op::kSelect ? sel[si++] : core::QueryResult{cnt[ci++], {}};
      if (SameAnswer(*r.sample, op, want)) continue;
      if (r.last == k) {
        fail(r.sample);
      } else {
        still_open.push_back(r);
      }
    }
    open = std::move(still_open);
  }
  return failed;
}

// Times in microseconds from the earliest span.
void WriteSpans(Json& j, const char* key, const std::vector<Span>& spans) {
  uint64_t base = UINT64_MAX;
  for (const Span& sp : spans) base = std::min(base, sp.start);
  const auto us = [base](uint64_t t) {
    return static_cast<double>(t - base) / 1e3;
  };
  j.Open(key);
  j.Array("rid", spans, [](const Span& sp) { return sp.rid; });
  j.Array("parent", spans, [](const Span& sp) { return sp.parent; });
  j.Array("name", spans, [](const Span& sp) { return sp.name; });
  j.Array("start_us", spans, [&](const Span& sp) { return us(sp.start); });
  j.Array("end_us", spans, [&](const Span& sp) { return us(sp.end); });
  j.Close();
}

struct StatsDelta {
  server::ServerStats a, b;
  uint64_t steals_a = 0, steals_b = 0;
};

void WriteServerStats(Json& j, const char* key, const StatsDelta& d) {
  j.Open(key);
  j.Num("epochs", static_cast<double>(d.b.batches_executed - d.a.batches_executed));
  j.Num("requests", static_cast<double>(
      (d.b.selects_executed - d.a.selects_executed) +
      (d.b.counts_executed - d.a.counts_executed) +
      (d.b.updates_executed - d.a.updates_executed)));
  j.Num("select_groups", static_cast<double>(d.b.select_groups - d.a.select_groups));
  j.Num("rejected", static_cast<double>(
      (d.b.queue_rejected - d.a.queue_rejected) +
      (d.b.requests_timed_out - d.a.requests_timed_out) +
      (d.b.read_only_rejected - d.a.read_only_rejected)));
  j.Num("steals", static_cast<double>(d.steals_b - d.steals_a));
  j.Close();
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

struct Args {
  std::string workload, work, out;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--work") a.work = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (a.workload.empty() || a.work.empty() || a.out.empty() ||
      !(a.seconds > 0)) {
    throw std::invalid_argument(
        "usage: served_bench --workload W --seed N --seconds S --trace 0|1 "
        "--work DIR --out FILE");
  }
  return a;
}

int Run(const Args& args) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown workload");
  const std::string wal_path = args.work + "/updates.wal";
  const std::string manifest_path = args.work + "/checkpoint.gbst";
  const std::string twin_wal_path = args.work + "/twin.wal";
  const std::string recovery_dir = args.work + "/recovery";
  std::filesystem::create_directories(args.work);
  for (const std::string& stale :
       {wal_path, manifest_path, twin_wal_path, recovery_dir}) {
    std::filesystem::remove_all(stale);
  }

  // Phase lengths and sequence sizes. The closed loop gets a sequence long
  // enough for any plausible capacity; it stops at its deadline.
  const double fixed_s =
      args.seconds * (args.trace ? kTracedPhaseShare : kFixedRateShare);
  const double closed_s = args.seconds - fixed_s * (args.trace ? 2 : 1);
  const auto fixed_n = static_cast<size_t>(spec->rate * fixed_s);
  const auto closed_n = static_cast<size_t>(10'000 * closed_s);
  const Inputs in = MakeInputs(
      *spec, args.seed, static_cast<size_t>(spec->rate * kWarmupSeconds),
      fixed_n, closed_n);
  const core::AggregateRequest req =
      core::AggregateRequest::FirstN(kAggregates, in.raw.num_columns());

  util::ThreadPool pool(kPoolWorkers);
  std::vector<SetupTimes> setup(kSetupRepeats);
  std::optional<Served> served_holder;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    served_holder.reset();  // tear the previous repetition down first
    served_holder.emplace(SetupOnce(in, &pool, &setup[rep]));
  }
  Served& served = *served_holder;
  BlockSet& set = *served.set;
  server::QueryServer& srv = *served.server;

  uint64_t violations = 0;
  std::vector<std::string> violation_names;
  const auto violate = [&](const std::string& what) {
    ++violations;
    violation_names.push_back(what);
  };

  // read_hot's oracle: singleton ExecuteBatch / CountBatch on the served
  // set.
  Oracle oracle;
  if (!spec->fresh) {
    oracle.exact = true;
    const BlockSet& ref = set;
    for (const geo::Polygon& p : in.polygons) {
      core::QueryBatch qb;
      qb.polygons = {&p};
      qb.request = &req;
      oracle.select.push_back(ref.ExecuteBatch(qb, nullptr).front());
      oracle.fold.push_back(ref.SelectCovering(ref.Cover(p), req));
      const geo::Polygon* one[] = {&p};
      oracle.count.push_back(ref.CountBatch(one, nullptr).front());
    }
  }
  uint64_t checkpoint_cn = 0;
  if (spec->fresh) {
    served.log = io::UpdateLog::Open(wal_path);
    set.AttachLog(served.log.get());
    checkpoint_cn = set.Checkpoint(manifest_path);
  }

  const Issuer issue{&in, &req, &oracle};
  std::vector<server::Client> clients;
  for (size_t t = 0; t < kClients; ++t) {
    server::Client::Options copts;
    copts.tenant = static_cast<uint32_t>(t);
    clients.push_back(server::Client::Connect(srv.port(), copts));
  }

  Json j(args.out);
  j.Open();
  j.Open("provenance");
  j.Str("workload", spec->name);
  j.Num("seed", static_cast<double>(args.seed));
  j.Num("seconds", args.seconds);
  j.Num("trace", args.trace ? 1 : 0);
  j.Num("nproc", std::thread::hardware_concurrency());
  j.Str("kernel_dispatch",
        core::kernels::ToString(core::kernels::ActiveDispatchLevel()));
  j.Str("pool_type", util::ThreadPool::pool_type());
  j.Num("pool_workers", kPoolWorkers);
  j.Num("clients", kClients);
  j.Num("points", kPoints);
  j.Num("rows", static_cast<double>(set.total_rows()));
  j.Num("shards", static_cast<double>(kShards));
  j.Num("level", kLevel);
  j.Num("rate", spec->rate);
  j.Close();
  j.Open("setup");
  j.Array("extract_s", setup, [](const SetupTimes& t) { return t.extract_s; });
  j.Array("partition_s", setup, [](const SetupTimes& t) { return t.partition_s; });
  j.Array("build_s", setup, [](const SetupTimes& t) { return t.build_s; });
  j.Array("start_s", setup, [](const SetupTimes& t) { return t.start_s; });
  j.Array("total_s", setup, [](const SetupTimes& t) { return t.total(); });
  j.Close();

  std::vector<Phase> phases;
  const auto fixed_rate = [&](const char* name, const std::vector<Request>& seq,
                              double seconds, std::vector<Span>* spans) {
    const auto n = static_cast<size_t>(spec->rate * seconds);
    double server_cpu_s = 0;
    std::vector<Sample> samples =
        FixedRatePhase(clients, seq, n, spec->rate, issue, spans, &server_cpu_s);
    phases.push_back({name, &seq, std::move(samples), seconds, server_cpu_s});
  };
  StatsDelta traced_stats;
  std::vector<Span> client_spans;
  fixed_rate("warmup", in.warmup, kWarmupSeconds, nullptr);
  fixed_rate("fixed_rate", in.fixed_rate, fixed_s, nullptr);
  // After a seeded, fixed number of updates: the closed loop's count depends
  // on the host's speed.
  j.Num("memory_bytes", static_cast<double>(set.MemoryBytes()));
  if (args.trace) {
    traced_stats.a = srv.stats();
    traced_stats.steals_a = pool.steal_count();
    fixed_rate("traced_fixed_rate", in.fixed_rate, fixed_s, &client_spans);
    traced_stats.b = srv.stats();
    traced_stats.steals_b = pool.steal_count();
    WriteServerStats(j, "traced_server", traced_stats);
  }
  double elapsed = 0;
  std::vector<Sample> closed =
      ClosedLoopPhase(clients, in.closed, closed_s, issue, &elapsed);
  phases.push_back({"closed_loop", &in.closed, std::move(closed), elapsed, 0});
  for (const Phase& p : phases) WritePhase(j, p);
  clients.clear();
  srv.Stop();

  uint64_t attempted = 0, failed = 0;
  for (const Phase& phase : phases) {
    for (const Sample& s : phase.samples) {
      if (!s.issued) continue;
      ++attempted;
      if (!s.ok) ++failed;
    }
  }

  // mixed_fresh: every read against the states it could have seen, then
  // recovery and exact accounting after quiescing. Twins are loaded from the
  // start-of-run checkpoint and carry no log.
  const auto load_checkpoint = [&] {
    std::ifstream f(manifest_path, std::ios::binary);
    return std::unique_ptr<BlockSet>(new BlockSet(BlockSet::ReadFrom(f)));
  };
  double replay_s = 0;
  if (spec->fresh) {
    uint64_t acked_tuples = 0;
    std::set<uint64_t> change_numbers;
    for (const Phase& phase : phases) {
      for (const Sample& s : phase.samples) {
        if (s.issued && s.ok && s.op == Op::kUpdate) {
          acked_tuples += s.value;
          change_numbers.insert(s.change_number);
        }
      }
    }

    // Recovery from the start-of-run checkpoint plus the WAL answers
    // exactly like the live set.
    std::filesystem::create_directories(recovery_dir);
    std::filesystem::copy_file(wal_path, recovery_dir + "/updates.wal",
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(wal_path, recovery_dir + "/records.wal",
                               std::filesystem::copy_options::overwrite_existing);
    std::filesystem::copy_file(manifest_path, recovery_dir + "/checkpoint.gbst",
                               std::filesystem::copy_options::overwrite_existing);
    {
      auto rec_log = io::UpdateLog::Open(recovery_dir + "/updates.wal");
      const uint64_t t = NowNs();
      const BlockSet recovered(
          BlockSet::OpenLogged(recovery_dir + "/checkpoint.gbst", rec_log.get()));
      replay_s = SecondsSince(t);
      if (recovered.change_number() != set.change_number()) {
        violate("recovery_change_number");
      }
      const std::vector<cell::CellId> root{cell::CellId::Root()};
      if (recovered.CountCovering(root) != set.CountCovering(root) ||
          recovered.PendingUpdateCount() != set.PendingUpdateCount()) {
        violate("recovery_root_count");
      }
      const std::vector<geo::Polygon> probes =
          workload::Neighborhoods(in.raw, kNeighborhoods);
      for (const geo::Polygon& p : probes) {
        if (!BitIdentical(recovered.Select(p, req), set.Select(p, req))) {
          violate("recovery_select");
          break;
        }
      }
    }
    std::vector<LogRecord> records;
    io::UpdateLog::Open(recovery_dir + "/records.wal")
        ->Replay(checkpoint_cn, [&](uint64_t cn, std::vector<Tuple>&& batch) {
          records.emplace_back(cn, std::move(batch));
        });
    std::set<uint64_t> record_cns;
    for (const LogRecord& r : records) record_cns.insert(r.first);
    if (record_cns != change_numbers) violate("wal_records_vs_acked_batches");
    failed += CheckReadsAgainstLog(phases, in, req, checkpoint_cn, records,
                                   load_checkpoint().get(), &pool);

    // Exact accounting once every buffered tuple is merged.
    set.FlushPendingUpdates();
    const std::vector<cell::CellId> root{cell::CellId::Root()};
    if (set.CountCovering(root) != set.total_rows() + acked_tuples) {
      violate("root_count_vs_acked");
    }
    const io::UpdateLog::Stats ls = served.log->stats();
    if (ls.records_appended != change_numbers.size()) {
      violate("wal_records_appended_vs_acked_batches");
    }
    if (srv.stats().update_tuples != acked_tuples) {
      violate("server_tuples_vs_acked");
    }
    j.Open("wal");
    j.Num("records_appended", static_cast<double>(ls.records_appended));
    j.Num("groups_committed", static_cast<double>(ls.groups_committed));
    j.Num("bytes_committed", static_cast<double>(ls.bytes_committed));
    j.Num("acked_tuples", static_cast<double>(acked_tuples));
    j.Num("checkpoint_change_number", static_cast<double>(checkpoint_cn));
    j.Num("replay_s", replay_s);
    j.Close();
  }

  if (args.trace) {
    uint64_t mismatches = 0;
    std::unique_ptr<io::UpdateLog> twin_log;
    if (spec->fresh) twin_log = io::UpdateLog::Open(twin_wal_path);
    std::unique_ptr<BlockSet> twin;
    if (spec->fresh) twin = load_checkpoint();
    BlockSet* target = twin ? twin.get() : &set;
    const Replay replay = ReplayInProcess(in, in.fixed_rate, fixed_n, req,
                                          target, twin_log.get(), &pool,
                                          oracle, &mismatches);
    failed += mismatches;
    attempted += fixed_n;
    uint64_t seen_reads = 0, repeats = 0;
    std::vector<char> seen(in.polygons.size(), 0);
    for (size_t i = 0; i < fixed_n; ++i) {
      const Request& r = in.fixed_rate[i];
      if (r.op == Op::kUpdate) continue;
      ++seen_reads;
      if (seen[r.polygon]) ++repeats;
      seen[r.polygon] = 1;
    }
    j.Open("replay");
    WriteSpans(j, "spans", replay.spans);
    j.Array("op", replay.records,
            [](const ReplayRecord& r) { return static_cast<int>(r.op); });
    j.Array("vertices", replay.records,
            [](const ReplayRecord& r) { return r.vertices; });
    j.Array("cover_cells", replay.records,
            [](const ReplayRecord& r) { return r.cover_cells; });
    j.Array("route_shards", replay.records,
            [](const ReplayRecord& r) { return r.route_shards; });
    j.Array("rebuilds", replay.records,
            [](const ReplayRecord& r) { return r.rebuilds; });
    j.Array("tuples", replay.records, [](const ReplayRecord& r) { return r.tuples; });
    j.Num("batch_us_per_query", replay.batch_us_per_query);
    j.Array("select_us", replay.select_us, [](double v) { return v; });
    j.Num("pending_tuples", static_cast<double>(replay.pending_tuples));
    j.Num("repeat_frac", seen_reads == 0 ? 0.0
                                         : static_cast<double>(repeats) /
                                               static_cast<double>(seen_reads));
    j.Num("mismatches", static_cast<double>(mismatches));
    j.Close();
    WriteSpans(j, "client_spans", client_spans);
    j.StrArray("span_names", std::vector<std::string>(std::begin(kSpanNames),
                                                      std::end(kSpanNames)));
  }

  j.Open("checks");
  j.Num("attempted", static_cast<double>(attempted));
  j.Num("failed", static_cast<double>(failed));
  j.StrArray("violations", violation_names);
  j.Close();
  j.Close();
  if (!j.ok()) throw std::runtime_error("perfbench: cannot write " + args.out);
  return 0;
}

}  // namespace
}  // namespace geoblocks::perfbench

int main(int argc, char** argv) {
  try {
    return geoblocks::perfbench::Run(geoblocks::perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "served_bench: %s\n", e.what());
    return 2;
  }
}
