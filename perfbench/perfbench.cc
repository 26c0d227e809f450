// The repository benchmark: three workloads that each load different
// layers of the stack, measured end to end with tracing off, and layer
// by layer in a separate traced run.
//
//   point_email  YCSB-C: Zipf(0.99) point lookups over 1M Email keys,
//                3-Grams 16K dictionary (bitmap trie) + ART, one client
//                thread, closed loop. Each lookup encodes its key and
//                probes the tree. Loads hope.encode and art; never
//                decodes and has no dynamic or serve layer.
//   scan_url     YCSB-E: 95% scans (Zipf start, length uniform 1..100)
//                and 5% inserts of new keys over 500K URL keys (90%
//                preloaded), ALM-Improved 4K dictionary (ART dict) +
//                B+tree, one client thread, closed loop. Every returned
//                row is decoded and compared with its original key, as
//                a covering read would. Dominated by hope.decode.
//   serve_drift  8-shard ConcurrentShardedIndex<BTree> under a 2-worker
//                ServerLoop with Single-Char shard dictionaries, fed by
//                one generator thread (closed loop, bounded queues) with
//                hot-spot-migrating traffic: 5 phases of 89% lookups,
//                10% inserts, 1% scans of 50. At the middle of every
//                phase a driver thread forces one rebuild per shard and
//                one rebalance, then waits for the migration to settle.
//                Loads dynamic and serve; encode is cheap here.
//
// Usage: perfbench --workload <name> --seed <n> --seconds <s>
//                  --trace <0|1> --out <dir>
// The last stdout line is the result object
//   {"correct", "attempted", "failed", "metrics"}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A detail file with sample counts and the host/build
// fingerprint, and in traced runs the span file, go to --out.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "art/art.h"
#include "btree/btree.h"
#include "common/simd.h"
#include "datasets/datasets.h"
#include "dynamic/sharded_manager.h"
#include "hope/hope.h"
#include "perfbench/trace.h"
#include "serve/concurrent_index.h"
#include "serve/cpu_pin.h"
#include "serve/server_loop.h"
#include "workload/drift.h"
#include "workload/workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using hope::Art;
using hope::BTree;
using hope::BuildStats;
using hope::DictImpl;
using hope::Hope;
using hope::Scheme;

// Set-up is repeated this many times per run and reported as the median
// (more often for the serving stack, whose set-up is short).
constexpr int kSetupReps = 3;
constexpr int kServeSetupReps = 5;
// Traced runs alternate traced and untraced blocks of requests, so the
// tracing overhead is measured inside one run on the same warm state.
// Spans are kept for one request in a workload's span stride (about a
// few thousand requests per second of traced time), up to kSpanCapacity.
constexpr size_t kSpanCapacity = 200000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  unsigned seconds = 0;
  bool trace = false;
  std::string out_dir;
};

// ---------------------------------------------------------------------------
// Result collection

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every workload reports every metric below; the lists must match
// BENCHMARK.json (the run script checks). A per-layer metric of a layer
// the workload does not call from the benchmark reads 0.
constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "1/s"},
    {"p50_us", "us"},
    {"tail_us", "us"},
    {"index_bytes_per_key", "B/key"},
    {"setup_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"hope.build.select_s", "s"},
    {"hope.build.assign_s", "s"},
    {"hope.build.dict_s", "s"},
    {"hope.dict.bytes", "B"},
    {"hope.encode.calls", "count"},
    {"hope.encode.ns_per_call", "ns"},
    {"hope.encode.ns_per_byte", "ns/B"},
    {"hope.encode.cpr", "ratio"},
    {"hope.decode.calls", "count"},
    {"hope.decode.ns_per_key", "ns"},
    {"hope.decode.ns_per_byte", "ns/B"},
    {"art.load_s", "s"},
    {"art.lookup.ns_per_call", "ns"},
    {"art.leaf_depth", "levels"},
    {"btree.load_s", "s"},
    {"btree.scan.ns_per_call", "ns"},
    {"btree.scan.entries_per_call", "count"},
    {"btree.insert.ns_per_call", "ns"},
    {"serve.index.load_s", "s"},
    {"serve.submit.blocked_frac", "frac"},
    {"serve.queue_delay_p50_us", "us"},
    {"serve.queue_delay_p99_us", "us"},
    {"serve.index.lookup_slow_paths", "count"},
    {"serve.index.plans_applied", "count"},
    {"serve.index.entries_migrated", "count"},
    {"serve.migration.settle_s", "s"},
    {"dynamic.rebuild.published", "count"},
    {"dynamic.rebuild.rejected", "count"},
    {"dynamic.rebuild.s", "s"},
    {"dynamic.rebalance.plans", "count"},
    {"dynamic.rebalance.s", "s"},
    {"trace.ops_per_s", "1/s"},
    {"trace.base_ops_per_s", "1/s"},
    {"trace.overhead_frac", "frac"},
    {"trace.op_self_frac", "frac"},
};

struct Value {
  double value = 0;
  uint64_t samples = 0;  ///< observations behind the value (0 = n/a)
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, uint64_t samples) {
    values_[name] = Value{value, samples, ""};
  }
  /// Workload-specific figures (for example lookup_p99_us, whole-run
  /// percentiles); printed and written to the detail file only.
  void Detail(const std::string& name, double value, const char* unit,
              uint64_t samples) {
    details_.push_back({name, Value{value, samples, unit}});
  }
  void Info(const std::string& key, const std::string& value) {
    info_.push_back({key, value});
  }

  /// A correctness check; a failure is counted, never fatal.
  void Check(bool ok) {
    attempted_++;
    if (!ok) failed_++;
  }
  void CountChecks(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  /// Prints the human-readable table, writes the detail file, and prints
  /// the result line last. Returns false when the detail file could not
  /// be written.
  bool Emit(const Args& args) const {
    std::printf("# %s seed=%" PRIu64 " seconds=%u trace=%d\n",
                args.workload.c_str(), args.seed, args.seconds,
                args.trace ? 1 : 0);
    for (const auto& [k, v] : info_)
      std::printf("#   %-22s %s\n", k.c_str(), v.c_str());
    std::printf("#   %-22s %.6g (%" PRIu64 " of %" PRIu64 ")\n", "fail_frac",
                FailFrac(), failed_, attempted_);
    for (const MetricDef& def : Defs(args.trace)) {
      Value v = Get(def);
      std::printf("  %-30s %16.6f %-6s n=%" PRIu64 "\n", def.name, v.value,
                  def.unit, v.samples);
    }
    for (const auto& [k, v] : details_)
      std::printf("  %-30s %16.6f %-6s n=%" PRIu64 "  (detail)\n", k.c_str(),
                  v.value, v.unit.c_str(), v.samples);

    bool wrote = WriteDetail(args);

    std::string line = "{\"correct\": ";
    line += failed_ == 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted_);
    line += ", \"failed\": " + std::to_string(failed_);
    line += ", \"metrics\": {";
    for (const MetricDef& def : Defs(args.trace)) {
      if (line.back() != '{') line += ", ";
      line += "\"" + std::string(def.name) + "\": {\"value\": " +
              Num(Get(def).value) + ", \"unit\": \"" + def.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return wrote;
  }

 private:
  static std::span<const MetricDef> Defs(bool trace) {
    if (trace) return kPerLayer;
    return kEndToEnd;
  }

  Value Get(const MetricDef& def) const {
    auto it = values_.find(def.name);
    Value v = it == values_.end() ? Value{} : it->second;
    v.unit = def.unit;
    return v;
  }

  double FailFrac() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

  static std::string Num(double v) {
    if (!std::isfinite(v)) v = 0;
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out += ' ';
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

  bool WriteDetail(const Args& args) const {
    const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed) + "-trace" +
                             (args.trace ? "1" : "0") + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    out << "{\n  \"workload\": " << Quote(args.workload)
        << ",\n  \"seed\": " << args.seed << ",\n  \"seconds\": "
        << args.seconds << ",\n  \"trace\": " << (args.trace ? 1 : 0)
        << ",\n  \"attempted\": " << attempted_ << ",\n  \"failed\": "
        << failed_ << ",\n  \"fail_frac\": " << Num(FailFrac())
        << ",\n  \"info\": {";
    for (size_t i = 0; i < info_.size(); i++)
      out << (i ? ", " : "") << Quote(info_[i].first) << ": "
          << Quote(info_[i].second);
    out << "},\n  \"metrics\": {\n";
    bool first = true;
    auto row = [&](const std::string& name, const Value& v) {
      out << (first ? "" : ",\n") << "    " << Quote(name)
          << ": {\"value\": " << Num(v.value) << ", \"unit\": "
          << Quote(v.unit) << ", \"samples\": " << v.samples << "}";
      first = false;
    };
    for (const MetricDef& def : Defs(args.trace)) row(def.name, Get(def));
    for (const auto& [k, v] : details_) row(k, v);
    out << "\n  }\n}\n";
    return static_cast<bool>(out);
  }

  std::map<std::string, Value> values_;
  std::vector<std::pair<std::string, Value>> details_;
  std::vector<std::pair<std::string, std::string>> info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Helpers

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void Fingerprint(Report* report) {
  report->Info("cpu", CpuModel());
  report->Info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report->Info("simd", hope::simd::TierName());
  report->Info("compiler", Compiler());
  report->Info("build_type", PERFBENCH_BUILD_TYPE);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank percentile of latencies in nanoseconds, as microseconds.
double PercentileUs(std::vector<uint32_t>* ns, double q) {
  if (ns->empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(ns->size())));
  rank = std::clamp<size_t>(rank, 1, ns->size()) - 1;
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(rank),
                   ns->end());
  return static_cast<double>((*ns)[rank]) / 1e3;
}

/// Fixed-time windows over a closed-loop timed phase. A window closes at
/// the first block end after kWindowNs and remembers its op rate and
/// where its latencies end. The end-to-end figures are medians over
/// windows, so a burst of interference from outside the program moves
/// only the windows it falls in.
class Windows {
 public:
  static constexpr uint64_t kWindowNs = 500000000;

  explicit Windows(uint64_t start_ns) : start_(start_ns) {}

  void BlockDone(uint64_t now, uint64_t ops, size_t latencies) {
    ops_ += ops;
    if (now - start_ < kWindowNs) return;
    rates_.push_back(static_cast<double>(ops_) * 1e9 /
                     static_cast<double>(now - start_));
    ends_.push_back(latencies);
    start_ = now;
    ops_ = 0;
  }

  size_t size() const { return rates_.size(); }
  double MedianRate() const { return Median(rates_); }

  /// Median over windows of each window's q-quantile. Reorders latencies
  /// within each window's slice only.
  double MedianPercentileUs(std::vector<uint32_t>* ns, double q) const {
    std::vector<double> per_window;
    size_t begin = 0;
    for (size_t end : ends_) {
      std::vector<uint32_t> slice(ns->begin() + static_cast<long>(begin),
                                  ns->begin() + static_cast<long>(end));
      per_window.push_back(PercentileUs(&slice, q));
      begin = end;
    }
    return Median(per_window);
  }

 private:
  uint64_t start_;
  uint64_t ops_ = 0;
  std::vector<double> rates_;
  std::vector<size_t> ends_;
};

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX));
}

/// Throughput of the timed phase's blocks, traced and untraced kept
/// apart. The overhead compares the two sides' median block rates, so a
/// stall that lands in one block does not decide it.
struct BlockClock {
  std::vector<double> rates[2];
  uint64_t ops[2] = {0, 0};
  uint64_t ns[2] = {0, 0};

  void Add(bool traced, uint64_t block_ops, uint64_t block_ns) {
    const int i = traced ? 1 : 0;
    ops[i] += block_ops;
    ns[i] += block_ns;
    if (block_ns > 0)
      rates[i].push_back(static_cast<double>(block_ops) * 1e9 /
                         static_cast<double>(block_ns));
  }
  double Seconds() const { return static_cast<double>(ns[0] + ns[1]) / 1e9; }
};

void ReportTraceOverhead(const BlockClock& clock, Report* report) {
  const double traced = Median(clock.rates[1]);
  const double base = Median(clock.rates[0]);
  report->Set("trace.ops_per_s", traced, clock.ops[1]);
  report->Set("trace.base_ops_per_s", base, clock.ops[0]);
  report->Set("trace.overhead_frac", base == 0 ? 0 : 1.0 - traced / base,
              clock.rates[0].size() + clock.rates[1].size());
  report->Info("trace_overhead",
               "median block rate " + std::to_string(traced) +
                   " ops/s traced against a base of " + std::to_string(base) +
                   " ops/s untraced");
}

/// The benchmark's own share of the traced requests' time: root span
/// durations minus the layer calls inside them. Warns when it is large
/// enough to distort the per-layer figures.
void ReportOpSelfFrac(const LayerTotals& ops, uint64_t children_ns,
                      Report* report) {
  const double frac =
      ops.ns == 0 ? 0
                  : static_cast<double>(ops.ns - children_ns) /
                        static_cast<double>(ops.ns);
  report->Set("trace.op_self_frac", frac, ops.calls);
  if (frac > 0.1)
    std::fprintf(stderr,
                 "perfbench: warning: op spans spend %.0f%% of their time "
                 "outside the layer calls\n",
                 frac * 100);
}

void WriteSpans(const Args& args, const SpanLog& spans, Report* report) {
  const std::string path = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  report->Check(spans.WriteJsonLines(path));
  report->Info("spans", path + " (" + std::to_string(spans.size()) + ")");
}

void ReportBuild(const std::vector<BuildStats>& builds, Report* report) {
  std::vector<double> sel, asg, dict;
  for (const BuildStats& b : builds) {
    sel.push_back(b.symbol_select_seconds);
    asg.push_back(b.code_assign_seconds);
    dict.push_back(b.dict_build_seconds);
  }
  report->Set("hope.build.select_s", Median(sel), builds.size());
  report->Set("hope.build.assign_s", Median(asg), builds.size());
  report->Set("hope.build.dict_s", Median(dict), builds.size());
}

/// Original bytes over byte-padded encoded bytes (the paper's CPR).
double Cpr(uint64_t original, uint64_t encoded) {
  return encoded == 0 ? 0.0
                      : static_cast<double>(original) /
                            static_cast<double>(encoded);
}

// ---------------------------------------------------------------------------
// point_email

void RunPointEmail(const Args& args, Report* report) {
  constexpr size_t kKeys = 1000000;
  constexpr size_t kQueries = size_t{1} << 21;
  constexpr size_t kWarmup = 200000;
  constexpr size_t kBlock = 4096;
  constexpr size_t kSpanStride = 64;

  const std::vector<std::string> keys = hope::GenerateEmails(kKeys, args.seed);
  const std::vector<uint32_t> queries =
      hope::GenerateZipfQueries(kKeys, kQueries, args.seed ^ 0xC0FFEEull);

  std::unique_ptr<Hope> hope;
  std::unique_ptr<Art> art;
  std::vector<BuildStats> builds;
  std::vector<double> setup_s, load_s;
  uint64_t raw_bytes = 0, enc_bytes = 0;
  size_t qi = 0;

  auto lookup = [&](size_t q) {
    const std::string& key = keys[queries[q]];
    uint64_t value = 0;
    bool hit = art->Lookup(hope->Encode(key), &value);
    return hit && value == queries[q];
  };

  for (int rep = 0; rep < kSetupReps; rep++) {
    art.reset();
    hope.reset();
    BuildStats stats;
    const uint64_t t0 = NowNs();
    hope = Hope::Build(Scheme::kThreeGrams, hope::SampleKeys(keys, 0.01),
                       size_t{1} << 14, &stats, DictImpl::kBitmapTrie);
    std::vector<std::string> encoded;
    encoded.reserve(keys.size());
    raw_bytes = enc_bytes = 0;
    for (const std::string& k : keys) {
      size_t bits = 0;
      encoded.push_back(hope->Encode(k, &bits));
      raw_bytes += k.size();
      enc_bytes += (bits + 7) / 8;
    }
    art = std::make_unique<Art>();
    const uint64_t l0 = NowNs();
    for (size_t i = 0; i < encoded.size(); i++) art->Insert(encoded[i], i);
    load_s.push_back(static_cast<double>(NowNs() - l0) / 1e9);
    encoded = {};
    // Warm-up: fills caches and the Zipf hot set before timing; its
    // lookups are checked like any other.
    for (qi = 0; qi < kWarmup; qi++) report->Check(lookup(qi));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    builds.push_back(stats);
  }

  const size_t dict_bytes = hope->dict().MemoryBytes();
  const double bytes_per_key =
      static_cast<double>(art->MemoryBytes() + dict_bytes) /
      static_cast<double>(keys.size());
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("index_bytes_per_key", bytes_per_key, keys.size());
  ReportBuild(builds, report);
  report->Set("hope.dict.bytes", static_cast<double>(dict_bytes), 1);
  report->Set("hope.encode.cpr", Cpr(raw_bytes, enc_bytes), keys.size());
  report->Set("art.load_s", Median(load_s), load_s.size());
  report->Set("art.leaf_depth", art->AverageLeafDepth(), keys.size());

  // Timed phase. Capacity for the latencies comes from the warm-up rate,
  // so the vector does not grow inside the loop.
  std::vector<uint32_t> lat;
  if (!args.trace) {
    const uint64_t w0 = NowNs();
    for (size_t i = 0; i < 20000; i++) report->Check(lookup(i));
    const double rate = 20000.0 * 1e9 / static_cast<double>(NowNs() - w0);
    lat.reserve(static_cast<size_t>(rate * args.seconds * 1.5) + kBlock);
  }
  LayerTotals encode, probe, op_total;
  SpanLog spans(args.trace ? kSpanCapacity : 0);
  BlockClock clock;
  uint64_t failed = 0, done = 0;
  const uint64_t start = NowNs();
  Windows windows(start);
  const uint64_t deadline = start + uint64_t{args.seconds} * 1000000000ull;
  bool traced_block = false;
  for (uint64_t now = start; now < deadline;) {
    if (!args.trace) {
      for (size_t b = 0; b < kBlock; b++) {
        const size_t q = qi;
        if (++qi == queries.size()) qi = 0;
        const std::string& key = keys[queries[q]];
        const uint64_t t0 = NowNs();
        uint64_t value = 0;
        const bool hit = art->Lookup(hope->Encode(key), &value);
        const uint64_t t1 = NowNs();
        lat.push_back(Clamp32(t1 - t0));
        if (!hit || value != queries[q]) failed++;
      }
    } else if (!traced_block) {
      for (size_t b = 0; b < kBlock; b++) {
        const size_t q = qi;
        if (++qi == queries.size()) qi = 0;
        uint64_t value = 0;
        const bool hit = art->Lookup(hope->Encode(keys[queries[q]]), &value);
        if (!hit || value != queries[q]) failed++;
      }
    } else {
      for (size_t b = 0; b < kBlock; b++) {
        const size_t q = qi;
        if (++qi == queries.size()) qi = 0;
        const std::string& key = keys[queries[q]];
        const uint64_t req = done + b;
        const bool sampled = req % kSpanStride == 0;
        const uint64_t t0 = NowNs();
        const uint64_t e0 = t0;
        std::string enc = hope->Encode(key);
        const uint64_t e1 = NowNs();
        uint64_t value = 0;
        const bool hit = art->Lookup(enc, &value);
        const uint64_t l1 = NowNs();
        encode.Add(e1 - e0, 1, key.size());
        probe.Add(l1 - e1);
        if (sampled) {
          const uint32_t root =
              spans.Open("op", "req", req, SpanLog::kNone, t0);
          spans.Add("hope.encode", "req", req, root, e0, e1);
          spans.Add("art.lookup", "req", req, root, e1, l1);
          spans.Close(root, NowNs());
        }
        op_total.Add(NowNs() - t0);
        if (!hit || value != queries[q]) failed++;
      }
    }
    const uint64_t end = NowNs();
    clock.Add(args.trace && traced_block, kBlock, end - now);
    windows.BlockDone(end, kBlock, lat.size());
    done += kBlock;
    now = end;
    traced_block = !traced_block;
  }
  report->CountChecks(done, failed);

  report->Info("data", "1000000 Email keys, 3-Grams 16K bitmap-trie + ART");
  if (!args.trace) {
    const uint64_t n = lat.size();
    report->Set("ops_per_s", windows.MedianRate(), done);
    report->Set("p50_us", windows.MedianPercentileUs(&lat, 0.50), n);
    report->Set("tail_us", windows.MedianPercentileUs(&lat, 0.99), n);
    report->Detail("ops_per_s_overall",
                   static_cast<double>(done) / clock.Seconds(), "1/s", done);
    report->Detail("lookup_p50_us", PercentileUs(&lat, 0.50), "us", n);
    report->Detail("lookup_p99_us", PercentileUs(&lat, 0.99), "us", n);
    report->Detail("lookup_p999_us", PercentileUs(&lat, 0.999), "us", n);
  } else {
    report->Set("hope.encode.calls", static_cast<double>(encode.calls),
                encode.calls);
    report->Set("hope.encode.ns_per_call", encode.NsPerCall(), encode.calls);
    report->Set("hope.encode.ns_per_byte", encode.NsPerUnit(), encode.calls);
    report->Set("art.lookup.ns_per_call", probe.NsPerCall(), probe.calls);
    ReportOpSelfFrac(op_total, encode.ns + probe.ns, report);
    ReportTraceOverhead(clock, report);
    WriteSpans(args, spans, report);
  }
}

// ---------------------------------------------------------------------------
// scan_url

void RunScanUrl(const Args& args, Report* report) {
  constexpr size_t kKeys = 500000;
  constexpr size_t kLoaded = kKeys * 9 / 10;
  constexpr size_t kQueries = size_t{1} << 18;
  constexpr size_t kWarmup = 2000;
  constexpr size_t kBlock = 64;
  constexpr size_t kSpanStride = 4;

  const std::vector<std::string> keys = hope::GenerateUrls(kKeys, args.seed);
  const std::vector<std::string> loaded(keys.begin(), keys.begin() + kLoaded);
  const std::vector<uint32_t> starts =
      hope::GenerateZipfQueries(kLoaded, kQueries, args.seed ^ 0x5CA7ull);
  const std::vector<uint32_t> lens =
      hope::GenerateScanLengths(kQueries, 100, args.seed);

  // The row store a covering read would return: each row's encoded key
  // and its exact bit length, indexed by the row id the tree stores.
  struct Row {
    std::string enc;
    size_t bits = 0;
  };
  std::unique_ptr<Hope> hope;
  std::unique_ptr<BTree> tree;
  std::vector<Row> rows;
  std::vector<BuildStats> builds;
  std::vector<double> setup_s, load_s;
  uint64_t raw_bytes = 0, enc_bytes = 0;
  std::string max_key;
  size_t next_insert = kLoaded;
  std::vector<uint64_t> out;
  std::vector<std::string> decoded;
  out.reserve(128);
  decoded.reserve(128);

  // The checks on one scan's output: it starts at the (loaded) start key,
  // every row decodes to its original key, keys ascend strictly, and a
  // short result is one that ran into the largest key.
  auto check_scan = [&](const std::string& start, size_t len, size_t n) {
    bool ok = n == out.size() && n >= 1 && n <= len && decoded[0] == start;
    for (size_t j = 0; ok && j < n; j++)
      ok = out[j] < rows.size() && decoded[j] == keys[out[j]] &&
           (j == 0 || decoded[j - 1] < decoded[j]);
    return ok && (n == len || decoded[n - 1] == max_key);
  };
  // One covering read: the rows of the range, each key decoded.
  auto scan = [&](const std::string& start, size_t len) {
    out.clear();
    const size_t n = tree->Scan(hope->Encode(start), len, &out);
    decoded.clear();
    for (uint64_t row : out)
      decoded.push_back(hope->Decode(rows[row].enc, rows[row].bits));
    return n;
  };

  size_t qi = 0;
  for (int rep = 0; rep < kSetupReps; rep++) {
    tree.reset();
    hope.reset();
    rows.assign(kKeys, Row{});
    BuildStats stats;
    const uint64_t t0 = NowNs();
    hope = Hope::Build(Scheme::kAlmImproved, hope::SampleKeys(loaded, 0.01),
                       size_t{1} << 12, &stats, DictImpl::kArt);
    raw_bytes = enc_bytes = 0;
    for (size_t i = 0; i < kLoaded; i++) {
      rows[i].enc = hope->Encode(keys[i], &rows[i].bits);
      raw_bytes += keys[i].size();
      enc_bytes += (rows[i].bits + 7) / 8;
    }
    tree = std::make_unique<BTree>();
    const uint64_t l0 = NowNs();
    for (size_t i = 0; i < kLoaded; i++) tree->Insert(rows[i].enc, i);
    load_s.push_back(static_cast<double>(NowNs() - l0) / 1e9);
    max_key = *std::max_element(loaded.begin(), loaded.end());
    for (qi = 0; qi < kWarmup; qi++) {
      const std::string& start = keys[starts[qi]];
      report->Check(check_scan(start, lens[qi], scan(start, lens[qi])));
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    builds.push_back(stats);
  }

  const size_t dict_bytes = hope->dict().MemoryBytes();
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("index_bytes_per_key",
              static_cast<double>(tree->MemoryBytes() + dict_bytes) /
                  static_cast<double>(kLoaded),
              kLoaded);
  ReportBuild(builds, report);
  report->Set("hope.dict.bytes", static_cast<double>(dict_bytes), 1);
  report->Set("hope.encode.cpr", Cpr(raw_bytes, enc_bytes), kLoaded);
  report->Set("btree.load_s", Median(load_s), load_s.size());

  std::vector<uint32_t> scan_lat, insert_lat;
  scan_lat.reserve(size_t{args.seconds} * 100000);
  insert_lat.reserve(size_t{args.seconds} * 10000);
  LayerTotals encode, btree_scan, btree_insert, decode, op_total;
  uint64_t op_children_ns = 0;
  SpanLog spans(args.trace ? kSpanCapacity : 0);
  BlockClock clock;
  uint64_t failed = 0, done = 0, inserts = 0;
  const uint64_t start = NowNs();
  Windows windows(start);
  const uint64_t deadline = start + uint64_t{args.seconds} * 1000000000ull;
  bool traced_block = false;
  for (uint64_t now = start; now < deadline;) {
    const bool traced = args.trace && traced_block;
    for (size_t b = 0; b < kBlock; b++) {
      const uint64_t req = done + b;
      const bool sampled = traced && req % kSpanStride == 0;
      if (req % 20 == 19 && next_insert < kKeys) {
        // Insert a new key: encode it, store the row, index it.
        const size_t row = next_insert++;
        const std::string& key = keys[row];
        const uint64_t t0 = NowNs();
        const uint32_t root = sampled
            ? spans.Open("op", "req", req, SpanLog::kNone, t0) : SpanLog::kNone;
        const uint64_t e0 = traced ? NowNs() : t0;
        rows[row].enc = hope->Encode(key, &rows[row].bits);
        const uint64_t e1 = traced ? NowNs() : 0;
        tree->Insert(rows[row].enc, row);
        const uint64_t t1 = NowNs();
        if (max_key < key) max_key = key;
        inserts++;
        if (!traced) {
          insert_lat.push_back(Clamp32(t1 - t0));
          continue;
        }
        encode.Add(e1 - e0, 1, key.size());
        btree_insert.Add(t1 - e1);
        op_children_ns += t1 - e0;
        if (sampled) {
          spans.Add("hope.encode", "req", req, root, e0, e1);
          spans.Add("btree.insert", "req", req, root, e1, t1);
        }
        const uint64_t t2 = NowNs();
        spans.Close(root, t2);
        op_total.Add(t2 - t0);
        continue;
      }
      const size_t q = qi;
      if (++qi == starts.size()) qi = 0;
      const std::string& start_key = keys[starts[q]];
      if (!traced) {
        const uint64_t t0 = NowNs();
        const size_t n = scan(start_key, lens[q]);
        const uint64_t t1 = NowNs();
        scan_lat.push_back(Clamp32(t1 - t0));
        if (!check_scan(start_key, lens[q], n)) failed++;
        continue;
      }
      const uint64_t t0 = NowNs();
      const uint32_t root = sampled
          ? spans.Open("op", "req", req, SpanLog::kNone, t0) : SpanLog::kNone;
      const uint64_t e0 = NowNs();
      std::string enc = hope->Encode(start_key);
      const uint64_t e1 = NowNs();
      out.clear();
      const size_t n = tree->Scan(enc, lens[q], &out);
      const uint64_t s1 = NowNs();
      decoded.clear();
      size_t decoded_bytes = 0;
      for (uint64_t row : out) {
        decoded.push_back(hope->Decode(rows[row].enc, rows[row].bits));
        decoded_bytes += decoded.back().size();
      }
      const uint64_t d1 = NowNs();
      encode.Add(e1 - e0, 1, start_key.size());
      btree_scan.Add(s1 - e1, 1, n);
      decode.Add(d1 - s1, out.size(), decoded_bytes);
      op_children_ns += d1 - e0;
      if (sampled) {
        spans.Add("hope.encode", "req", req, root, e0, e1);
        spans.Add("btree.scan", "req", req, root, e1, s1);
        spans.Add("hope.decode", "req", req, root, s1, d1);
      }
      const uint64_t t1 = NowNs();
      spans.Close(root, t1);
      op_total.Add(t1 - t0);
      if (!check_scan(start_key, lens[q], n)) failed++;
    }
    const uint64_t end = NowNs();
    clock.Add(args.trace && traced_block, kBlock, end - now);
    windows.BlockDone(end, kBlock, scan_lat.size());
    done += kBlock;
    now = end;
    traced_block = !traced_block;
  }
  report->CountChecks(done - inserts, failed);
  // Every inserted key must be findable afterwards.
  for (size_t row = kLoaded; row < next_insert; row++) {
    out.clear();
    tree->Scan(rows[row].enc, 1, &out);
    report->Check(out.size() == 1 && out[0] == row);
  }

  report->Info("data", "500000 URL keys (90% preloaded), ALM-Improved 4K "
                       "ART-dict + B+tree");
  if (!args.trace) {
    const uint64_t n = scan_lat.size();
    report->Set("ops_per_s", windows.MedianRate(), done);
    report->Set("p50_us", windows.MedianPercentileUs(&scan_lat, 0.50), n);
    report->Set("tail_us", windows.MedianPercentileUs(&scan_lat, 0.99), n);
    report->Detail("ops_per_s_overall",
                   static_cast<double>(done) / clock.Seconds(), "1/s", done);
    report->Detail("scan_p50_us", PercentileUs(&scan_lat, 0.50), "us", n);
    report->Detail("scan_p99_us", PercentileUs(&scan_lat, 0.99), "us", n);
    report->Detail("insert_p50_us", PercentileUs(&insert_lat, 0.5), "us",
                   insert_lat.size());
  } else {
    report->Set("hope.encode.calls", static_cast<double>(encode.calls),
                encode.calls);
    report->Set("hope.encode.ns_per_call", encode.NsPerCall(), encode.calls);
    report->Set("hope.encode.ns_per_byte", encode.NsPerUnit(), encode.calls);
    report->Set("hope.decode.calls", static_cast<double>(decode.calls),
                decode.calls);
    report->Set("hope.decode.ns_per_key", decode.NsPerCall(), decode.calls);
    report->Set("hope.decode.ns_per_byte", decode.NsPerUnit(), decode.calls);
    report->Set("btree.scan.ns_per_call", btree_scan.NsPerCall(),
                btree_scan.calls);
    report->Set("btree.scan.entries_per_call", btree_scan.UnitsPerCall(),
                btree_scan.calls);
    report->Set("btree.insert.ns_per_call", btree_insert.NsPerCall(),
                btree_insert.calls);
    ReportOpSelfFrac(op_total, op_children_ns, report);
    ReportTraceOverhead(clock, report);
    WriteSpans(args, spans, report);
  }
}

// ---------------------------------------------------------------------------
// serve_drift

using hope::dynamic::ShardedDictionaryManager;
using hope::serve::ConcurrentShardedIndex;
using hope::serve::KeyFingerprint;
using hope::serve::Request;
using hope::serve::ServerLoop;

constexpr size_t kServeShards = 8;
constexpr size_t kServeWorkers = 2;
constexpr size_t kServePhases = 5;
constexpr size_t kServeCorpus = 200000;

/// One serving stack: manager, index and loop, torn down in reverse.
struct ServeStack {
  std::unique_ptr<ShardedDictionaryManager> mgr;
  std::unique_ptr<ConcurrentShardedIndex<BTree>> index;
  std::unique_ptr<ServerLoop<BTree>> loop;

  ~ServeStack() { Reset(); }
  void Reset() {
    loop.reset();
    index.reset();
    mgr.reset();
  }
};

/// Moves the calling thread, and every thread it starts from now on, off
/// the CPUs the ServerLoop pins its workers to (0..kServeWorkers-1). The
/// generator, the loop's maintenance thread and the event driver then
/// never preempt a worker. A no-op where affinity is unavailable.
void AvoidWorkerCpus() {
#if defined(__linux__)
  const unsigned cpus = hope::serve::NumCpus();
  if (cpus <= kServeWorkers) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = kServeWorkers; c < cpus; c++) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#endif
}

Request MakeRequest(const std::string& key, size_t position) {
  Request req;
  req.key = key;
  const size_t roll = position % 100;
  if (roll == 0) {
    req.op = Request::Op::kScan;
    req.check = true;
    req.scan_count = 50;
  } else if (roll <= 10) {
    req.op = Request::Op::kInsert;
    req.value = KeyFingerprint(key);
  } else {
    req.op = Request::Op::kLookup;
    req.check = true;
  }
  return req;
}

/// The lifecycle driver: at each event position the generator hands
/// over and waits until the driver has started, so events begin at the
/// same request index on every run. Each event forces a rebuild of every
/// shard, one rebalance, and then polls until the migration has settled.
class EventDriver {
 public:
  EventDriver(ShardedDictionaryManager* mgr,
              ConcurrentShardedIndex<BTree>* index, size_t num_events,
              bool trace)
      : mgr_(mgr), index_(index), num_events_(num_events),
        spans_(trace ? 64 * num_events : 0),
        thread_([this] { Main(); }) {}

  ~EventDriver() { Join(); }
  EventDriver(const EventDriver&) = delete;
  EventDriver& operator=(const EventDriver&) = delete;

  /// Generator side: requests event `k` at request index `position` and
  /// blocks until the driver has taken it.
  void Fire(size_t k, uint64_t position) {
    position_.store(position, std::memory_order_relaxed);
    requested_.store(k + 1, std::memory_order_release);
    while (started_.load(std::memory_order_acquire) < k + 1)
      std::this_thread::yield();
  }

  void Join() {
    if (thread_.joinable()) thread_.join();
  }

  // Read these only after Join().
  const std::vector<uint64_t>& positions() const { return positions_; }
  const std::string& summary() const { return summary_; }
  const SpanLog& spans() const { return spans_; }
  LayerTotals rebuild, rebalance, settle;
  uint64_t plans = 0;

 private:
  void Main() {
    for (size_t k = 0; k < num_events_; k++) {
      while (requested_.load(std::memory_order_acquire) < k + 1)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      positions_.push_back(position_.load(std::memory_order_relaxed));
      started_.store(k + 1, std::memory_order_release);
      const uint64_t t0 = NowNs();
      const uint32_t root =
          spans_.Open("serve.event", "event", k, SpanLog::kNone, t0);
      for (size_t s = 0; s < mgr_->num_shards(); s++) {
        const uint64_t r0 = NowNs();
        mgr_->shard(s).RebuildNow(/*force=*/true);
        const uint64_t r1 = NowNs();
        rebuild.Add(r1 - r0);
        spans_.Add("dynamic.rebuild", "event", k, root, r0, r1);
      }
      const uint64_t b0 = NowNs();
      const bool planned = mgr_->RebalanceNow(/*force=*/true) != nullptr;
      const uint64_t b1 = NowNs();
      rebalance.Add(b1 - b0);
      spans_.Add("dynamic.rebalance", "event", k, root, b0, b1);
      if (planned) plans++;
      const uint64_t moved0 = index_->entries_migrated();
      while (!index_->MigrationIdle())
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      const uint64_t m1 = NowNs();
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%s%zu@%" PRIu64 ": rebuild %.0fms rebalance %.0fms "
                    "settle %.0fms moved %" PRIu64,
                    k ? "; " : "", k, positions_.back(),
                    static_cast<double>(b0 - t0) / 1e6,
                    static_cast<double>(b1 - b0) / 1e6,
                    static_cast<double>(m1 - b1) / 1e6,
                    index_->entries_migrated() - moved0);
      summary_ += line;
      settle.Add(m1 - b1);
      spans_.Add("serve.migration.settle", "event", k, root, b1, m1);
      spans_.Close(root, m1);
    }
  }

  ShardedDictionaryManager* mgr_;
  ConcurrentShardedIndex<BTree>* index_;
  const size_t num_events_;
  std::atomic<uint64_t> position_{0};
  std::atomic<size_t> requested_{0};
  std::atomic<size_t> started_{0};
  // Written by the driver thread only, read after Join().
  std::vector<uint64_t> positions_;
  std::string summary_;
  SpanLog spans_;
  std::thread thread_;  ///< last: starts after every member it uses
};

void RunServeDrift(const Args& args, Report* report) {
  // Requests per phase scale with --seconds (20K per second), so a run
  // does a fixed amount of work and events sit at fixed request
  // positions. Lifecycle stalls make up much of the run time, so a run
  // takes roughly half of --seconds on a 4-vCPU host.
  const size_t per_phase = size_t{20000} * args.seconds;
  constexpr size_t kWarmup = 20000;
  constexpr size_t kBlock = 1024;
  constexpr size_t kSpanStride = 64;
  constexpr size_t kWindow = 25000;

  hope::DriftOptions dopt;
  dopt.model = hope::DriftModel::kHotspotMigrate;
  dopt.num_phases = kServePhases;
  dopt.keys_per_phase = per_phase;
  dopt.corpus_size = kServeCorpus;
  dopt.seed = args.seed;
  const hope::DriftingWorkload drift(dopt);
  std::vector<std::string> corpus = drift.part_a();
  corpus.insert(corpus.end(), drift.part_b().begin(), drift.part_b().end());
  // The corpus is sorted; every 20th key is a 5% sample spread over the
  // whole key range.
  std::vector<std::string> sample;
  for (size_t i = 0; i < corpus.size(); i += 20) sample.push_back(corpus[i]);
  std::vector<std::vector<std::string>> phases;
  for (size_t p = 0; p < kServePhases; p++) phases.push_back(drift.Phase(p));

  ShardedDictionaryManager::Options sopt;
  sopt.num_shards = kServeShards;
  sopt.shard.scheme = Scheme::kSingleChar;
  sopt.shard.dict_size_limit = 256;
  sopt.shard.stats.sample_every = 2;
  sopt.shard.stats.reservoir_halflife = 512;
  sopt.traffic_ewma_alpha = 0.6;
  ServerLoop<BTree>::Options lopt;
  lopt.num_workers = kServeWorkers;
  lopt.queue_capacity = 256;
  lopt.migration_batch = 256;

  AvoidWorkerCpus();
  ServeStack stack;
  std::vector<double> setup_s, load_s;
  for (int rep = 0; rep < kServeSetupReps; rep++) {
    stack.Reset();
    const uint64_t t0 = NowNs();
    stack.mgr = std::make_unique<ShardedDictionaryManager>(sample, sopt);
    stack.index = std::make_unique<ConcurrentShardedIndex<BTree>>(
        stack.mgr.get());
    const uint64_t l0 = NowNs();
    for (const std::string& k : corpus)
      stack.index->Insert(k, KeyFingerprint(k));
    load_s.push_back(static_cast<double>(NowNs() - l0) / 1e9);
    stack.loop = std::make_unique<ServerLoop<BTree>>(stack.index.get(), lopt);
    // Warm-up: phase-0 lookups through the loop, then clear the stats.
    for (size_t i = 0; i < kWarmup; i++) {
      Request req;
      req.key = phases[0][i % per_phase];
      req.check = true;
      stack.loop->Submit(std::move(req));
    }
    stack.loop->WaitIdle();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  ShardedDictionaryManager& mgr = *stack.mgr;
  ConcurrentShardedIndex<BTree>& index = *stack.index;
  ServerLoop<BTree>& loop = *stack.loop;
  {
    const hope::serve::OpStats w = loop.Snapshot(Request::Op::kLookup);
    report->CountChecks(w.ops, w.check_failures + (w.ops - w.hits));
  }
  loop.ResetStats();

  // Index memory as loaded: the same per-shard encodings in per-shard
  // B+trees, built beside the serving index (whose trees are private),
  // plus the shard dictionaries.
  {
    std::vector<std::unique_ptr<Hope>> dicts;
    std::vector<BTree> trees(mgr.num_shards());
    size_t dict_bytes = 0;
    for (size_t s = 0; s < mgr.num_shards(); s++) {
      dicts.push_back(mgr.shard(s).Acquire().hope->Clone());
      dict_bytes += dicts.back()->dict().MemoryBytes();
    }
    uint64_t raw_bytes = 0, enc_bytes = 0;
    for (const std::string& k : corpus) {
      const size_t s = mgr.Route(k);
      size_t bits = 0;
      trees[s].Insert(dicts[s]->Encode(k, &bits), KeyFingerprint(k));
      raw_bytes += k.size();
      enc_bytes += (bits + 7) / 8;
    }
    size_t tree_bytes = 0;
    for (const BTree& t : trees) tree_bytes += t.MemoryBytes();
    report->Set("index_bytes_per_key",
                static_cast<double>(tree_bytes + dict_bytes) /
                    static_cast<double>(corpus.size()),
                corpus.size());
    report->Set("hope.dict.bytes", static_cast<double>(dict_bytes),
                mgr.num_shards());
    report->Set("hope.encode.cpr", Cpr(raw_bytes, enc_bytes), corpus.size());
  }
  report->Set("setup_s", Median(setup_s), setup_s.size());
  report->Set("serve.index.load_s", Median(load_s), load_s.size());

  // Timed phase: one generator (this thread) submits every phase's
  // requests in order; the driver fires at the middle of each phase.
  std::vector<uint64_t> expected_positions;
  for (size_t p = 0; p < kServePhases; p++)
    expected_positions.push_back(p * per_phase + per_phase / 2);
  SpanLog spans(args.trace ? kSpanCapacity : 0);
  LayerTotals submit;
  BlockClock clock;
  EventDriver driver(&mgr, &index, kServePhases, args.trace);
  const uint64_t start = NowNs();
  uint64_t block_start = start;
  uint64_t position = 0;
  size_t next_event = 0;
  bool traced_block = false;
  // The run is cut into windows of kWindow requests. Each window ends
  // with a drain, and its statistics are read and reset there; the
  // end-to-end figures are medians over windows, the pooled histogram
  // gives the whole-run percentiles.
  std::vector<double> win_rate, win_p50, win_p99, win_qd50, win_qd99;
  hope::serve::LatencyHistogram pooled;
  uint64_t lookup_ops = 0;
  uint64_t window_start = start;
  const uint64_t total = kServePhases * per_phase;
  for (; position < total; position++) {
    if (next_event < kServePhases &&
        position == expected_positions[next_event]) {
      driver.Fire(next_event, position);
      next_event++;
    }
    const std::string& key = phases[position / per_phase][position % per_phase];
    Request req = MakeRequest(key, position);
    if (args.trace && traced_block) {
      const uint64_t s0 = NowNs();
      loop.Submit(std::move(req));
      const uint64_t s1 = NowNs();
      submit.Add(s1 - s0);
      if (position % kSpanStride == 0)
        spans.Add("serve.submit", "req", position, SpanLog::kNone, s0, s1);
    } else {
      loop.Submit(std::move(req));
    }
    if ((position + 1) % kBlock == 0) {
      const uint64_t now = NowNs();
      clock.Add(args.trace && traced_block, kBlock, now - block_start);
      block_start = now;
      traced_block = !traced_block;
    }
    if ((position + 1) % kWindow != 0 && position + 1 != total) continue;
    loop.WaitIdle();
    const uint64_t now = NowNs();
    win_rate.push_back(static_cast<double>(kWindow) * 1e9 /
                       static_cast<double>(now - window_start));
    window_start = now;
    // Correctness: the loop's own self-checks, and lookups that missed
    // (every requested key was preloaded and nothing is erased).
    const hope::serve::OpStats lookups = loop.Snapshot(Request::Op::kLookup);
    const hope::serve::OpStats scans = loop.Snapshot(Request::Op::kScan);
    const hope::serve::OpStats inserts = loop.Snapshot(Request::Op::kInsert);
    report->CountChecks(lookups.ops, lookups.check_failures +
                                         (lookups.ops - lookups.hits));
    report->CountChecks(scans.ops, scans.scan_order_violations);
    report->CountChecks(inserts.ops, inserts.check_failures);
    lookup_ops += lookups.ops;
    pooled.Merge(lookups.latency);
    win_p50.push_back(static_cast<double>(lookups.latency.Percentile(0.5)));
    win_p99.push_back(static_cast<double>(lookups.latency.Percentile(0.99)));
    const hope::telemetry::HistogramSnapshot qd = loop.QueueDelaySnapshot();
    win_qd50.push_back(static_cast<double>(qd.Percentile(0.5)));
    win_qd99.push_back(static_cast<double>(qd.Percentile(0.99)));
    loop.ResetStats();
  }
  const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
  driver.Join();
  while (!index.MigrationIdle())
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  // Event positions, then a final spot-check of 1000 lookups and one
  // 1000-entry scan.
  report->Check(driver.positions() == expected_positions);
  const size_t step = corpus.size() / 1000;
  for (size_t i = 0; i < corpus.size(); i += step) {
    uint64_t v = 0;
    report->Check(index.Lookup(corpus[i], &v) &&
                  v == KeyFingerprint(corpus[i]));
  }
  std::vector<uint64_t> out;
  index.Scan(corpus[0], 1000, &out);
  bool ordered = out.size() == 1000 && out[0] == KeyFingerprint(corpus[0]);
  for (size_t j = 1; ordered && j < out.size(); j++)
    ordered = out[j - 1] <= out[j];
  report->Check(ordered);

  std::string positions;
  for (uint64_t pos : driver.positions())
    positions += (positions.empty() ? "" : ",") + std::to_string(pos);
  report->Info("event_positions", positions);
  report->Info("data", std::to_string(kServeCorpus) +
                           " URL keys, 8 shards, Single-Char, B+tree, " +
                           std::to_string(kServePhases) + " phases x " +
                           std::to_string(per_phase) + " requests");
  report->Info("workers_pinned", std::to_string(loop.workers_pinned()));
  report->Info("events", driver.summary());

  report->Set("ops_per_s", Median(win_rate), total);
  report->Detail("ops_per_s_overall", static_cast<double>(total) / elapsed,
                 "1/s", total);
  if (!args.trace) {
    auto pooled_us = [&](double q) {
      return static_cast<double>(pooled.Percentile(q)) / 1e3;
    };
    report->Set("p50_us", Median(win_p50) / 1e3, lookup_ops);
    report->Set("tail_us", Median(win_p99) / 1e3, lookup_ops);
    // Whole-run percentiles: p999 is the length of the lifecycle stalls.
    report->Detail("lookup_p50_us", pooled_us(0.5), "us", lookup_ops);
    report->Detail("lookup_p99_us", pooled_us(0.99), "us", lookup_ops);
    report->Detail("lookup_p999_us", pooled_us(0.999), "us", lookup_ops);
  } else {
    report->Set("serve.submit.blocked_frac",
                clock.ns[1] == 0 ? 0
                                 : static_cast<double>(submit.ns) /
                                       static_cast<double>(clock.ns[1]),
                submit.calls);
    report->Set("serve.queue_delay_p50_us", Median(win_qd50) / 1e3, total);
    report->Set("serve.queue_delay_p99_us", Median(win_qd99) / 1e3, total);
    ReportTraceOverhead(clock, report);
  }
  report->Set("serve.index.lookup_slow_paths",
              static_cast<double>(index.lookup_slow_paths()), 1);
  report->Set("serve.index.plans_applied",
              static_cast<double>(index.plans_applied()), 1);
  report->Set("serve.index.entries_migrated",
              static_cast<double>(index.entries_migrated()), 1);
  report->Set("serve.migration.settle_s",
              static_cast<double>(driver.settle.ns) / 1e9,
              driver.settle.calls);
  report->Set("dynamic.rebuild.published",
              static_cast<double>(mgr.rebuilds_published()), 1);
  report->Set("dynamic.rebuild.rejected",
              static_cast<double>(mgr.rebuilds_rejected()), 1);
  report->Set("dynamic.rebuild.s", static_cast<double>(driver.rebuild.ns) / 1e9,
              driver.rebuild.calls);
  report->Set("dynamic.rebalance.plans", static_cast<double>(driver.plans),
              driver.rebalance.calls);
  report->Set("dynamic.rebalance.s",
              static_cast<double>(driver.rebalance.ns) / 1e9,
              driver.rebalance.calls);
  if (args.trace) {
    spans.Append(driver.spans());
    WriteSpans(args, spans, report);
  }
  loop.Stop();
}

// ---------------------------------------------------------------------------

bool ParseUint(const char* s, uint64_t max, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  uint64_t v = 0;
  for (const char* p = s; *p; p++) {
    if (*p < '0' || *p > '9') return false;
    if (v > (max - static_cast<uint64_t>(*p - '0')) / 10) return false;
    v = v * 10 + static_cast<uint64_t>(*p - '0');
  }
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload point_email|scan_url|serve_drift "
               "--seed <n> --seconds <1..600> --trace <0|1> --out <dir>\n",
               argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  uint64_t seconds = 0, trace = 0;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (!std::strcmp(flag, "--workload")) {
      args.workload = value;
    } else if (!std::strcmp(flag, "--seed")) {
      have_seed = ParseUint(value, UINT64_MAX, &args.seed);
      if (!have_seed) return Usage(argv[0]);
    } else if (!std::strcmp(flag, "--seconds")) {
      if (!ParseUint(value, 600, &seconds) || seconds == 0)
        return Usage(argv[0]);
    } else if (!std::strcmp(flag, "--trace")) {
      if (!ParseUint(value, 1, &trace)) return Usage(argv[0]);
    } else if (!std::strcmp(flag, "--out")) {
      args.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_seed || seconds == 0 || args.out_dir.empty())
    return Usage(argv[0]);
  args.seconds = static_cast<unsigned>(seconds);
  args.trace = trace == 1;

  Report report;
  Fingerprint(&report);
  if (args.workload == "point_email") {
    RunPointEmail(args, &report);
  } else if (args.workload == "scan_url") {
    RunScanUrl(args, &report);
  } else if (args.workload == "serve_drift") {
    RunServeDrift(args, &report);
  } else {
    return Usage(argv[0]);
  }
  if (!report.Emit(args)) {
    std::fprintf(stderr, "perfbench: cannot write the detail file in %s\n",
                 args.out_dir.c_str());
    return 1;
  }
  return 0;
}
