#include "bench/bench_util.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>

#include "common/logging.h"
#include "obs/trace_analysis.h"

namespace dmrpc::bench {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::AddRow(std::vector<std::string> cells) {
  DMRPC_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::Print() const {
  std::vector<size_t> widths(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title_.c_str());
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), columns_[c].c_str());
  }
  std::printf("\n");
  for (size_t c = 0; c < columns_.size(); ++c) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

std::string Table::Num(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string Table::Int(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

BenchEnv BenchEnv::FromEnv() {
  BenchEnv env;
  if (const char* s = std::getenv("DMRPC_BENCH_SCALE")) {
    double v = std::atof(s);
    if (v > 0.0) env.scale = v;
  }
  return env;
}

namespace {

/// Executable base name, used to name the sidecar files.
std::string BenchName() {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "bench";
  buf[n] = '\0';
  std::string path(buf);
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Keeps labels filesystem-safe.
std::string SanitizeLabel(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Label -> metrics JSON, in Record() order; flushed by an atexit hook so
/// a bench's several runs land in one file.
std::vector<std::pair<std::string, std::string>>& PendingRuns() {
  static std::vector<std::pair<std::string, std::string>> runs;
  return runs;
}

void WriteMetricsSidecar(bool announce) {
  auto& runs = PendingRuns();
  if (runs.empty()) return;
  std::string path;
  if (const char* p = std::getenv("DMRPC_METRICS_PATH")) {
    path = p;
  } else {
    path = BenchName() + ".metrics.json";
  }
  std::ofstream out(path);
  if (!out) {
    LOG_WARN << "cannot write metrics sidecar " << path;
    return;
  }
  out << "{\"bench\":\"" << JsonEscape(BenchName()) << "\",\"runs\":{";
  for (size_t i = 0; i < runs.size(); ++i) {
    if (i > 0) out << ",";
    out << "\"" << JsonEscape(runs[i].first) << "\":" << runs[i].second;
  }
  out << "}}\n";
  if (announce) {
    std::printf("[obs] wrote %s (%zu runs)\n", path.c_str(), runs.size());
  }
}

void AnnounceMetricsSidecar() { WriteMetricsSidecar(/*announce=*/true); }

}  // namespace

void BenchObs::Arm(sim::Simulation* sim) {
  if (std::getenv("DMRPC_TRACE_DIR") != nullptr) {
    sim->tracer().set_enabled(true);
    // A bench run records a few records per request across every layer;
    // the default limit sheds records on the bigger scenarios, which
    // truncates span trees and turns the breakdown's status to PROBLEMS.
    // 8M records covers the largest fig* run at CI scale with headroom.
    sim->tracer().set_limit(size_t{1} << 23);
  }
  if (const char* us = std::getenv("DMRPC_TIMELINE_US")) {
    long long v = std::atoll(us);
    if (v > 0) {
      obs::TimelineConfig cfg;
      cfg.interval_ns = static_cast<TimeNs>(v) * kMicrosecond;
      sim->EnableTimeline(cfg);
    }
  }
}

void BenchObs::Record(const std::string& label, sim::Simulation* sim) {
  auto& runs = PendingRuns();
  if (runs.empty()) std::atexit(AnnounceMetricsSidecar);
  runs.emplace_back(label, sim->DumpMetricsJson());
  // Rewritten after every run (not only at exit) so the runs recorded so
  // far survive a later scenario aborting the process.
  WriteMetricsSidecar(/*announce=*/false);

  const char* dir = std::getenv("DMRPC_TRACE_DIR");
  if (dir != nullptr && !sim->tracer().records().empty()) {
    std::string base =
        std::string(dir) + "/" + BenchName() + "_" + SanitizeLabel(label);
    std::string path = base + ".trace.json";
    std::ofstream out(path);
    if (out) {
      sim->tracer().WriteChromeTrace(out);
      std::printf("[obs] wrote %s (%zu events)\n", path.c_str(),
                  sim->tracer().records().size());
    } else {
      LOG_WARN << "cannot write trace " << path;
    }
    // Per-run latency-breakdown sidecar: span trees reconstructed from
    // this run's records, critical paths attributed per layer and hop.
    obs::TraceAnalysis analysis;
    analysis.AddRecords(sim->tracer().records(), sim->tracer().dropped());
    analysis.Build();
    std::string report_path = base + ".breakdown.txt";
    std::ofstream report(report_path);
    if (report) {
      report << analysis.TextReport();
      std::printf("[obs] wrote %s\n", report_path.c_str());
    } else {
      LOG_WARN << "cannot write breakdown " << report_path;
    }
    sim->tracer().Clear();
  }

  if (sim->timeline().enabled() && !sim->timeline().windows().empty()) {
    const char* tl_dir = std::getenv("DMRPC_TIMELINE_DIR");
    std::string base = (tl_dir != nullptr ? std::string(tl_dir) + "/" : "") +
                       BenchName() + "_" + SanitizeLabel(label);
    std::string tl_path = base + ".timeline.jsonl";
    std::ofstream tl(tl_path);
    if (tl) {
      tl << sim->timeline().ToJsonLines();
      std::printf("[obs] wrote %s (%zu windows)\n", tl_path.c_str(),
                  sim->timeline().windows().size());
    } else {
      LOG_WARN << "cannot write timeline " << tl_path;
    }
    std::string ct_path = base + ".counters.json";
    std::ofstream ct(ct_path);
    if (ct) {
      sim->timeline().WriteCounterTrack(ct);
    } else {
      LOG_WARN << "cannot write counter track " << ct_path;
    }
    // Windows already serialized must not leak into the next labelled
    // run's sidecar (the boundary grid itself stays armed).
    sim->timeline().Clear();
  }
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace dmrpc::bench
