// she_server wire-protocol throughput and query latency.
//
// Starts an in-process SheServer on an ephemeral port and drives it over
// real TCP connections, the way deployed clients would:
//
//   * bulk-insert throughput — K client threads, each streaming
//     INSERT_BULK chunks into one shared pipeline, at K = 1 / 4 / 16;
//     reports aggregate accepted items/s (the protocol + commit-lane
//     cost on top of the raw pipeline numbers in BENCH_pipeline.json),
//   * query latency — K clients issuing frequency queries against the
//     shards' shared published views while the pipeline holds a full
//     window; reports per-request p50/p99 wall latency.
//
// Each row is emitted as JSON and the whole run lands in
// BENCH_server.json so CI can diff runs across hosts.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "server/client.hpp"
#include "server/server.hpp"

namespace she::bench {
namespace {

using server::SheClient;
using server::SheServer;
using server::ServerOptions;

constexpr std::uint64_t kInsertItems = 2'000'000;  ///< total, split across clients
constexpr std::size_t kBulkChunk = 8192;           ///< keys per INSERT_BULK frame
constexpr std::size_t kQueriesPerClient = 20'000;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

/// The shared pipeline every run talks to: four shards, so 16 handler
/// threads spread over four commit lanes.
std::string spec() {
  return "window=64K memory=1M shards=4 queue=8192";
}

double insert_run(SheServer& server, std::size_t clients,
                  const stream::Trace& trace,
                  const std::string& extra_spec = "") {
  const std::string name = "bench-ins-" + std::to_string(clients) +
                           (extra_spec.empty() ? "" : "-wal");
  SheClient admin("127.0.0.1", server.port());
  admin.create(name, spec() + extra_spec);

  std::atomic<std::uint64_t> accepted{0};
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      SheClient cl("127.0.0.1", server.port());
      const std::size_t lo = trace.size() * c / clients;
      const std::size_t hi = trace.size() * (c + 1) / clients;
      std::uint64_t acc = 0;
      for (std::size_t i = lo; i < hi; i += kBulkChunk) {
        const std::size_t n = std::min(kBulkChunk, hi - i);
        acc += cl.insert_bulk(
            name, std::span<const std::uint64_t>(trace.data() + i, n));
      }
      accepted.fetch_add(acc, std::memory_order_relaxed);
    });
  }
  for (auto& t : pool) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  admin.drop(name);
  return static_cast<double>(accepted.load()) / secs;
}

struct LatencyResult {
  double p50_us = 0;
  double p99_us = 0;
  double queries_per_sec = 0;
};

LatencyResult query_run(SheServer& server, std::size_t clients,
                        const stream::Trace& trace) {
  const std::string name = "bench-qry-" + std::to_string(clients);
  SheClient admin("127.0.0.1", server.port());
  admin.create(name, spec());
  // Fill a full window so queries touch realistic sketch state.
  for (std::size_t i = 0; i < (64u << 10); i += kBulkChunk) {
    (void)admin.insert_bulk(
        name, std::span<const std::uint64_t>(trace.data() + i, kBulkChunk));
  }
  admin.flush(name);

  std::vector<std::vector<double>> lat_us(clients);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&, c] {
      SheClient cl("127.0.0.1", server.port());
      auto& lat = lat_us[c];
      lat.reserve(kQueriesPerClient);
      for (std::size_t q = 0; q < kQueriesPerClient; ++q) {
        const auto q0 = std::chrono::steady_clock::now();
        (void)cl.query_frequency(name, trace[(c * 7919 + q) % trace.size()]);
        lat.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - q0)
                          .count());
      }
    });
  }
  for (auto& t : pool) t.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  admin.drop(name);

  std::vector<double> all;
  all.reserve(clients * kQueriesPerClient);
  for (const auto& v : lat_us) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  LatencyResult r;
  r.p50_us = all[all.size() / 2];
  r.p99_us = all[all.size() * 99 / 100];
  r.queries_per_sec = static_cast<double>(all.size()) / secs;
  return r;
}

void write_report(const std::string& path,
                  const std::vector<std::string>& rows) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  os << "{\n  \"schema_version\": 1,\n  \"bench\": \"server_throughput\",\n"
     << "  \"insert_items\": " << kInsertItems << ",\n"
     << "  \"queries_per_client\": " << kQueriesPerClient << ",\n"
     << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ",\n  \"runs\": [\n    ";
  for (std::size_t i = 0; i < rows.size(); ++i)
    os << (i ? ",\n    " : "") << rows[i];
  os << "\n  ]\n}\n";
  std::printf("\nwrote %s\n", path.c_str());
}

void run_all(const std::string& out_path) {
  // A durable root lets the WAL rows run on the same server; pipelines
  // without wal= in their spec never touch it.
  const auto wal_root =
      std::filesystem::temp_directory_path() / "she_bench_server_wal";
  std::filesystem::remove_all(wal_root);
  ServerOptions opt;
  opt.http_port = -1;  // protocol only; /metrics costs nothing when off
  opt.manager.checkpoint_root = wal_root.string();
  SheServer server(std::move(opt));
  server.start();
  auto trace = caida_like(kInsertItems);

  std::vector<std::string> rows;
  Table ins_table({"clients", "insert Mitems/s"});
  Table wal_table({"wal", "insert Mitems/s"});
  Table qry_table({"clients", "q/s", "p50 us", "p99 us"});
  for (std::size_t clients : {1u, 4u, 16u}) {
    const double ips = insert_run(server, clients, trace);
    ins_table.add(clients, fmt(ips / 1e6));
    std::ostringstream row;
    row << "{\"mode\":\"insert\",\"clients\":" << clients
        << ",\"items_per_sec\":" << ips << "}";
    rows.push_back(row.str());
    std::printf("JSON %s\n", row.str().c_str());
  }
  // The durability tax: the same 4-client bulk-insert load with the
  // write-ahead backlog log off vs group-committed fsync (1 MiB interval).
  for (const char* wal : {"off", "fsync"}) {
    const bool on = std::string_view(wal) == "fsync";
    const double ips = insert_run(
        server, 4, trace, on ? " wal=fsync wal-fsync-bytes=1M" : "");
    wal_table.add(wal, fmt(ips / 1e6));
    std::ostringstream row;
    row << "{\"mode\":\"insert_wal\",\"wal\":\"" << wal
        << "\",\"clients\":4,\"items_per_sec\":" << ips << "}";
    rows.push_back(row.str());
    std::printf("JSON %s\n", row.str().c_str());
  }
  for (std::size_t clients : {1u, 4u, 16u}) {
    const LatencyResult r = query_run(server, clients, trace);
    qry_table.add(clients, fmt(r.queries_per_sec), fmt(r.p50_us),
                  fmt(r.p99_us));
    std::ostringstream row;
    row << "{\"mode\":\"query\",\"clients\":" << clients
        << ",\"queries_per_sec\":" << r.queries_per_sec
        << ",\"p50_us\":" << r.p50_us << ",\"p99_us\":" << r.p99_us << "}";
    rows.push_back(row.str());
    std::printf("JSON %s\n", row.str().c_str());
  }
  ins_table.print(std::cout);
  wal_table.print(std::cout);
  qry_table.print(std::cout);
  server.request_stop();
  server.stop();
  std::filesystem::remove_all(wal_root);
  write_report(out_path, rows);
}

}  // namespace
}  // namespace she::bench

int main(int argc, char** argv) {
  she::bench::banner(
      "Server throughput — she_server over TCP",
      "Bulk-insert items/s and query latency percentiles at 1/4/16 "
      "concurrent protocol clients against one shared pipeline.");
  she::bench::run_all(argc > 1 ? argv[1] : "BENCH_server.json");
  return 0;
}
