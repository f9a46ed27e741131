// she_server — run the SHE sketch service.
//
//   she_server [--host A.B.C.D] [--port N] [--http-port N]
//              [--checkpoint-root DIR] [--checkpoint-keep K]
//              [--resume] [--max-conns N] [--flush-timeout-ms N]
//
// Prints one machine-parseable line per listener once bound:
//
//   she_server listening proto=<port> http=<port>
//
// then serves until SIGTERM/SIGINT or a SHUTDOWN request, checkpointing
// every pipeline on the way down.  Exit code 0 on a clean shutdown.
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common/fault_injection.hpp"
#include "server/server.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace {

void usage(std::ostream& os) {
  os << "usage: she_server [options]\n"
        "  --host ADDR            IPv4 listen address (default 127.0.0.1)\n"
        "  --port N               protocol port (default 7070; 0 = "
        "ephemeral)\n"
        "  --http-port N          /metrics + /healthz port (default 7071;\n"
        "                         0 = ephemeral, -1 = disabled)\n"
        "  --checkpoint-root DIR  durable state root (default: none)\n"
        "  --checkpoint-keep K    frame generations kept per shard "
        "(default 1)\n"
        "  --resume               resume pipelines found under the root\n"
        "  --max-conns N          concurrent protocol connections "
        "(default 256)\n"
        "  --flush-timeout-ms N   FLUSH/SAVE barrier bound (default "
        "10000)\n"
        "  --trace                collect request/pipeline spans; export "
        "via\n"
        "                         GET /trace[?ms=N] (Chrome trace JSON)\n"
        "  --trace-sample N       with --trace, record spans for 1 in N\n"
        "                         requests (default 1 = every request)\n"
        "  --slow-ms N            log requests slower than N ms with a "
        "span\n"
        "                         breakdown (default 0 = off)\n"
        "  --wal-mode MODE        backlog-log default for durable pipelines:\n"
        "                         off | async | fsync (default off; needs\n"
        "                         --checkpoint-root)\n"
        "  --wal-fsync-bytes N    group-commit bound for --wal-mode fsync:\n"
        "                         fdatasync at least every N appended bytes\n"
        "                         (default 0 = every append)\n"
        "  --auth-token-file F    require AUTH with a token from F (one per\n"
        "                         line) before any other op\n"
        "  --request-deadline-ms N  shed requests still working after N ms\n"
        "                         with status timeout (default 0 = off)\n"
        "  --max-inflight N       global concurrent-request cap; excess is\n"
        "                         answered overloaded (default 0 = off)\n"
        "  --max-inflight-per-client N  same cap per authenticated client\n"
        "  --bytes-per-sec N      global request-byte budget; excess is\n"
        "                         answered overloaded (default 0 = off)\n"
        "  --bytes-per-sec-per-client N  same budget per authenticated "
        "client\n"
        "  --inject SPEC          arm a fault-injection spec "
        "(point[:shard[:at[:param]]]);\n"
        "                         repeatable; point throw|stall|ckpt-bitflip|\n"
        "                         ckpt-truncate|ckpt-eio|wal-torn|wal-partial|\n"
        "                         wal-short-fsync|wal-enospc\n"
        "  --role ROLE            primary (default) or standby; standby\n"
        "                         follows --follow, serves reads, answers\n"
        "                         writes read_only until PROMOTE/SIGUSR2\n"
        "  --follow HOST:PORT     primary endpoint to replicate from\n"
        "                         (repeatable or comma-separated; requires\n"
        "                         --role standby and --checkpoint-root)\n"
        "  --follow-token TOK     AUTH token presented to the primary\n"
        "  --help\n";
}

bool parse_u64(const char* s, std::uint64_t* out) {
  try {
    std::size_t end = 0;
    *out = std::stoull(s, &end);
    return end == std::strlen(s);
  } catch (const std::exception&) {
    return false;
  }
}

bool parse_i64(const char* s, long long* out) {
  try {
    std::size_t end = 0;
    *out = std::stoll(s, &end);
    return end == std::strlen(s);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Keep glibc's mmap threshold at its 128 KiB default.  Left dynamic, it
  // rises to the largest mapped block freed so far (a WAL segment read at
  // CREATE or resume is megabytes) and the trim threshold doubles with it,
  // after which every thread's arena keeps its peak resident for good.  The
  // server's large blocks are transient buffers (estimator cells live in
  // pooled frames, common/paged_array.hpp), so they go back to the system.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  she::server::ServerOptions opt;
  opt.port = 7070;
  opt.http_port = 7071;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "she_server: " << arg << " requires a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    std::uint64_t u = 0;
    long long ll = 0;
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    } else if (arg == "--host") {
      opt.host = value();
    } else if (arg == "--port") {
      if (!parse_u64(value(), &u) || u > 65535) {
        std::cerr << "she_server: bad --port\n";
        return 2;
      }
      opt.port = static_cast<std::uint16_t>(u);
    } else if (arg == "--http-port") {
      if (!parse_i64(value(), &ll) || ll < -1 || ll > 65535) {
        std::cerr << "she_server: bad --http-port\n";
        return 2;
      }
      opt.http_port = static_cast<int>(ll);
    } else if (arg == "--checkpoint-root") {
      opt.manager.checkpoint_root = value();
    } else if (arg == "--checkpoint-keep") {
      if (!parse_u64(value(), &u) || u == 0) {
        std::cerr << "she_server: bad --checkpoint-keep (want >= 1)\n";
        return 2;
      }
      opt.manager.checkpoint_keep = u;
    } else if (arg == "--resume") {
      opt.manager.resume = true;
    } else if (arg == "--max-conns") {
      if (!parse_u64(value(), &u) || u == 0) {
        std::cerr << "she_server: bad --max-conns\n";
        return 2;
      }
      opt.max_connections = u;
    } else if (arg == "--flush-timeout-ms") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --flush-timeout-ms\n";
        return 2;
      }
      opt.flush_timeout_ms = u;
    } else if (arg == "--trace") {
      opt.enable_tracing = true;
    } else if (arg == "--trace-sample") {
      if (!parse_u64(value(), &u) || u == 0) {
        std::cerr << "she_server: bad --trace-sample (want >= 1)\n";
        return 2;
      }
      opt.trace_sample = u;
    } else if (arg == "--slow-ms") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --slow-ms\n";
        return 2;
      }
      opt.slow_request_ms = u;
    } else if (arg == "--wal-mode") {
      try {
        opt.manager.default_wal_mode = she::wal_mode_from(value());
      } catch (const std::exception& e) {
        std::cerr << "she_server: " << e.what() << "\n";
        return 2;
      }
    } else if (arg == "--wal-fsync-bytes") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --wal-fsync-bytes\n";
        return 2;
      }
      opt.manager.wal_fsync_bytes = static_cast<std::size_t>(u);
    } else if (arg == "--auth-token-file") {
      opt.auth_token_file = value();
    } else if (arg == "--request-deadline-ms") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --request-deadline-ms\n";
        return 2;
      }
      opt.request_deadline_ms = u;
    } else if (arg == "--max-inflight") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --max-inflight\n";
        return 2;
      }
      opt.max_inflight = static_cast<std::size_t>(u);
    } else if (arg == "--max-inflight-per-client") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --max-inflight-per-client\n";
        return 2;
      }
      opt.max_inflight_per_client = static_cast<std::size_t>(u);
    } else if (arg == "--bytes-per-sec") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --bytes-per-sec\n";
        return 2;
      }
      opt.bytes_per_sec = u;
    } else if (arg == "--bytes-per-sec-per-client") {
      if (!parse_u64(value(), &u)) {
        std::cerr << "she_server: bad --bytes-per-sec-per-client\n";
        return 2;
      }
      opt.bytes_per_sec_per_client = u;
    } else if (arg == "--role") {
      opt.role = value();
    } else if (arg == "--follow") {
      // Repeatable, and each value may carry a comma-separated list.
      std::string list = value();
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string one =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!one.empty()) opt.follow.push_back(one);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (arg == "--follow-token") {
      opt.follow_token = value();
    } else if (arg == "--inject") {
      try {
        she::fault::injector().arm(she::fault::parse_spec(value()));
      } catch (const std::exception& e) {
        std::cerr << "she_server: bad --inject: " << e.what() << "\n";
        return 2;
      }
    } else {
      std::cerr << "she_server: unknown option " << arg << "\n";
      usage(std::cerr);
      return 2;
    }
  }
  if (opt.manager.resume && opt.manager.checkpoint_root.empty()) {
    std::cerr << "she_server: --resume requires --checkpoint-root\n";
    return 2;
  }
  if (opt.manager.default_wal_mode != she::WalMode::kOff &&
      opt.manager.checkpoint_root.empty()) {
    std::cerr << "she_server: --wal-mode requires --checkpoint-root\n";
    return 2;
  }
  if (opt.role == "standby" && opt.manager.checkpoint_root.empty()) {
    std::cerr << "she_server: --role standby requires --checkpoint-root "
                 "(bootstrap lands the primary's files there)\n";
    return 2;
  }

  try {
    const std::string role = opt.role;
    she::server::SheServer server(std::move(opt));
    server.start();
    server.install_signal_handlers();
    std::cout << "she_server listening proto=" << server.port()
              << " http=" << server.http_port() << " role=" << role
              << std::endl;
    server.wait();
  } catch (const std::exception& e) {
    std::cerr << "she_server: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
