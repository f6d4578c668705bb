// fp8qd: the resident quantization daemon (docs/SERVICE.md).
//
//   fp8qd [--socket=PATH] [--tcp-port=N] [--queue-max=N] [--workers=N]
//
// Listens on a Unix-domain socket (and optionally loopback TCP), accepts
// quantize/eval/tune jobs over the length-prefixed line-JSON protocol,
// and serves back per-job report JSON. --workers executor threads run
// jobs concurrently, each under its own observation domain, all fanning
// out over the one global thread pool (docs/SERVICE.md, "Admission,
// priorities, deadlines, workers").
// Flags override the FP8QD_* environment knobs (FP8QD_SOCKET,
// FP8QD_TCP_PORT, FP8QD_QUEUE_MAX, FP8QD_WORKERS). SIGINT/SIGTERM
// trigger a draining shutdown: queued jobs finish, new submits are
// rejected with code "draining", then the process exits.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "service/server.h"

namespace {

fp8q::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage() {
  std::fprintf(stderr,
               "usage: fp8qd [--socket=PATH] [--tcp-port=N] [--queue-max=N] "
               "[--workers=N]\n"
               "  --socket=PATH    Unix-domain socket path (FP8QD_SOCKET; default "
               "fp8qd.sock)\n"
               "  --tcp-port=N     also listen on 127.0.0.1:N; 0 = ephemeral "
               "(FP8QD_TCP_PORT)\n"
               "  --queue-max=N    admission-queue capacity (FP8QD_QUEUE_MAX; default "
               "64)\n"
               "  --workers=N      concurrent executor workers sharing the thread pool, "
               "1-64 (FP8QD_WORKERS; default 1)\n");
  return 2;
}

bool parse_flag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  fp8q::service::ServerOptions options;
  try {
    using fp8q::service::parse_whole_number;
    options = fp8q::service::options_from_env();
    for (int i = 1; i < argc; ++i) {
      const char* value = nullptr;
      if (parse_flag(argv[i], "--socket", &value)) {
        options.unix_path = value;
      } else if (parse_flag(argv[i], "--tcp-port", &value)) {
        options.tcp_port = parse_whole_number("--tcp-port", value);
      } else if (parse_flag(argv[i], "--queue-max", &value)) {
        options.queue_max = static_cast<std::size_t>(parse_whole_number("--queue-max", value, 1));
      } else if (parse_flag(argv[i], "--workers", &value)) {
        options.workers = parse_whole_number("--workers", value, 1);
      } else {
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8qd: %s\n", e.what());
    return 2;
  }

  try {
    fp8q::service::Server server(options);
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    std::fprintf(stderr, "[fp8qd] listening on %s", server.unix_path().c_str());
    if (server.tcp_port() >= 0) {
      std::fprintf(stderr, " and 127.0.0.1:%d", server.tcp_port());
    }
    const int workers = server.stats_snapshot().workers;  // clamped to [1, 64]
    std::fprintf(stderr, " (queue capacity %zu, %d worker%s)\n",
                 static_cast<std::size_t>(options.queue_max), workers,
                 workers == 1 ? "" : "s");

    server.run();

    const fp8q::service::ServiceStats stats = server.stats_snapshot();
    std::fprintf(stderr,
                 "[fp8qd] shut down after %.1f s: %llu submitted, %llu completed, "
                 "%llu failed, %llu cancelled, %llu expired, %llu rejected\n",
                 static_cast<double>(stats.uptime_ns) / 1e9,
                 static_cast<unsigned long long>(stats.submitted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.failed),
                 static_cast<unsigned long long>(stats.cancelled),
                 static_cast<unsigned long long>(stats.expired),
                 static_cast<unsigned long long>(stats.rejected));
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fp8qd: %s\n", e.what());
    return 1;
  }
  return 0;
}
