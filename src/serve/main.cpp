// hm_serve: the supervised multi-campaign tuning daemon.
//
//   ./hm_serve --dir campaigns/ [--socket /tmp/hm_serve.sock | --port N]
//              [--max-campaigns N] [--max-connections N]
//              [--idle-timeout SECONDS] [--pool N] [--auto-resume]
//              [--port-file PATH]
//              [--http-port N] [--http-port-file PATH]
//              [--flight-dump PATH] [--trace PATH] [--metrics PATH]
//
// --http-port exposes the live observability endpoint (GET /metrics,
// /status, /events on loopback; 0 picks an ephemeral port written to
// --http-port-file). --flight-dump names the flight-recorder JSON written
// on drain and — via the crash-signal handler — on SIGSEGV and friends.
//
// Clients connect over the UNIX socket (or loopback TCP), submit JSON
// scenarios (see serve/scenario.hpp for the schema), and receive progress
// frames and the final report. Campaigns journal into --dir; kill -9 the
// daemon mid-campaign, restart it on the same --dir, and a client `resume`
// continues every unfinished campaign to a byte-identical report.
//
// Exit codes: 0 after stop, 130 after a SIGINT/SIGTERM drain (the repo-wide
// cooperative-shutdown code — every driver binary agrees), 1 on startup
// failure.
#include <cstdio>
#include <string>

#include "common/atomic_file.hpp"
#include "common/cli.hpp"
#include "common/flight_recorder.hpp"
#include "common/log.hpp"
#include "common/signal.hpp"
#include "observability.hpp"
#include "serve/server.hpp"

int main(int argc, char** argv) {
  using namespace hm;
  const common::CliArgs args(argc, argv, {"auto-resume"});
  // Daemon logs always carry the ISO-8601 + thread-id prefix (campaign-
  // tagged via the per-evaluation log context), with or without --trace.
  common::set_log_format(common::LogFormat::kTimestamped);
  const auto observability = examples::Observability::from_args(args);
  const std::int64_t port = args.get_or("port", std::int64_t{0});
  const std::int64_t http_port = args.get_or("http-port", std::int64_t{-1});
  if (port < 0 || port > 65535 || http_port < -1 || http_port > 65535) {
    common::log_error() << "hm_serve: --port and --http-port must be in "
                           "[0, 65535]";
    return 1;
  }
  serve::ServerConfig config;
  config.journal_dir = args.get_or("dir", std::string("campaigns"));
  config.socket_path = args.get_or("socket", std::string());
  config.tcp_port = static_cast<std::uint16_t>(port);
  config.max_campaigns =
      static_cast<std::size_t>(args.get_or("max-campaigns", std::int64_t{4}));
  config.max_connections = static_cast<std::size_t>(
      args.get_or("max-connections", std::int64_t{32}));
  config.client_idle_seconds = args.get_or("idle-timeout", 30.0);
  config.pool_threads =
      static_cast<std::size_t>(args.get_or("pool", std::int64_t{0}));
  config.auto_resume = args.flag("auto-resume");
  config.http_port = static_cast<int>(http_port);
  config.flight_dump_path = args.get_or("flight-dump", std::string());

  if (!common::install_shutdown_handler()) {
    common::log_warn() << "hm_serve: cannot install signal handlers";
  }
  if (!config.flight_dump_path.empty()) {
    common::install_crash_recorder(config.flight_dump_path);
  }

  serve::Server server(std::move(config));
  std::string error;
  if (!server.start(&error)) {
    common::log_error() << "hm_serve: " << error;
    return 1;
  }
  if (const auto port_file = args.get("port-file")) {
    // Atomic: a watcher (serve.sh) never reads a torn port number.
    if (!common::write_file_atomic(*port_file,
                                   std::to_string(server.port()) + "\n",
                                   &error)) {
      common::log_error() << "hm_serve: cannot write " << *port_file << ": "
                          << error;
      return 1;
    }
  }
  if (const auto http_port_file = args.get("http-port-file")) {
    if (!common::write_file_atomic(
            *http_port_file, std::to_string(server.http_port()) + "\n",
            &error)) {
      common::log_error() << "hm_serve: cannot write " << *http_port_file
                          << ": " << error;
      return 1;
    }
  }
  std::printf("hm_serve: listening on %s\n",
              args.has("socket")
                  ? args.get_or("socket", std::string()).c_str()
                  : ("127.0.0.1:" + std::to_string(server.port())).c_str());
  std::fflush(stdout);
  const int code = server.run();
  (void)observability.finish(nullptr);
  return code;
}
