// perfbench_massf: runs one experiment of one benchmark workload and prints
// its record as one JSON object on stdout. run.py drives it (README.md).
//
//   perfbench_massf --workload <name> --seed <n> [--trace] [--smoke]
//
// Exit status: 0 when the run finished (its checks may still have failed;
// the record says), 1 on a usage error, an exception, or a non-Release
// build, which must not record wall time.
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/common.hpp"
#include "des/kernel.hpp"
#include "trace.hpp"
#include "util/log.hpp"
#include "workloads.hpp"

namespace {

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

void print_record(const perfbench::Options& options,
                  const perfbench::Record& record,
                  const perfbench::Tracer& tracer) {
  // A workload may set up several times (lb-threaded); setup_s is the
  // median, and wall_s is one set-up plus the measured run.
  const double setup_s = tracer.median_duration("setup");
  const double emulate_s = tracer.duration("emulate");
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"workload\": " << quoted(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"traced\": " << (options.traced ? "true" : "false")
      << ", \"wall_s\": " << setup_s + emulate_s
      << ", \"setup_s\": " << setup_s << ", \"emulate_s\": " << emulate_s
      << ", \"peak_rss_bytes\": " << massf::bench::peak_rss_bytes()
      << ", \"load_imbalance\": " << record.load_imbalance
      << ", \"modeled_time_s\": " << record.modeled_time_s
      << ", \"failed_share\": " << record.failed_share
      << ", \"history_hash\": " << quoted(hex(record.history_hash))
      << ", \"threaded_history_hash\": "
      << quoted(hex(record.threaded_history_hash));
  out << ", \"stats\": {";
  const char* sep = "";
  for (const auto& [name, value] : record.stats) {
    out << sep << quoted(name) << ": " << value;
    sep = ", ";
  }
  out << "}, \"checks\": [";
  sep = "";
  for (const perfbench::Check& c : record.checks) {
    out << sep << "{\"name\": " << quoted(c.name)
        << ", \"ok\": " << (c.ok ? "true" : "false")
        << ", \"detail\": " << quoted(c.detail) << "}";
    sep = ", ";
  }
  out << "], \"spans\": [";
  sep = "";
  for (const perfbench::Span& s : tracer.spans()) {
    out << sep << "{\"name\": " << quoted(s.name)
        << ", \"layer\": " << quoted(s.layer) << ", \"parent\": " << s.parent
        << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
        << "}";
    sep = ", ";
  }
  out << "], \"context\": "
      << massf::bench::context_json(record.max_threads, "")
      // Every workload runs the default kernel tuning, and lb-threaded's
      // fault plan is hand-built (no plan seed).
      << ", \"run_config\": "
      << massf::bench::run_config_json(massf::des::KernelTuning{}, 0, "")
      << "}";
  // The stamp helpers emit multi-line blocks; the record is one line.
  std::string line = out.str();
  for (char& c : line)
    if (c == '\n') c = ' ';
  std::cout << line << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench_massf --workload <";
  const char* sep = "";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << sep << name;
    sep = "|";
  }
  std::cerr << "> --seed <n> [--trace] [--smoke]\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "perfbench_massf: refusing to record wall time from a "
               "non-Release build\n";
  return 1;
#endif
  massf::set_log_level(massf::LogLevel::Warn);
  try {
    perfbench::Options options;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--workload" && i + 1 < argc) {
        options.workload = argv[++i];
      } else if (arg == "--seed" && i + 1 < argc) {
        options.seed = std::stoull(argv[++i]);
      } else if (arg == "--trace") {
        options.traced = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        return usage();
      }
    }
    if (options.workload.empty()) return usage();

    perfbench::Tracer tracer(options.traced);
    const perfbench::Record record = perfbench::run_workload(options, tracer);
    print_record(options, record, tracer);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_massf: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
