// perfbench — the repository benchmark's binary.
//
//   perfbench --workload im-rmat|sem-rmat|dynamic-mixed --seed N
//             --seconds S --trace 0|1 [--scale K]
//             [--out-dir DIR] [--commit C] [--source-digest D]
//             [--corrupt-labels]
//   perfbench --selftest
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. The line before it is a report carrying the host/build/
// input stamp and the workload-specific figures. A traced run also writes
// its spans and per-layer self times to DIR. Any failed check exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(ms[i].name) + ": {\"value\": " + json_num(ms[i].value) +
           ", \"unit\": " + json_str(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string stamp_json(const stamp& s) {
  std::string out = "{";
  for (std::size_t i = 0; i < s.fields.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_str(s.fields[i].first) + ": " + json_str(s.fields[i].second);
  }
  return out + "}";
}

void write_spans(const run_args& a, const stamp& st, const tracer& tr) {
  const auto spans = tr.spans();
  const auto self = self_time_by_layer(spans);
  std::filesystem::create_directories(a.out_dir);
  const std::string path = a.out_dir + "/" + a.workload + "-seed" +
                           std::to_string(a.seed) + ".spans.json";
  std::ofstream out(path);
  out << "{\"stamp\": " << stamp_json(st) << ",\n\"self_time_s\": {";
  bool first = true;
  for (const auto& [layer, secs] : self) {
    out << (first ? "" : ", ") << json_str(layer) << ": " << json_num(secs);
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i
        << ", \"name\": " << json_str(s.name)
        << ", \"layer\": " << json_str(s.layer)
        << ", \"request\": " << s.request << ", \"parent\": " << s.parent
        << ", \"start\": " << json_num(s.start)
        << ", \"end\": " << json_num(s.end) << "}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
  std::printf("spans: %s (%zu spans)\n", path.c_str(), spans.size());
  std::printf("self time by layer (s):");
  for (const auto& [layer, secs] : self) {
    std::printf(" %s=%.4f", layer.c_str(), secs);
  }
  std::printf("\n");
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N "
               "--seconds S --trace 0|1 [--scale K] "
               "[--out-dir D] [--commit C] [--source-digest D] "
               "[--corrupt-labels] | --selftest\n",
               why.c_str());
  std::exit(2);
}

run_args parse(int argc, char** argv) {
  run_args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--corrupt-labels") {
      a.corrupt_labels = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        a.workload = v;
      } else if (k == "--seed") {
        a.seed = std::stoull(v);
      } else if (k == "--seconds") {
        a.seconds = std::stod(v);
      } else if (k == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (k == "--scale") {
        a.scale = static_cast<unsigned>(std::stoul(v));
      } else if (k == "--out-dir") {
        a.out_dir = v;
      } else if (k == "--commit") {
        a.commit = v;
      } else if (k == "--source-digest") {
        a.source_digest = v;
      } else {
        usage("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (a.seconds <= 0.0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--selftest") {
    const int bad = selftest();
    std::printf("selftest: %s\n", bad == 0 ? "ok" : "FAILED");
    return bad == 0 ? 0 : 1;
  }
  const run_args a = parse(argc, argv);
  gate g;
  tracer tr(a.trace);
  workload_result r;
  try {
    if (a.workload == "im-rmat") {
      r = run_im_rmat(a, g, tr);
    } else if (a.workload == "sem-rmat") {
      r = run_sem_rmat(a, g, tr);
    } else if (a.workload == "dynamic-mixed") {
      r = run_dynamic_mixed(a, g, tr);
    } else {
      usage("unknown workload '" + a.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 2;
  }

  stamp st = host_stamp(a);
  st.fields.insert(st.fields.end(), r.info.fields.begin(),
                   r.info.fields.end());
  for (const auto& why : g.reasons()) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
  if (a.trace) write_spans(a, st, tr);

  std::vector<metric> report = r.end_to_end;
  report.insert(report.end(), r.report_only.begin(), r.report_only.end());
  report.push_back({"failed_frac",
                    g.attempted() == 0
                        ? 1.0
                        : static_cast<double>(g.failed()) /
                              static_cast<double>(g.attempted()),
                    "ratio"});
  std::printf("{\"stamp\": %s, \"report\": %s}\n", stamp_json(st).c_str(),
              metrics_json(report).c_str());
  const bool correct = g.failed() == 0 && g.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(g.attempted()),
              static_cast<unsigned long long>(g.failed()),
              metrics_json(a.trace ? per_layer_metrics(r.per_layer)
                                   : r.end_to_end)
                  .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
