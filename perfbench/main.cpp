// The repo benchmark.  Usage:
//
//   wafl_perfbench --workload <ssd_overwrite|multivol_intake|failover>
//                  --seed <n> --seconds <s> --trace <0|1>
//
// Prints `info` context lines and one `metric <name> = <value> <unit>`
// line per metric, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} with every end-to-end
// metric (--trace 0) or every per-layer metric (--trace 1).  Exits 1 when
// a correctness check or a client op failed, 2 on bad usage or an error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "%s\nusage: wafl_perfbench --workload "
               "<ssd_overwrite|multivol_intake|failover> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  perfbench::Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else {
      return usage(("unknown option " + k).c_str());
    }
  }
  if (argc % 2 != 1) return usage("options take one value each");
  if (!(o.seconds > 0 && o.seconds <= 120)) return usage("bad --seconds");

  perfbench::Result res;
  try {
    if (o.workload == "ssd_overwrite") {
      perfbench::run_ssd_overwrite(o, res);
    } else if (o.workload == "multivol_intake") {
      perfbench::run_multivol_intake(o, res);
    } else if (o.workload == "failover") {
      perfbench::run_failover(o, res);
    } else {
      return usage(("unknown workload '" + o.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "benchmark error: %s\n", e.what());
    return 2;
  }
  std::fflush(stdout);
  if (!res.emit_json(o.trace ? perfbench::per_layer_names()
                             : perfbench::end_to_end_names())) {
    return 2;
  }
  return res.correct() ? 0 : 1;
}
