// Reproduces paper §4.1 "Sequential Performance".
//
// The paper reports 2.10 M nodes/s on Topsail (Xeon E5345) and 2.39 M
// nodes/s on Kitty Hawk (Xeon E5150), noting the rate "primarily reflects
// the speed at which the processor can calculate SHA-1 hash evaluations".
// This bench measures (a) single-block SHA-1 throughput of the portable
// kernel and of the dispatched one (SHA-NI where the CPU has it), (b) the
// real sequential UTS rate on this machine, which uses the dispatched
// kernel, and (c) the virtual-time rate the simulator's cost model is
// calibrated to.
#include <cstdio>
#include <cstring>
#include <iostream>

#include "common.hpp"
#include "sha1/sha1.hpp"
#include "stats/table.hpp"
#include "uts/sequential.hpp"
#include "uts/tree.hpp"

using namespace upcws;
using benchutil::Mode;

namespace {

/// Single-block compressions per second through `compress`: one padded
/// 24-byte spawn message per call, the SHA-1 work of one UTS child. Each
/// digest seeds the next block.
double hashes_per_sec(sha1::Digest (*compress)(const std::uint8_t*),
                      double seconds_budget) {
  std::uint8_t block[64] = {};
  block[24] = 0x80;
  block[63] = 192;
  benchutil::Stopwatch sw;
  std::uint64_t n = 0;
  while (sw.seconds() < seconds_budget) {
    for (int i = 0; i < 256; ++i) {
      const sha1::Digest d = compress(block);
      std::memcpy(block, d.data(), d.size());
    }
    n += 256;
  }
  return static_cast<double>(n) / sw.seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const Mode mode = benchutil::mode_from_args(argc, argv);
  const uts::Params tree = mode == Mode::kQuick ? uts::scaled_bench(5)
                           : mode == Mode::kFull ? uts::scaled_large(1)
                                                 : uts::scaled_bench(0);

  benchutil::print_banner(
      "bench_seq_perf -- sequential UTS rate (paper Sect. 4.1)",
      "Topsail E5345: 2.10 M nodes/s; Kitty Hawk E5150: 2.39 M nodes/s; "
      "SGI Altix Itanium2: 1.12 M nodes/s",
      std::string("mode=") + benchutil::mode_name(mode) +
          " tree=" + tree.describe());

  benchutil::BenchReporter rep("bench_seq_perf", mode);

  stats::Table sha({"SHA-1 path", "kernel", "ns/hash", "hashes/s"});
  const struct {
    const char* row;
    const char* kernel;
    sha1::Digest (*compress)(const std::uint8_t*);
  } kernels[] = {
      {"sha1_portable", "portable", sha1::compress_block_portable},
      {"sha1_dispatched", sha1::kernel_name(), sha1::compress_block},
  };
  for (const auto& k : kernels) {
    const double hps = hashes_per_sec(k.compress, 0.2);
    sha.add_row({k.row, k.kernel, stats::Table::fmt(1e9 / hps, 1),
                 stats::Table::fmt(hps, 0)});
    rep.result(k.row)
        .metric("hashes_per_sec", hps)
        .metric("ns_per_hash", 1e9 / hps)
        .note("kernel", k.kernel);
  }
  std::printf("\nSHA-1 single-block throughput (this machine):\n");
  sha.print(std::cout);

  const auto r = uts::search_sequential(tree);
  if (!r) {
    std::printf("sequential search exceeded budget -- tree too large\n");
    return 1;
  }

  stats::Table t({"metric", "value"});
  t.add_row({"tree nodes", stats::Table::fmt(r->nodes)});
  t.add_row({"tree leaves", stats::Table::fmt(r->leaves)});
  t.add_row({"max depth", stats::Table::fmt(r->max_depth)});
  t.add_row({"max DFS stack", stats::Table::fmt(
                                  static_cast<std::uint64_t>(r->max_stack))});
  t.add_row({"elapsed s", stats::Table::fmt(r->seconds, 3)});
  t.add_row({"SHA-1 kernel", sha1::kernel_name()});
  t.add_row({"measured M nodes/s (real)",
             stats::Table::fmt(r->nodes_per_sec() / 1e6, 2)});
  t.add_row({"simulator-calibrated M nodes/s (450 ns/node)",
             stats::Table::fmt(1e3 / 450.0, 2)});
  t.add_row({"paper Topsail M nodes/s", "2.10"});
  t.add_row({"paper Kitty Hawk M nodes/s", "2.39"});
  std::printf("\nSequential UTS traversal:\n");
  t.print(std::cout);

  rep.result("seq_uts")
      .metric("nodes", static_cast<double>(r->nodes))
      .metric("wall_s", r->seconds)
      .metric("nodes_per_sec", r->nodes_per_sec())
      .note("tree", tree.describe());
  if (!rep.write_json_file("BENCH_seq.json"))
    std::fprintf(stderr, "warning: could not write BENCH_seq.json\n");
  std::printf("\nwrote BENCH_seq.json\n");
  return 0;
}
