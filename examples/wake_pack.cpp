// wake_pack: packs generated TPC-H into the wakeblock native columnar
// format.
//
//   build/examples/wake_pack --out DIR [--sf X] [--partitions N]
//                            [--block-rows N]
//
// Generates the eight TPC-H tables in memory (--sf scale factor,
// --partitions partitions per table) and packs each into
// `<out>/<table>/` (table.meta + one `<field>.col` per column);
// --block-rows sets the rows of every block (default 4096); each
// partition's last block holds the remainder. Engines open the result
// with `--data wakeblock --data-dir DIR` (sql_ola) or
// wakeblock::OpenCatalog in code.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/stopwatch.h"
#include "example_env.h"
#include "storage/partitioned_table.h"
#include "storage/wakeblock.h"
#include "tpch/dbgen.h"

using namespace wake;

int main(int argc, char** argv) {
  std::string out;
  double sf = examples::ScaleFactor(0.01);
  size_t partitions = 8;
  wakeblock::WriteOptions write_options;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--out") {
        if (i + 1 >= argc) throw Error("--out needs a directory");
        out = argv[++i];
      } else if (arg == "--sf") {
        if (i + 1 >= argc) throw Error("--sf needs a scale factor");
        sf = std::atof(argv[++i]);
        if (sf <= 0.0) throw Error("--sf needs a positive scale factor");
      } else if (arg == "--partitions") {
        if (i + 1 >= argc) throw Error("--partitions needs a count");
        long n = std::atol(argv[++i]);
        if (n <= 0) throw Error("--partitions needs a positive count");
        partitions = static_cast<size_t>(n);
      } else if (arg == "--block-rows") {
        if (i + 1 >= argc) throw Error("--block-rows needs a count");
        long n = std::atol(argv[++i]);
        if (n <= 0) throw Error("--block-rows needs a positive count");
        write_options.block_rows = static_cast<size_t>(n);
      } else {
        throw Error("unknown argument '" + arg + "'");
      }
    }
    if (out.empty()) throw Error("--out DIR is required");
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  try {
    tpch::DbgenConfig cfg;
    cfg.scale_factor = sf;
    cfg.partitions = partitions;
    std::printf("generating TPC-H SF=%g (%zu partitions per table)\n", sf,
                partitions);
    Catalog catalog = tpch::Generate(cfg);
    std::vector<std::string> names = catalog.TableNames();

    std::filesystem::create_directories(out);
    Stopwatch clock;
    size_t total_rows = 0;
    for (const std::string& name : names) {
      wakeblock::Write(catalog.Get(name), out, write_options);
      wakeblock::BlockTablePtr packed = wakeblock::BlockTable::Open(out, name);
      total_rows += packed->total_rows();
      std::printf("  %-10s %10zu rows  %6zu blocks\n", name.c_str(),
                  packed->total_rows(), packed->num_blocks());
    }
    std::printf("packed %zu tables (%zu rows) into %s in %.2fs\n",
                names.size(), total_rows, out.c_str(),
                clock.ElapsedSeconds());
  } catch (const Error& e) {
    std::fprintf(stderr, "%s error: %s\n", ErrorCategoryName(e.category()),
                 e.what());
    return 1;
  }
  return 0;
}
