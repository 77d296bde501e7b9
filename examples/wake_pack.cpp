// wake_pack: converts tables into the wakeblock native columnar format.
//
//   build/examples/wake_pack --out DIR [--gen-tpch] [--sf X]
//                            [--partitions N] [--in TBL_DIR]
//                            [--block-rows N]
//
// Two sources, one sink:
//   --gen-tpch     generate the eight TPC-H tables in memory (--sf scale
//                  factor, --partitions partitions per table) — the
//                  default when --in is not given
//   --in TBL_DIR   read every `<name>.meta` table from a directory written
//                  by PartitionedTable::WriteTblDir
//
// Every source table is packed into `<out>/<table>/` (table.meta +
// one `<field>.col` per column); --block-rows sets the nominal rows per
// block. Engines open the result with `--data wakeblock --data-dir DIR`
// (sql_ola) or wakeblock::OpenCatalog in code.
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
  std::string in;
  bool gen_tpch = false;
  double sf = examples::ScaleFactor(0.01);
  size_t partitions = 8;
  wakeblock::WriteOptions write_options;
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--out") {
        if (i + 1 >= argc) throw Error("--out needs a directory");
        out = argv[++i];
      } else if (arg == "--in") {
        if (i + 1 >= argc) throw Error("--in needs a tbl directory");
        in = argv[++i];
      } else if (arg == "--gen-tpch") {
        gen_tpch = true;
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
    if (gen_tpch && !in.empty()) {
      throw Error("--gen-tpch and --in are mutually exclusive");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  try {
    std::vector<PartitionedTable> tables;
    if (in.empty()) {
      tpch::DbgenConfig cfg;
      cfg.scale_factor = sf;
      cfg.partitions = partitions;
      std::printf("generating TPC-H SF=%g (%zu partitions per table)\n", sf,
                  partitions);
      Catalog catalog = tpch::Generate(cfg);
      for (const auto& name : catalog.TableNames()) {
        tables.push_back(catalog.Get(name));
      }
    } else {
      std::printf("reading tbl tables from %s\n", in.c_str());
      Catalog catalog = OpenTblCatalog(in);
      for (const auto& name : catalog.TableNames()) {
        tables.push_back(catalog.Get(name));
      }
    }

    std::filesystem::create_directories(out);
    Stopwatch clock;
    size_t total_rows = 0;
    for (const auto& table : tables) {
      wakeblock::Write(table, out, write_options);
      wakeblock::BlockTablePtr packed =
          wakeblock::BlockTable::Open(out, table.name());
      total_rows += packed->total_rows();
      std::printf("  %-10s %10zu rows  %6zu blocks\n", table.name().c_str(),
                  packed->total_rows(), packed->num_blocks());
    }
    std::printf("packed %zu tables (%zu rows) into %s in %.2fs\n",
                tables.size(), total_rows, out.c_str(),
                clock.ElapsedSeconds());
  } catch (const Error& e) {
    std::fprintf(stderr, "%s error: %s\n", ErrorCategoryName(e.category()),
                 e.what());
    return 1;
  }
  return 0;
}
