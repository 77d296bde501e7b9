// SQL through the wake::Db session API: prepare a query (from the command
// line, a TPC-H query number, or a built-in default) against generated
// TPC-H data and stream its states from any of the three engines.
//
//   build/examples/sql_ola [--explain]
//                          [--mode ola|exact|progressive] [--workers N]
//                          [--timeout-ms N] [--memory-limit-kb N]
//                          [--data gen|wakeblock] [--data-dir DIR]
//                          [--connect HOST:PORT]
//                          ["SELECT ... FROM ..." | --tpch N]
//
// --mode selects the engine behind the same handle: ola (Wake, streaming
// converging states), exact (blocking baseline, one final state), or
// progressive (ProgressiveDB-style middleware; single-table queries
// only). --workers sizes the session's worker pool, which runs the hash
// join probe's morsels: 0 (default) = the process-wide pool (WAKE_WORKERS),
// N = a pool of N workers, where 1 runs every probe inline.
//
// --timeout-ms / --memory-limit-kb attach a resource budget. An OLA run
// that breaches its budget degrades instead of erroring: the query stops
// early and the last converging estimate is printed as a partial answer
// (with its CI), tagged with the breach reason and the fraction of data
// processed.
//
// --data selects the local table source: gen (default) generates TPC-H in
// memory; wakeblock opens a wake_pack output directory lazily, so scans
// stream block by block and the optimizer's pushed-down filters skip
// blocks their synopses refute.
//
// --connect HOST:PORT runs the same query against a remote wake_server
// instead of generating data locally: identical streaming loop, identical
// final bytes — the handle just happens to be a wake::RemoteQuery.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "api/db.h"
#include "client/client.h"
#include "common/error.h"
#include "example_env.h"
#include "storage/partitioned_table.h"
#include "storage/wakeblock.h"
#include "tpch/dbgen.h"
#include "tpch/queries_sql.h"

using namespace wake;

int main(int argc, char** argv) {
  bool explain = false;
  DbOptions db_options;
  RunOptions run_options;
  std::string mode = "ola";
  std::string connect;
  std::string data = "gen";
  std::string data_dir;
  std::string query =
      "SELECT l_shipmode, SUM(l_extendedprice * (1 - l_discount)) "
      "AS revenue, COUNT(*) AS items FROM lineitem "
      "JOIN orders ON l_orderkey = o_orderkey "
      "WHERE o_orderdate >= DATE '1995-01-01' "
      "GROUP BY l_shipmode ORDER BY revenue DESC";
  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg == "--explain") {
        explain = true;
      } else if (arg == "--mode") {
        if (i + 1 >= argc) throw Error("--mode needs ola|exact|progressive");
        mode = argv[++i];
        if (mode == "ola") {
          run_options.engine = QueryEngine::kOla;
        } else if (mode == "exact") {
          run_options.engine = QueryEngine::kExact;
        } else if (mode == "progressive") {
          run_options.engine = QueryEngine::kProgressive;
        } else {
          throw Error("unknown --mode '" + mode + "'");
        }
      } else if (arg == "--workers") {
        if (i + 1 >= argc) throw Error("--workers needs a count");
        char* end = nullptr;
        long n = std::strtol(argv[++i], &end, 10);
        if (end == argv[i] || *end != '\0' || n < 0) {
          throw Error("--workers needs a non-negative count");
        }
        db_options.workers = static_cast<size_t>(n);
      } else if (arg == "--timeout-ms") {
        if (i + 1 >= argc) throw Error("--timeout-ms needs a count");
        run_options.timeout_ms = std::atol(argv[++i]);
        run_options.with_ci = true;  // a partial answer needs its CI
      } else if (arg == "--memory-limit-kb") {
        if (i + 1 >= argc) throw Error("--memory-limit-kb needs a count");
        run_options.memory_limit_bytes =
            static_cast<size_t>(std::atol(argv[++i])) * 1024;
        run_options.with_ci = true;
      } else if (arg == "--connect") {
        if (i + 1 >= argc) throw Error("--connect needs HOST:PORT");
        connect = argv[++i];
        if (connect.rfind(':') == std::string::npos) {
          throw Error("--connect needs HOST:PORT");
        }
      } else if (arg == "--data") {
        if (i + 1 >= argc) throw Error("--data needs gen|wakeblock");
        data = argv[++i];
        if (data != "gen" && data != "wakeblock") {
          throw Error("unknown --data '" + data + "'");
        }
      } else if (arg == "--data-dir") {
        if (i + 1 >= argc) throw Error("--data-dir needs a directory");
        data_dir = argv[++i];
      } else if (arg == "--tpch") {
        if (i + 1 >= argc) throw Error("--tpch needs a query number (1-22)");
        query = tpch::QuerySql(std::atoi(argv[++i]));
      } else {
        query = arg;
      }
    }
    if (data != "gen" && data_dir.empty()) {
      throw Error("--data " + data + " needs --data-dir DIR");
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  // Streaming loop + terminal report, shared by the local QueryHandle and
  // the remote wake::RemoteQuery — both speak Next()/Result().
  auto stream_and_report = [](auto& handle) -> int {
    while (auto s = handle.Next()) {
      if (!s->is_final && s->frame->num_rows() > 0) {
        std::printf("estimate at %3.0f%% progress: %zu rows, first row: ",
                    100 * s->progress, s->frame->num_rows());
        for (size_t c = 0; c < s->frame->num_columns(); ++c) {
          std::printf("%s%s", c ? " | " : "",
                      s->frame->column(c).GetValue(0).ToString().c_str());
        }
        std::printf("\n");
      }
    }
    try {
      QueryResult result = handle.Result();
      if (result.status == ResultStatus::kPartialBudget) {
        std::printf(
            "\npartial answer (budget stop: %s; %.0f%% of data "
            "processed):\n%s",
            BreachReasonName(result.breach), 100 * result.progress,
            result.frame->ToString(15).c_str());
      } else {
        std::printf("\nfinal (exact) result:\n%s",
                    result.frame->ToString(15).c_str());
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s error: %s\n", ErrorCategoryName(e.category()),
                   e.what());
      return 1;
    }
    return 0;
  };

  if (!connect.empty()) {
    size_t colon = connect.rfind(':');
    ClientOptions client_options;
    client_options.host = connect.substr(0, colon);
    client_options.port =
        static_cast<uint16_t>(std::atoi(connect.c_str() + colon + 1));
    client_options.client_name = "sql_ola";
    RemoteRunOptions remote;
    remote.engine = run_options.engine;
    remote.with_ci = run_options.with_ci;
    remote.on_breach = run_options.on_breach;
    remote.memory_limit_bytes = run_options.memory_limit_bytes;
    remote.timeout_ms = run_options.timeout_ms;
    std::printf("query (%s engine, remote %s):\n  %s\n\n", mode.c_str(),
                connect.c_str(), query.c_str());
    try {
      Client client(client_options);
      RemoteQuery handle = client.Submit(query, remote);
      return stream_and_report(handle);
    } catch (const Error& e) {
      std::fprintf(stderr, "%s error%s: %s\n",
                   ErrorCategoryName(e.category()),
                   e.retryable() ? " (retryable)" : "", e.what());
      return 1;
    }
  }

  Catalog catalog;
  try {
    if (data == "wakeblock") {
      catalog = wakeblock::OpenCatalog(data_dir);
    } else {
      tpch::DbgenConfig cfg;
      cfg.scale_factor = examples::ScaleFactor(0.02);
      cfg.partitions = 10;
      catalog = tpch::Generate(cfg);
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "%s error: %s\n", ErrorCategoryName(e.category()),
                 e.what());
    return 1;
  }

  std::printf("query (%s engine):\n  %s\n\n", mode.c_str(), query.c_str());
  Db db(&catalog, db_options);
  std::optional<PreparedQuery> prepared;
  try {
    prepared = db.Prepare(query);
  } catch (const Error& e) {
    // Categories make dispatch explicit: parse errors carry the offset,
    // plan errors name the failing construct.
    std::fprintf(stderr, "%s error: %s\n", ErrorCategoryName(e.category()),
                 e.what());
    return 1;
  }
  if (explain) {
    std::printf("plan:\n%s\n", prepared->Explain().c_str());
  }

  QueryHandle handle = prepared->Run(run_options);
  return stream_and_report(handle);
}
