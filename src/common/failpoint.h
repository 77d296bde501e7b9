// Failpoints: compile-time-zero-cost fault injection for chaos testing.
//
// A failpoint is a named site in engine code where a test (or an
// operator, via the WAKE_FAIL environment variable) can inject a fault:
//
//   WAKE_FAILPOINT("reader.read_batch");
//
// In a normal build the macro expands to `((void)0)` — no code, no
// branch, no string. When the library is configured with
// `-DWAKE_FAILPOINTS=ON` the macro consults a process-wide registry and
// may throw wake::Error(kExecution) or sleep, according to the spec
// configured for that name:
//
//   error(P)      throw with probability P (0 < P <= 1)
//   delay(Nms)    sleep N milliseconds (also: delay(N))
//   off           disable
//
// Any spec may carry a `*N` suffix capping how many times it fires
// (`error(1.0)*2` = fail the first two evaluations, then pass), which is
// what makes bounded-retry tests deterministic.
//
// Activation sources, later wins:
//  1. the WAKE_FAIL environment variable, parsed once at first use:
//       WAKE_FAIL="reader.read_batch=error(0.05);channel.send=delay(10ms)"
//  2. programmatic failpoint::Configure / Reset (what chaos tests use).
//
// Probability draws use a per-failpoint counter mixed through a fixed
// 64-bit hash — deterministic for a given evaluation sequence, no global
// RNG state shared with the engines.
//
// Current injection sites (grep WAKE_FAILPOINT for the live list):
//   reader.read_batch    ReaderNode, once per chunk (bounded retry
//                        absorbs transient errors: 3 attempts, backoff)
//   channel.send         Channel<T>::Send
//   worker_pool.dispatch WorkerPool loop-runner, once per claimed morsel
//   join.build           HashJoinNode build-side insert
//   net.accept           Server accept loop, once per inbound connection
//   net.read             net::RecvAll, once per socket read
//   net.write            net::SendAll, once per socket write
//   net.serialize        Server snapshot encode, once per snapshot
//   ingest.flush         LiveTable tablet flush, once per seal (a failed
//                        flush keeps the tablet queryable in memory)
#ifndef WAKE_COMMON_FAILPOINT_H_
#define WAKE_COMMON_FAILPOINT_H_

#include <cstdint>
#include <string>

#ifndef WAKE_FAILPOINTS

#define WAKE_FAILPOINT(name) ((void)0)

#else

#define WAKE_FAILPOINT(name) ::wake::failpoint::Evaluate(name)

#endif  // WAKE_FAILPOINTS

namespace wake {
namespace failpoint {

// The registry API is compiled unconditionally (it is tiny and lets
// tests be written against one interface); only the Evaluate calls in
// engine code are compiled out. Without WAKE_FAILPOINTS a configured
// registry simply never fires.

/// Replaces the spec for one failpoint. `spec` is the syntax above
/// ("error(0.05)", "delay(10ms)", "error(1.0)*2", "off"); throws
/// wake::Error on a malformed spec.
void Configure(const std::string& name, const std::string& spec);

/// Parses a full "name=spec;name=spec" activation string (WAKE_FAIL
/// syntax) on top of the current registry.
void ConfigureFromString(const std::string& activation);

/// Clears every configured failpoint and its hit counters.
void Reset();

/// Times the named failpoint actually fired (threw or slept).
uint64_t Hits(const std::string& name);

/// The macro target: looks up `name`, fires per its spec. Never throws
/// anything but wake::Error.
void Evaluate(const char* name);

}  // namespace failpoint
}  // namespace wake

#endif  // WAKE_COMMON_FAILPOINT_H_
