// Messages flowing between execution nodes (§7.2 of the paper).
//
// A message carries a shared pointer to an immutable data frame (one
// partial of one edf state) plus the progress metadata nodes need to
// maintain their intrinsic states. Two stream disciplines exist, matching
// the evolve modes of plan/props.h:
//  - append  (refresh == false): frames accumulate; earlier rows are final.
//  - refresh (refresh == true):  each frame is a complete snapshot that
//    replaces everything previously received on this edge.
// Messages travel as Tagged entries of the consumer's inbox
// (exec/exec_node.h). End-of-stream, the EOF of §7.2, is a marker entry
// the producer sends after its last message; the inbox itself stays open,
// since other inputs of the same consumer may still be streaming.
#ifndef WAKE_EXEC_MESSAGE_H_
#define WAKE_EXEC_MESSAGE_H_

#include <memory>

#include "core/agg_state.h"
#include "frame/data_frame.h"

namespace wake {

/// One unit of inter-node data flow.
struct Message {
  DataFramePtr frame;
  /// Progress t of this edf: fraction of the transitive base-table input
  /// consumed so far (§4.1). Monotone per edge; 1.0 on the last message.
  double progress = 0.0;
  /// True if this frame replaces all previously received content.
  bool refresh = false;
  /// Optional per-column variances of mutable attributes (§6).
  std::shared_ptr<const VarianceMap> variances;
};

/// One entry of a consumer's inbox: a message that arrived on input
/// `port`, or, when `eof` is set, the marker that the producer feeding
/// `port` has sent its last message.
struct Tagged {
  size_t port = 0;
  bool eof = false;
  Message msg;
};

}  // namespace wake

#endif  // WAKE_EXEC_MESSAGE_H_
