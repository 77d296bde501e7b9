#include "exec/exec_node.h"

#include "common/error.h"

namespace wake {

ExecNode::ExecNode(std::string label)
    : label_(std::move(label)), inbox_(std::make_shared<Inbox>()) {}

ExecNode::~ExecNode() { Join(); }

void ExecNode::AddInput(ExecNode* upstream) {
  CheckArg(upstream != nullptr, "null upstream node");
  upstream->AddOutlet(inbox_, ports_closed_.size());
  ports_closed_.push_back(0);
}

void ExecNode::AddOutlet(InboxPtr inbox, size_t port) {
  CheckArg(inbox != nullptr, "null inbox");
  outlets_.push_back(Outlet{std::move(inbox), port});
}

void ExecNode::Start(TraceLog* trace) {
  thread_ = std::thread([this, trace] { Run(trace); });
}

void ExecNode::Join() {
  if (thread_.joinable()) thread_.join();
}

void ExecNode::RequestStop() {
  stop_.store(true, std::memory_order_relaxed);
  CancelInboxes();
}

void ExecNode::CancelInboxes() {
  // A graph-wide stop cancels each inbox (harmlessly) from both ends: by
  // its owner and by every producer feeding it.
  inbox_->Cancel();
  for (const Outlet& out : outlets_) out.inbox->Cancel();
}

void ExecNode::Run(TraceLog* trace) {
  std::exception_ptr error;
  try {
    if (RunBody(trace)) {
      for (const Outlet& out : outlets_) {
        out.inbox->Send(Tagged{out.port, true, Message{}});
      }
      return;
    }
  } catch (...) {
    // A failing operator must not take the process down (node threads have
    // no caller to unwind into). Hand the error to the graph owner, who
    // stops the rest of the graph and rethrows it from Collect().
    error = std::current_exception();
  }
  // Stopped, cancelled or failed: consumers must not Finish() over the
  // truncated input as if it were complete, so they get a cancel, not EOF.
  CancelInboxes();
  if (error && error_handler_) error_handler_(error);
}

void ExecNode::SyncStateAccounting() {
  if (tracker_ != nullptr) {
    tracker_->Sync(BufferedBytes(), &accounted_state_bytes_);
    tracker_->CheckBreach();
  }
}

bool ExecNode::RunBody(TraceLog* trace) {
  if (ports_closed_.empty()) {
    double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
    RunSource();
    if (trace) {
      trace->Record(label_, t0, trace->epoch().ElapsedSeconds());
    }
    return !stopped();
  }

  size_t open_ports = ports_closed_.size();
  while (open_ports > 0 && !stopped()) {
    // Drain whatever has accumulated under one lock; each partial's
    // output leaves as soon as Process emits it.
    auto batch = inbox_->ReceiveAll();
    if (batch.empty()) break;  // cancelled while inputs are still open
    for (auto& tagged : batch) {
      if (stopped()) break;  // drop the rest of the drained batch
      double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
      if (tagged.eof) {
        ports_closed_[tagged.port] = 1;
        --open_ports;
        OnInputClosed(tagged.port);
      } else {
        if (tracker_ != nullptr && tagged.msg.frame != nullptr) {
          // The partial left its queue; anything Process retains
          // reappears in the BufferedBytes sync below.
          tracker_->Credit(tagged.msg.frame->ByteSize());
        }
        Process(tagged.port, tagged.msg);
      }
      if (trace) {
        trace->Record(label_, t0, trace->epoch().ElapsedSeconds());
      }
      if (open_ports == 0) break;
    }
    SyncStateAccounting();
  }
  // A stopped or cancelled node produces no final state: its consumers
  // are being cancelled, and computing a last snapshot would delay
  // shutdown.
  if (open_ports > 0 || stopped()) return false;
  double t0 = trace ? trace->epoch().ElapsedSeconds() : 0.0;
  Finish();
  SyncStateAccounting();
  if (trace) {
    trace->Record(label_ + ":finish", t0, trace->epoch().ElapsedSeconds());
  }
  return true;
}

void ExecNode::Emit(Message msg) {
  if (tracker_ != nullptr && msg.frame != nullptr) {
    // One charge per destination inbox; the consumer credits on drain.
    tracker_->Charge(msg.frame->ByteSize() * outlets_.size());
  }
  for (const Outlet& out : outlets_) {
    out.inbox->Send(Tagged{out.port, false, msg});
  }
}

}  // namespace wake
