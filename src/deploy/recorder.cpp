#include "deploy/recorder.h"

namespace ripple::deploy {

namespace {
thread_local TraceRecorder* g_active_trace = nullptr;
}  // namespace

TraceRecorder* active_trace() { return g_active_trace; }

TraceScope::TraceScope(TraceRecorder& recorder) : prev_(g_active_trace) {
  if (prev_ != nullptr) prev_->abort("nested trace scope");
  g_active_trace = &recorder;
}

TraceScope::~TraceScope() { g_active_trace = prev_; }

}  // namespace ripple::deploy
