// Fault-injection evaluation over the serving API.
//
// The §IV-A2 "chip instances" loop over serve::InferenceSession: each
// Monte-Carlo run perturbs the session's model in place, rebuilds the
// session's frozen packed-weight cache (in-place mutation keeps the data
// pointers the cache is keyed by), scores the session, and restores. Because the session owns
// the mask streams, every chip instance is scored under the *same*
// Bayesian samples — common random numbers across runs, so the spread
// measures the faults, not the sampling.
#pragma once

#include <functional>

#include "fault/injector.h"
#include "fault/monte_carlo.h"
#include "serve/session.h"

namespace ripple::fault {

/// Applies `spec` to `runs` deterministic chip instances (sub-streams of
/// `base_seed`) of the session's model and aggregates score(session).
/// The model is restored after every run. Single-threaded: the weights
/// mutate between scores.
MonteCarloStats evaluate_under_faults(
    serve::InferenceSession& session, const FaultSpec& spec, int runs,
    uint64_t base_seed,
    const std::function<double(serve::InferenceSession&)>& score);

}  // namespace ripple::fault
