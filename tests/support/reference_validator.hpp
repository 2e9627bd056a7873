// The pre-rewrite Section 3.1 protocol validator, preserved as the
// differential-testing oracle for the flat-table validator in
// src/pebble/validator.cpp.
//
// Holdings here are one std::unordered_set of pebble keys per host
// processor, and every RECEIVE scans its whole host step for the matching
// SEND.  It is deliberately NOT part of the src/ library and must never be
// "optimized": its value is that it computes the verdict the slow,
// obviously-correct way.  tests/validator_differential_test.cpp asserts
// field-for-field equal ValidationResults (ok, error text with its context
// suffix, and the three pebble counts) from both validators on valid and
// mutated protocols.
//
// It predates the "processor already acted this step" check, so it must
// only be given protocols built through Protocol::add in throw mode, where
// that rule is enforced at insertion.
#pragma once

#include "src/pebble/protocol.hpp"
#include "src/pebble/validator.hpp"
#include "src/topology/graph.hpp"

namespace upn::testing {

/// Reference semantics of validate_protocol.
[[nodiscard]] ValidationResult reference_validate_protocol(const Protocol& protocol,
                                                           const Graph& guest,
                                                           const Graph& host);

}  // namespace upn::testing
