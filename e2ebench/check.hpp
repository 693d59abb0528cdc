// Solver-independent certificate checks for the benchmark's answers.
#pragma once

#include <string>

#include "misdp/solver.hpp"
#include "steiner/stpsolver.hpp"

namespace e2e {

/// Steiner: status Optimal; the reported original edges are distinct, form
/// a tree that spans every terminal of `g`; their recomputed cost equals
/// the reported cost, the dual bound and the pinned optimum. Returns an
/// empty string on success, else the reason.
std::string checkSteiner(const steiner::Graph& g,
                         const steiner::SteinerResult& r, double optimum);

/// MISDP: status Optimal; the point passes MisdpProblem::isFeasible on the
/// generated problem; its recomputed objective equals the reported one, the
/// dual bound and the pinned optimum (relative tolerance).
std::string checkMisdp(const misdp::MisdpProblem& p,
                       const misdp::MisdpResult& r, double optimum);

}  // namespace e2e
