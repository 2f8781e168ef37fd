// The Z3 oracle: a test-support decision procedure behind smt::SolverBackend, and the
// independent reference the solver tests hold the production model finder ("dfs") to.
//
// It decides the same finite question dfs searches, with none of dfs's search code: the
// query is grounded by GroundAndFlatten and its domains harvested by ValueDomains, as in
// dfs, then every value is expanded over the finite scope into scalar Z3 terms and the
// whole conjunction goes to Z3 (see z3_oracle.cc). Its models use dfs's spelling, so the
// tests check them under the independent Evaluator like dfs's.
//
// CMake builds the oracle only where it finds Z3 (z3++.h and libz3), and no library
// under src/ links it. In a build without Z3, Z3Oracle() is null and the tests that need
// it skip; CI fails a run that skipped them.
#ifndef TESTS_Z3_ORACLE_H_
#define TESTS_Z3_ORACLE_H_

#include <memory>

#include "src/smt/backend.h"

namespace noctua::smt {

// A new oracle backend, named "z3". Defined only in builds that found Z3.
std::unique_ptr<SolverBackend> MakeZ3Oracle(const SolverOptions& options);

// The oracle's factory for SolverOptions::backend; nullptr in a build without Z3.
inline BackendFactory Z3Oracle() {
#ifdef NOCTUA_HAVE_Z3
  return &MakeZ3Oracle;
#else
  return nullptr;
#endif
}

}  // namespace noctua::smt

#endif  // TESTS_Z3_ORACLE_H_
