//===- Env.h - Environment-variable resolution ------------------*- C++ -*-===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One home for every `JACKEE_*` environment knob. The precedence rule is
/// the same everywhere and documented exactly once:
///
///   explicit option (> 0 / non-Auto)  >  environment variable  >  default
///
/// where the default for worker counts is `hardware_concurrency` clamped
/// to [1, 256]. Variables and their consumers:
///
///   JACKEE_SOLVER_THREADS  points-to solver workers    (pointsto::Solver)
///   JACKEE_JOBS            analysis-cell matrix workers (core::AnalysisSession)
///   JACKEE_PLAN            join-plan mode               (datalog::resolvePlanMode)
///   JACKEE_PROVENANCE      derivation recording on/off  (core::AnalysisSession)
///   JACKEE_TRACE           span tracing, value = output path (core::AnalysisSession)
///   JACKEE_SNAPSHOT_DIR    AOT base-program store directory (core::AnalysisSession)
///
/// Malformed or out-of-range values are ignored (the next precedence level
/// applies) — a typo'd variable must never turn into a silent 1-thread or
/// 256-thread run of a different shape than the user asked for.
///
//===----------------------------------------------------------------------===//

#ifndef JACKEE_SUPPORT_ENV_H
#define JACKEE_SUPPORT_ENV_H

#include <optional>

namespace jackee {
namespace env {

/// The raw value of \p Name, or nullptr if unset.
const char *rawVar(const char *Name);

/// Parses \p Name as a decimal count in [\p Min, \p Max]. Unset, trailing
/// garbage, or out-of-range values all yield `nullopt`.
std::optional<long> countVar(const char *Name, long Min = 1, long Max = 256);

/// True if \p Name is set to "1" or "true".
bool flagVar(const char *Name);

/// Resolves a worker count: \p Explicit if non-zero (clamped to [1, 256]),
/// else \p Name's value if valid, else `hardware_concurrency` (clamped,
/// and at least 1 on platforms that report 0).
unsigned resolveWorkerCount(unsigned Explicit, const char *Name);

} // namespace env
} // namespace jackee

#endif // JACKEE_SUPPORT_ENV_H
