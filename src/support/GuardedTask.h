//===- support/GuardedTask.h - Exception-to-slot task guard -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one exception-containment idiom of the analysis engine: tasks on
/// the ThreadPool (and the session's consumer threads) must not let
/// exceptions escape — they report failures through their own result
/// slots instead, so one exploding detector cannot sink a run. This
/// helper is that contract in one place.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_GUARDEDTASK_H
#define RAPID_SUPPORT_GUARDEDTASK_H

#include <string>

namespace rapid {

/// Runs \p Body, converting any escaping exception into \p Error (the
/// per-task failure slot); returns true on success. \p Error is left
/// untouched on success.
template <typename Fn> bool guardedTask(std::string &Error, Fn &&Body) {
  try {
    Body();
    return true;
  } catch (const std::exception &E) {
    Error = E.what();
  } catch (...) {
    Error = "unknown exception";
  }
  return false;
}

} // namespace rapid

#endif // RAPID_SUPPORT_GUARDEDTASK_H
