//===- support/Status.h - Structured error reporting ------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The structured error type shared by the analysis API and the IO layer.
/// Replaces stringly `std::string Error` slots: a Status carries a
/// machine-checkable code (so callers can branch on *what* failed) plus the
/// human-readable message (so nothing the old fields said is lost).
/// Statuses never throw; layers that contain exceptions convert them into
/// AnalysisError.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_STATUS_H
#define RAPID_SUPPORT_STATUS_H

#include <cstdint>
#include <string>
#include <utility>

namespace rapid {

/// What went wrong, coarsely — the axis callers branch on.
enum class StatusCode : uint8_t {
  Ok = 0,
  InvalidConfig,   ///< AnalysisConfig::validate rejected the request.
  InvalidState,    ///< Call out of session order (feed after finish, ...).
  IoError,         ///< Open/read/write failure (message carries errno text).
  ParseError,      ///< Malformed trace bytes (message carries line/offset).
  ValidationError, ///< Trace loaded but is not well-formed (§2.1).
  AnalysisError,   ///< A detector or lane task failed mid-analysis.
};

/// Stable lowercase-kebab name for \p C ("invalid-config", ...), used in
/// rendered messages and machine-readable CLI output.
inline const char *statusCodeName(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:
    return "ok";
  case StatusCode::InvalidConfig:
    return "invalid-config";
  case StatusCode::InvalidState:
    return "invalid-state";
  case StatusCode::IoError:
    return "io-error";
  case StatusCode::ParseError:
    return "parse-error";
  case StatusCode::ValidationError:
    return "validation-error";
  case StatusCode::AnalysisError:
    return "analysis-error";
  }
  return "unknown";
}

/// A status code plus its human-readable message. Default-constructed is
/// success; a failed Status always has a non-empty Message.
struct Status {
  StatusCode Code = StatusCode::Ok;
  std::string Message;

  Status() = default;
  Status(StatusCode Code, std::string Message)
      : Code(Code), Message(std::move(Message)) {}

  bool ok() const { return Code == StatusCode::Ok; }

  static Status success() { return Status(); }

  /// "ok", or "<code-name>: <message>" for failures.
  std::string str() const {
    if (ok())
      return "ok";
    return std::string(statusCodeName(Code)) + ": " + Message;
  }
};

} // namespace rapid

#endif // RAPID_SUPPORT_STATUS_H
