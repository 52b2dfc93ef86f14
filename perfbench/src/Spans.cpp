//===- Spans.cpp - In-memory span recorder for traced runs ----------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

using namespace perfbench;

uint64_t perfbench::nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
std::atomic<uint32_t> NextTid{1};
thread_local uint32_t ThisTid = 0;
/// Innermost open Scope on this thread (the default parent).
thread_local uint32_t CurrentSpan = 0;

uint32_t threadNumber() {
  if (!ThisTid)
    ThisTid = NextTid.fetch_add(1);
  return ThisTid;
}
} // namespace

uint32_t SpanRecorder::begin(const std::string &Name, uint32_t Parent) {
  if (!Enabled)
    return 0;
  Span S;
  S.Name = Name;
  S.Parent = Parent;
  S.Tid = threadNumber();
  S.StartNs = nowNs();
  std::lock_guard<std::mutex> G(M);
  S.Id = static_cast<uint32_t>(All.size() + 1);
  All.push_back(std::move(S));
  return All.back().Id;
}

void SpanRecorder::end(uint32_t Id) {
  if (!Enabled || !Id)
    return;
  const uint64_t T = nowNs();
  std::lock_guard<std::mutex> G(M);
  All[Id - 1].EndNs = T;
}

std::vector<SpanRecorder::Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> G(M);
  return All;
}

std::string SpanRecorder::perfettoJson() const {
  std::vector<Span> S = spans();
  const uint64_t T0 = S.empty() ? 0 : S.front().StartNs;
  std::string Out = "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  Out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"perfbench\"}}";
  char Buf[160];
  for (const Span &Sp : S) {
    std::snprintf(Buf, sizeof(Buf),
                  ", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
                  "\"dur\": %.3f, ",
                  Sp.Tid, (Sp.StartNs - T0) / 1e3,
                  (Sp.EndNs - Sp.StartNs) / 1e3);
    Out += ",\n{\"name\": " + rapid::jsonQuote(Sp.Name) + Buf +
           "\"args\": {\"id\": " + std::to_string(Sp.Id) +
           ", \"parent\": " + std::to_string(Sp.Parent) + "}}";
  }
  return Out + "\n]}\n";
}

std::map<std::string, double> SpanRecorder::selfSeconds() const {
  std::vector<Span> S = spans();
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> Kids(S.size() + 1);
  for (const Span &Sp : S)
    if (Sp.Parent)
      Kids[Sp.Parent].push_back({Sp.StartNs, Sp.EndNs});
  std::map<std::string, double> Self;
  for (const Span &Sp : S) {
    // Children on other threads may overlap each other: subtract the
    // union of their intervals, not the sum.
    auto &K = Kids[Sp.Id];
    std::sort(K.begin(), K.end());
    uint64_t Covered = 0, Lo = 0, Hi = 0;
    for (const auto &[A, B] : K) {
      if (A > Hi) {
        Covered += Hi - Lo;
        Lo = A;
        Hi = B;
      } else {
        Hi = std::max(Hi, B);
      }
    }
    Covered += Hi - Lo;
    const uint64_t Dur = Sp.EndNs - Sp.StartNs;
    Self[Sp.Name] += (Dur > Covered ? Dur - Covered : 0) / 1e9;
  }
  return Self;
}

std::string SpanRecorder::checkNesting() const {
  std::vector<Span> S = spans();
  size_t Roots = 0;
  for (const Span &Sp : S) {
    if (Sp.EndNs < Sp.StartNs || Sp.EndNs == 0)
      return "span '" + Sp.Name + "' was never closed";
    if (!Sp.Parent) {
      ++Roots;
      continue;
    }
    if (Sp.Parent >= Sp.Id)
      return "span '" + Sp.Name + "' has a parent opened after it";
    const Span &P = S[Sp.Parent - 1];
    if (Sp.StartNs < P.StartNs || Sp.EndNs > P.EndNs)
      return "span '" + Sp.Name + "' escapes its parent '" + P.Name + "'";
  }
  if (Roots != 1)
    return std::to_string(Roots) + " root spans (expected exactly one)";
  return "";
}

uint32_t perfbench::currentSpan() { return CurrentSpan; }

Scope::Scope(SpanRecorder &R, const std::string &Name)
    : Scope(R, Name, CurrentSpan) {}

Scope::Scope(SpanRecorder &R, const std::string &Name, uint32_t Parent)
    : R(R), Id(R.begin(Name, Parent)), Saved(CurrentSpan) {
  if (Id)
    CurrentSpan = Id;
}

Scope::~Scope() {
  R.end(Id);
  if (Id)
    CurrentSpan = Saved;
}
