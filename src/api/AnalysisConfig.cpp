//===- api/AnalysisConfig.cpp -------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisConfig.h"

#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "lockset/EraserDetector.h"
#include "syncp/SyncPDetector.h"
#include "wcp/WcpDetector.h"

using namespace rapid;

const char *rapid::detectorKindName(DetectorKind K) {
  switch (K) {
  case DetectorKind::Hb:
    return "HB";
  case DetectorKind::Wcp:
    return "WCP";
  case DetectorKind::FastTrack:
    return "FastTrack";
  case DetectorKind::Eraser:
    return "Eraser";
  case DetectorKind::SyncP:
    return "SyncP";
  case DetectorKind::Custom:
    return "custom";
  }
  return "unknown";
}

DetectorFactory rapid::makeDetectorFactory(DetectorKind K) {
  switch (K) {
  case DetectorKind::Hb:
    return [](const Trace &T) { return std::make_unique<HbDetector>(T); };
  case DetectorKind::Wcp:
    return [](const Trace &T) { return std::make_unique<WcpDetector>(T); };
  case DetectorKind::FastTrack:
    return
        [](const Trace &T) { return std::make_unique<FastTrackDetector>(T); };
  case DetectorKind::Eraser:
    return [](const Trace &T) { return std::make_unique<EraserDetector>(T); };
  case DetectorKind::SyncP:
    return [](const Trace &T) { return std::make_unique<SyncPDetector>(T); };
  case DetectorKind::Custom:
    break;
  }
  return DetectorFactory();
}

const char *rapid::runModeName(RunMode M) {
  switch (M) {
  case RunMode::Sequential:
    return "sequential";
  case RunMode::Windowed:
    return "windowed";
  case RunMode::VarSharded:
    return "var-sharded";
  }
  return "unknown";
}

AnalysisConfig &AnalysisConfig::addDetector(DetectorKind K, std::string Name) {
  DetectorSpec Spec;
  Spec.Kind = K;
  Spec.Name = std::move(Name);
  Detectors.push_back(std::move(Spec));
  return *this;
}

AnalysisConfig &AnalysisConfig::addDetector(DetectorFactory Make,
                                            std::string Name) {
  DetectorSpec Spec;
  Spec.Kind = DetectorKind::Custom;
  Spec.Name = std::move(Name);
  Spec.Make = std::move(Make);
  Detectors.push_back(std::move(Spec));
  return *this;
}

Status AnalysisConfig::validate() const {
  auto Invalid = [](std::string Msg) {
    return Status(StatusCode::InvalidConfig, std::move(Msg));
  };
  if (Detectors.empty())
    return Invalid("no detectors configured");
  for (size_t I = 0; I != Detectors.size(); ++I) {
    const DetectorSpec &S = Detectors[I];
    if (S.Kind == DetectorKind::Custom && !S.Make)
      return Invalid("detector " + std::to_string(I) +
                     " is Custom but has no factory");
    if (S.Kind != DetectorKind::Custom && S.Make)
      return Invalid("detector " + std::to_string(I) + " names kind '" +
                     detectorKindName(S.Kind) +
                     "' but also carries a custom factory");
  }
  if (Mode == RunMode::Windowed && WindowEvents == 0)
    return Invalid("windowed mode requires WindowEvents > 0");
  if (Mode != RunMode::Windowed && WindowEvents != 0)
    return Invalid(std::string("WindowEvents is only meaningful in windowed "
                               "mode (mode is ") +
                   runModeName(Mode) + ")");
  if (Mode == RunMode::VarSharded && VarShards == 0)
    return Invalid("var-sharded mode requires VarShards >= 1");
  if (Mode != RunMode::VarSharded && VarShards != 0)
    return Invalid(std::string("VarShards is only meaningful in var-sharded "
                               "mode (mode is ") +
                   runModeName(Mode) + ")");
  if (StreamBatchEvents == 0)
    return Invalid("StreamBatchEvents must be >= 1");
  return Status::success();
}
