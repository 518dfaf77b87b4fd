//===- snapshot_test.cpp - AOT snapshot store tests ------------------------===//
//
// Part of JackEE-CPP (PLDI'20 "Frameworks and Caches" reproduction).
//
// Covers the mmap-able base-program store (src/snapshot/): serialization
// round trips byte-identically, a session cold-started from the store is
// bit-identical (digest and explain trees) to one that ran the builders at
// any thread count, and every rejection path — truncation, bad magic, stale
// format version, payload corruption — falls back to the builders cleanly
// instead of crashing or silently diverging.
//
//===----------------------------------------------------------------------===//

#include "core/Session.h"
#include "provenance/Explain.h"
#include "snapshot/Snapshot.h"
#include "synth/SynthApp.h"

#include "gtest/gtest.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace jackee;
using namespace jackee::core;
using namespace jackee::synth;

namespace {

/// Self-cleaning mkdtemp directory for store files.
class TempDir {
public:
  TempDir() {
    char Buf[] = "/tmp/jackee-snapshot-XXXXXX";
    const char *P = ::mkdtemp(Buf);
    EXPECT_NE(P, nullptr);
    Path = P ? P : "";
  }
  ~TempDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

/// Scoped environment override (same idiom as incremental_test.cpp).
class EnvGuard {
public:
  EnvGuard(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    ::setenv(Name, Value.c_str(), 1);
  }
  ~EnvGuard() {
    if (Saved.empty())
      ::unsetenv(Name);
    else
      ::setenv(Name, Saved.c_str(), 1);
  }

private:
  const char *Name;
  std::string Saved;
};

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  EXPECT_TRUE(Out.good()) << Path;
}

/// Concatenated explain trees of every exercised entry point — the
/// strongest per-cell equality witness we have besides the digest.
std::string explainAll(AnalysisCell &Cell) {
  std::string Error;
  std::vector<provenance::DerivationNode> Trees =
      Cell.explain("ExercisedEntryPoint", Error);
  EXPECT_EQ(Error, "");
  std::string Out;
  for (const provenance::DerivationNode &Tree : Trees)
    Out += provenance::Explainer::renderText(Tree);
  return Out;
}

/// The semantic (symbol-id-insensitive, non-wall-clock) metric fields two
/// equivalent runs must agree on.
void expectSameSemantics(const Metrics &A, const Metrics &B) {
  EXPECT_EQ(A.App, B.App);
  EXPECT_EQ(A.Analysis, B.Analysis);
  EXPECT_EQ(A.ReachableMethodsTotal, B.ReachableMethodsTotal);
  EXPECT_EQ(A.AppReachableMethods, B.AppReachableMethods);
  EXPECT_EQ(A.CallGraphEdges, B.CallGraphEdges);
  EXPECT_EQ(A.VptTuplesTotal, B.VptTuplesTotal);
  EXPECT_EQ(A.VptTuplesJavaUtil, B.VptTuplesJavaUtil);
  EXPECT_EQ(A.AppPolyVCalls, B.AppPolyVCalls);
  EXPECT_EQ(A.AppMayFailCasts, B.AppMayFailCasts);
  EXPECT_EQ(A.EntryPointsExercised, B.EntryPointsExercised);
  EXPECT_EQ(A.BeansCreated, B.BeansCreated);
  EXPECT_EQ(A.InjectionsApplied, B.InjectionsApplied);
}

TEST(SnapshotStoreTest, RoundTripByteIdentity) {
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::OriginalJdk8);
  std::vector<uint8_t> Image =
      snapshot::serialize(B, javalib::CollectionModel::OriginalJdk8);
  ASSERT_GT(Image.size(), snapshot::HeaderBytes);

  snapshot::LoadResult Loaded =
      snapshot::deserialize(Image, javalib::CollectionModel::OriginalJdk8);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Warning;
  EXPECT_EQ(Loaded.Bytes, Image.size());

  // Decode → re-encode must reproduce the image bit for bit: the format
  // has a single canonical encoding (fixed field order, no padding).
  std::vector<uint8_t> Image2 = snapshot::serialize(
      *Loaded.Data, javalib::CollectionModel::OriginalJdk8);
  EXPECT_EQ(Image, Image2);
}

TEST(SnapshotStoreTest, SaveAndLoadThroughDir) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  uint64_t Bytes = 0;
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo,
                                &Bytes),
            "");
  const std::string Path =
      snapshot::snapshotPath(Dir.path(), javalib::CollectionModel::SoundModulo);
  EXPECT_EQ(std::filesystem::file_size(Path), Bytes);

  snapshot::LoadResult Loaded =
      snapshot::loadFromDir(Dir.path(), javalib::CollectionModel::SoundModulo);
  ASSERT_TRUE(Loaded.ok()) << Loaded.Warning;
  EXPECT_EQ(Loaded.Bytes, Bytes);
  EXPECT_EQ(Loaded.Data->Symbols->size(), B.Symbols->size());
  EXPECT_EQ(Loaded.Data->Base->methodCount(), B.Base->methodCount());
  EXPECT_FALSE(Loaded.Data->Facts.empty());
}

TEST(SnapshotStoreTest, ModelMismatchRejected) {
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::OriginalJdk8);
  std::vector<uint8_t> Image =
      snapshot::serialize(B, javalib::CollectionModel::OriginalJdk8);
  snapshot::LoadResult Loaded =
      snapshot::deserialize(Image, javalib::CollectionModel::SoundModulo);
  EXPECT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.Warning.find("collection model"), std::string::npos)
      << Loaded.Warning;
}

TEST(SnapshotStoreTest, RejectionPathsFallBackCleanly) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");
  const std::string Path =
      snapshot::snapshotPath(Dir.path(), javalib::CollectionModel::SoundModulo);
  const std::vector<uint8_t> Pristine = readFile(Path);
  ASSERT_GT(Pristine.size(), snapshot::HeaderBytes);

  // Reference result: builders only, no store anywhere.
  std::string BuilderDigest;
  {
    AnalysisSession Session{SessionOptions{}};
    CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    ASSERT_TRUE(bool(Cell)) << Cell.error().Message;
    BuilderDigest = Cell->canonicalDigest();
  }

  struct Corruption {
    const char *Name;
    void (*Apply)(std::vector<uint8_t> &);
  };
  const Corruption Cases[] = {
      {"truncated", [](std::vector<uint8_t> &I) { I.resize(I.size() / 2); }},
      {"bad magic", [](std::vector<uint8_t> &I) { I[0] ^= 0xFF; }},
      {"stale version",
       [](std::vector<uint8_t> &I) {
         // Header bytes 8..11 hold the little-endian format version.
         I[8] = 0xFE;
         I[9] = I[10] = I[11] = 0;
       }},
      {"payload corrupted",
       [](std::vector<uint8_t> &I) { I.back() ^= 0x01; }},
  };
  for (const Corruption &C : Cases) {
    std::vector<uint8_t> Bad = Pristine;
    C.Apply(Bad);
    writeFile(Path, Bad);

    snapshot::LoadResult Loaded = snapshot::loadFromDir(
        Dir.path(), javalib::CollectionModel::SoundModulo);
    EXPECT_FALSE(Loaded.ok()) << C.Name;
    EXPECT_FALSE(Loaded.Warning.empty()) << C.Name;

    // A session pointed at the broken store must warn, run the builders,
    // and produce the exact builder-path result.
    SessionOptions Options;
    Options.SnapshotDir = Dir.path();
    AnalysisSession Session(Options);
    testing::internal::CaptureStderr();
    CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    std::string Stderr = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(bool(Cell)) << C.Name << ": " << Cell.error().Message;
    EXPECT_NE(Stderr.find("falling back to builders"), std::string::npos)
        << C.Name << ": " << Stderr;
    AnalysisSession::CacheStats CS = Session.cacheStats();
    EXPECT_EQ(CS.SnapshotLoads, 0u) << C.Name;
    EXPECT_EQ(CS.SnapshotBuilds, 1u) << C.Name;
    EXPECT_EQ(Cell->canonicalDigest(), BuilderDigest) << C.Name;
  }
}

TEST(SnapshotStoreTest, LoadVsBuildDigestEqualityAcrossThreads) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  for (unsigned Threads : {1u, 2u, 8u}) {
    SessionOptions BuildOptions;
    BuildOptions.SolverThreads = Threads;
    SessionOptions LoadOptions = BuildOptions;
    LoadOptions.SnapshotDir = Dir.path();

    AnalysisSession Builder(BuildOptions);
    CellResult Built = Builder.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    ASSERT_TRUE(bool(Built)) << Built.error().Message;

    AnalysisSession Mapped(LoadOptions);
    CellResult LoadedCell = Mapped.open(petstoreApp(), AnalysisKind::Mod2ObjH);
    ASSERT_TRUE(bool(LoadedCell)) << LoadedCell.error().Message;

    AnalysisSession::CacheStats CS = Mapped.cacheStats();
    EXPECT_EQ(CS.SnapshotLoads, 1u) << "threads=" << Threads;
    EXPECT_EQ(CS.SnapshotBuilds, 0u) << "threads=" << Threads;
    EXPECT_GT(CS.StoreBytes, 0u);

    EXPECT_EQ(Built->canonicalDigest(), LoadedCell->canonicalDigest())
        << "threads=" << Threads;
    EXPECT_EQ(explainAll(*Built), explainAll(*LoadedCell))
        << "threads=" << Threads;
    expectSameSemantics(Built->metrics(), LoadedCell->metrics());
  }
}

TEST(SnapshotStoreTest, EnvVarResolvesStoreDir) {
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  EnvGuard Env("JACKEE_SNAPSHOT_DIR", Dir.path());
  AnalysisSession Session{SessionOptions{}};
  CellResult Cell = Session.open(petstoreApp(), AnalysisKind::Mod2ObjH);
  ASSERT_TRUE(bool(Cell)) << Cell.error().Message;
  AnalysisSession::CacheStats CS = Session.cacheStats();
  EXPECT_EQ(CS.SnapshotLoads, 1u);
  EXPECT_EQ(CS.SnapshotBuilds, 0u);
}

TEST(SnapshotStoreTest, MixedSourceMatrixDeterminism) {
  // The store holds ONLY the sound-modulo model, so a matrix that also
  // needs original-jdk8 interleaves mapped-store and builder snapshots.
  TempDir Dir;
  snapshot::BaseProgram B =
      snapshot::buildBase(javalib::CollectionModel::SoundModulo);
  ASSERT_EQ(snapshot::saveToDir(Dir.path(), B,
                                javalib::CollectionModel::SoundModulo),
            "");

  const std::vector<Application> Apps = {petstoreApp(),
                                         applicationFor(BenchApp::Pybbs)};
  const std::vector<AnalysisKind> Kinds = {AnalysisKind::CI,
                                           AnalysisKind::Mod2ObjH};

  std::vector<AnalysisResult> Reference;
  {
    AnalysisSession Session{SessionOptions{}};
    Reference = Session.runMatrix(Apps, Kinds);
  }

  for (unsigned Jobs : {1u, 4u}) {
    SessionOptions Options;
    Options.Jobs = Jobs;
    Options.SnapshotDir = Dir.path();
    AnalysisSession Session(Options);
    std::vector<AnalysisResult> Results = Session.runMatrix(Apps, Kinds);

    AnalysisSession::CacheStats CS = Session.cacheStats();
    EXPECT_EQ(CS.SnapshotLoads, 1u) << "jobs=" << Jobs;  // sound-modulo
    EXPECT_EQ(CS.SnapshotBuilds, 1u) << "jobs=" << Jobs; // original-jdk8

    ASSERT_EQ(Results.size(), Reference.size());
    for (size_t I = 0; I != Results.size(); ++I) {
      ASSERT_TRUE(bool(Results[I])) << Results[I].error().Message;
      ASSERT_TRUE(bool(Reference[I])) << Reference[I].error().Message;
      expectSameSemantics(*Results[I], *Reference[I]);
    }
  }
}

} // namespace
