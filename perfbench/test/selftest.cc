// Self-test of the benchmark's correctness checks: a real release passes
// VerifyRelease, and each corruption of it (a QI-group below k, a group
// below p, too many suppressed rows, one changed cell) is caught by
// VerifyRelease or ReleaseDigest. Exits 0 when every case behaves.

#include <cstdio>
#include <string>

#include "psk/api/anonymizer.h"
#include "psk/datagen/synthetic.h"
#include "psk/jobs/job.h"
#include "release_check.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

bool SameGroup(const psk::Table& t, size_t a, size_t b) {
  for (size_t col : t.schema().KeyIndices()) {
    if (t.Get(a, col) != t.Get(b, col)) return false;
  }
  return true;
}

/// A row in row 0's QI-group whose value in `col` differs from row 0's
/// (one exists in any release that is p-sensitive for p >= 2), else 0.
size_t GroupMateOfRowZero(const psk::Table& t, size_t col) {
  for (size_t row = 1; row < t.num_rows(); ++row) {
    if (SameGroup(t, 0, row) && t.Get(row, col) != t.Get(0, col)) return row;
  }
  return 0;
}

}  // namespace

int main() {
  constexpr size_t kRows = 4000;
  const perfbench::ReleasePolicy policy{/*k=*/3, /*p=*/2,
                                        /*max_suppression=*/kRows / 100};
  psk::Result<psk::SyntheticData> data = psk::SyntheticGenerate(
      psk::MakeUniformSpec(kRows, 3, 20, 1, 50, 0.5), /*seed=*/7);
  if (!data.ok()) {
    std::printf("FAIL  set-up: %s\n", data.status().ToString().c_str());
    return 1;
  }
  psk::Anonymizer anonymizer(data->table);
  for (size_t i = 0; i < data->hierarchies.size(); ++i) {
    anonymizer.AddHierarchy(data->hierarchies.hierarchy_ptr(i));
  }
  anonymizer.set_k(policy.k).set_p(policy.p).set_max_suppression(
      policy.max_suppression);
  psk::Result<psk::AnonymizationReport> report = anonymizer.Run();
  if (!report.ok()) {
    std::printf("FAIL  release: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const psk::Table& release = report->masked;
  const uint64_t digest = psk::TableDigest(release);
  Expect(perfbench::VerifyRelease(release, kRows, policy).ok(),
         "the library's release passes VerifyRelease");
  Expect(psk::TableDigest(psk::Table(release)) == digest,
         "a copy has the same digest");

  const size_t key = release.schema().KeyIndices()[0];
  const size_t conf = release.schema().ConfidentialIndices()[0];

  {  // One row moved into a QI-group of its own: k drops to 1.
    psk::Table bad = release;
    bad.Set(0, key, psk::Value("corrupted"));
    Expect(!perfbench::VerifyRelease(bad, kRows, policy).ok(),
           "a singleton QI-group fails VerifyRelease");
    Expect(psk::TableDigest(bad) != digest,
           "one changed key cell changes the digest");
  }
  {  // Every confidential value of row 0's group made equal: p drops to 1.
    psk::Table bad = release;
    for (size_t row = 1; row < bad.num_rows(); ++row) {
      if (SameGroup(bad, 0, row)) bad.Set(row, conf, bad.Get(0, conf));
    }
    Expect(!perfbench::VerifyRelease(bad, kRows, policy).ok(),
           "a 1-sensitive QI-group fails VerifyRelease at p=2");
  }
  {  // Claimed input larger than the suppression cap allows.
    Expect(!perfbench::VerifyRelease(release,
                                     kRows + policy.max_suppression + 1,
                                     policy)
                .ok(),
           "suppression beyond the cap fails VerifyRelease");
  }
  {  // Two rows of one group swap confidential values: still a valid
     // release, but not the expected one.
    psk::Table swapped = release;
    size_t mate = GroupMateOfRowZero(swapped, conf);
    psk::Value a = swapped.Get(0, conf);
    swapped.Set(0, conf, swapped.Get(mate, conf));
    swapped.Set(mate, conf, a);
    Expect(mate != 0, "row 0's group holds two distinct confidential values");
    Expect(perfbench::VerifyRelease(swapped, kRows, policy).ok() &&
               psk::TableDigest(swapped) != digest,
           "a swap within a group passes VerifyRelease but changes the digest");
  }
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
