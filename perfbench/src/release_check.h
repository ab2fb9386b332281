// The benchmark's own correctness checks on a release. They re-derive the
// QI-group partition from the released cell values, independently of the
// library's anonymity, guard and metrics code that the benchmark times.
#ifndef PERFBENCH_RELEASE_CHECK_H_
#define PERFBENCH_RELEASE_CHECK_H_

#include <cstddef>

#include "psk/common/status.h"
#include "psk/table/table.h"

namespace perfbench {

struct ReleasePolicy {
  size_t k = 2;
  size_t p = 1;
  size_t max_suppression = 0;
};

/// OK when `release` satisfies p-sensitive k-anonymity (Definition 2) for
/// `policy`: every QI-group holds at least k rows and at least p distinct
/// values of every confidential attribute, and no more than
/// max_suppression of the `original_rows` were removed. Otherwise
/// FailedPrecondition naming the first violation.
psk::Status VerifyRelease(const psk::Table& release, size_t original_rows,
                          const ReleasePolicy& policy);

}  // namespace perfbench

#endif  // PERFBENCH_RELEASE_CHECK_H_
