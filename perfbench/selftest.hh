/**
 * @file
 * The benchmark's own self-tests (`perfbench --self-test`).
 */

#ifndef PERFBENCH_SELFTEST_HH
#define PERFBENCH_SELFTEST_HH

#include <string>

namespace perfbench
{

/**
 * Check the metric table's grammar, that injected bad cells are
 * counted rather than fatal, that outcomes agree at `--jobs 1` and
 * `--jobs 4` (at seed 0 and at another seed), that a changed outcome
 * is caught by the digest check, and that the pinned digests in
 * @p digest_dir cover every cell of every workload.  Prints one line
 * per check; returns the process exit code.
 */
int runSelfTest(const std::string &digest_dir);

} // namespace perfbench

#endif // PERFBENCH_SELFTEST_HH
