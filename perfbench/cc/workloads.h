// The four workloads. Each runs whole rounds until `seconds` have been
// measured, checks its outputs, and fills `result` with the end-to-end
// metrics (untraced) or the per-layer metrics (traced).
#pragma once

#include "common.h"

namespace perfbench {

// Census input generation, run in its own process so the measuring
// process's peak RSS excludes it: writes the seeded corpus as
// back-to-back DER plus per-certificate metadata.
// Returns a process exit code.
int generate_census_inputs(const Args& args);

void run_census(const Args& args, Result& result);
void run_monitor_query(const Args& args, Result& result);
void run_monitor_ingest(const Args& args, Result& result);
void run_differential(const Args& args, Result& result);

}  // namespace perfbench
