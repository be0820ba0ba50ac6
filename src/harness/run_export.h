/**
 * @file
 * Deterministic JSON export of a RunResult. Benches and the harness
 * route their machine-readable summaries through this single
 * serializer so artifacts are stable and diffable across runs.
 */

#ifndef CHECKIN_HARNESS_RUN_EXPORT_H_
#define CHECKIN_HARNESS_RUN_EXPORT_H_

#include <ostream>
#include <string>

#include "harness/experiment.h"
#include "obs/json.h"

namespace checkin {

/** Write @p h as member @p key: count, max, mean, min and the p50,
 *  p99 and p999 quantiles. */
void histJson(obs::JsonWriter &w, const std::string &key,
              const LatencyHistogram &h);

/**
 * Write @p r as a JSON object (sorted keys, fixed number formatting).
 * Two identical runs produce byte-identical output.
 */
void writeRunResultJson(obs::JsonWriter &w, const RunResult &r);

/** writeRunResultJson into a string (one trailing newline). */
std::string runResultJson(const RunResult &r);

} // namespace checkin

#endif // CHECKIN_HARNESS_RUN_EXPORT_H_
