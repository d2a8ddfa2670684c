// Drives cli::RunServe, the code behind `linbp_cli serve`, over in-process
// streams: one closed-loop client hands the REPL one script line at a time
// and time-stamps every reply as it is written.

#ifndef PERFBENCH_REPL_H_
#define PERFBENCH_REPL_H_

#include <string>
#include <vector>

#include "tools/cli_lib.h"

namespace perfbench {

struct Session {
  double setup_seconds = 0.0;  // `setup_start` to the first reply
  std::vector<double> handed;  // per script line: handed to the REPL
  std::vector<double> written;  // per reply: its final newline written
  std::vector<std::string> replies;
  int exit_code = 0;
};

/// Runs RunServe over `script`. The REPL gets the next line only when it
/// asks for more input, which is after it has written the previous reply,
/// so no second thread is involved.
Session Serve(const linbp::cli::ServeOptions& options,
              const std::vector<std::string>& script, double setup_start);

}  // namespace perfbench

#endif  // PERFBENCH_REPL_H_
