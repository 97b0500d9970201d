// Scenario runner: execute a text-scripted fault scenario against a
// simulated Wackamole cluster and narrate what happens.
//
//   ./scenario_runner                       # runs the built-in demo script
//   ./scenario_runner myfile.scn            # runs your script
//   ./scenario_runner --trace [myfile.scn]  # also dump the frame trace tail
//
// A chaos artifact (`chaos_campaign --seed N --dsl`) replays through the
// campaign's own executor and oracle; --trace applies to hand-written
// scenarios only. Exit status: 0 clean, 1 oracle violation, 2 bad input.
// See src/chaos/dsl.hpp for the DSL reference.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "chaos/campaign.hpp"

namespace {

constexpr const char* kDemo = R"(# Built-in demo: churn a 4-server cluster
servers 4
vips 8
gcs tuned
balance 15

at 3   coverage
at 5   disconnect server2
at 12  coverage
at 14  reconnect server2
at 25  balance
at 27  coverage
at 30  partition server1,server2 | server3,server4
at 40  coverage
at 42  merge
at 52  leave server4
at 56  status server1
run 60
)";

}  // namespace

int main(int argc, char** argv) {
  std::size_t trace_tail = 0;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (auto it = args.begin(); it != args.end();) {
    if (*it == "--trace") {
      trace_tail = 40;
      it = args.erase(it);
    } else {
      ++it;
    }
  }
  std::string text;
  if (!args.empty()) {
    std::ifstream in(args[0]);
    if (!in) {
      std::cerr << "cannot open " << args[0] << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  } else {
    std::cout << "(no script given; running the built-in demo)\n\n"
              << kDemo << "\n--- execution ---\n";
    text = kDemo;
  }

  try {
    auto script = wam::chaos::parse_dsl(text);
    return wam::chaos::run_dsl(script, std::cout, nullptr, trace_tail).empty()
               ? 0
               : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
