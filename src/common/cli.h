// Tiny --flag=value command-line parser for bench and example binaries.
// Unrecognized flags raise a CheckError so typos in sweep scripts fail loud.
#pragma once

#include <cstdint>
#include <exception>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace vitbit {

class Cli {
 public:
  // Parses argv of the form: prog [--name=value | --bool-flag] ...
  // Positional arguments are collected in order.
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Path given via --json=<path> (machine-readable output, emitted next to
  // the --csv console form); empty when the flag is absent. Every bench and
  // the CLI route their artifacts through this one flag name so CI tooling
  // can rely on it.
  std::string json_path() const { return get("json", ""); }

  // Host thread count given via --threads=N, defaulting to
  // ThreadPool::default_threads() (hardware_concurrency). Throws CheckError
  // on zero, negative, or non-numeric values — every binary shares the one
  // strict parse so `--threads=0` cannot silently serialize a sweep.
  int threads() const;

  // Returns the set of flags that were provided but never queried; benches
  // call this after parsing all flags to reject typos.
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> flags_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

// Shared main() for every bench, example and tool: a flag error (an
// unknown flag, --threads=0, a non-numeric value) or any other CheckError
// that escapes `run` prints one line, "<program>: <message>", and exits 2
// instead of aborting on an unhandled exception.
inline int guarded_main(int argc, char** argv, int (*run)(int, char**)) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    const std::string prog = argc > 0 ? argv[0] : "vitbit";
    std::cerr << prog.substr(prog.find_last_of('/') + 1) << ": " << e.what()
              << "\n";
    return 2;
  }
}

}  // namespace vitbit
