// Shared plumbing of the gated benches (DESIGN.md §6m): their flags, the
// --check protocol, BENCH_*.json rows and gate reporting. A bench declares
// its cells, how to run one, its JSON row, its tables and its gates; this
// library owns everything else, so every gate reports and exits alike.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exp/parallel_runner.hpp"

namespace prebake::bench {

// Flags a bench may take besides --out.
enum FlagSet : unsigned {
  kCheck = 1u << 0,    // --check: run the check protocol
  kSeed = 1u << 1,     // --seed N
  kThreads = 1u << 2,  // --threads N
  kReps = 1u << 3,     // --reps N
  kTrace = 1u << 4,    // --trace FILE
};

// Each value defaults to what the benches taking that flag use.
struct Flags {
  std::string out;  // --out FILE: where the BENCH_*.json goes
  bool check = false;
  std::uint64_t seed = 42;
  int threads = 4;
  int reps = 200;
  std::string trace;
};

// Parses argv, accepting --out (default `default_out`) plus the flags in
// `accepted`. Any other flag, a positional argument or a malformed value
// prints usage and exits 2.
Flags parse_flags(int argc, const char* const* argv, const char* name,
                  unsigned accepted, std::string default_out);

// One JSON object on one line. Each field keeps its printf format, so the
// bytes of a BENCH_*.json are fixed by the bench, not by this library.
class Row {
 public:
  Row& add(const char* key, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  // Marks the field just added as host wall-clock: written to the file, left
  // out of the deterministic rendering the thread-identity check compares.
  Row& host() {
    fields_.back().host = true;
    return *this;
  }

 private:
  friend struct Json;
  struct Field {
    std::string text;  // "key": value
    bool host = false;
  };
  std::vector<Field> fields_;
};

// A BENCH_*.json document: top-level scalars, then one array of rows.
struct Json {
  explicit Json(std::string array_key) : array{std::move(array_key)} {}
  Row& row() { return rows.emplace_back(); }
  // `deterministic` drops host fields.
  std::string render(bool deterministic = false) const;

  std::string array;
  Row header;  // top-level fields, one per line
  std::vector<Row> rows;
};

// Writes `body` to `path` and prints "wrote PATH"; false (with a message on
// stderr) when the file cannot be written.
bool write_file(const std::string& path, const std::string& body);

// Gate evaluation: each failed gate prints one FAIL line and counts.
class Gates {
 public:
  // Returns `ok`; prints "FAIL: <message>" and counts a failure otherwise.
  bool check(bool ok, const char* fmt, ...)
      __attribute__((format(printf, 3, 4)));
  // Prints the one-line verdict and returns the exit code (0 pass, 1 fail).
  int verdict() const;

 private:
  int failures_ = 0;
};

// A cell and what running it gave.
template <typename Cell, typename Result>
struct Outcome {
  Cell cell;
  Result r;
};

// What a bench declares. Its JSON has the `header` fields, then an `array`
// holding one `row` per cell. `threaded` benches run their cells across
// engine threads and get the thread-identity check; the others always run
// serially.
template <typename Cell, typename Result>
struct Spec {
  using Outcomes = std::vector<Outcome<Cell, Result>>;
  std::span<const Cell> cells{};
  std::function<Result(const Cell&)> run_cell{};
  Row header{};
  const char* array = "cells";
  std::function<void(const Outcome<Cell, Result>&, Row&)> row{};
  // Prints the bench's tables and what they show.
  std::function<void(const Outcomes&)> report{};
  std::function<void(const Outcomes&, Gates&)> gates{};
  bool threaded = true;
};

// Runs a bench. A plain run sweeps at the engine's default thread count and
// writes the JSON. --check sweeps serially and, for a threaded bench, again
// at 4 engine threads, requires the deterministic JSON of both to match,
// evaluates the gates on the serial sweep, writes its JSON and prints the
// verdict. Returns the exit code.
template <typename Cell, typename Result>
int run(const Flags& flags, const Spec<Cell, Result>& spec) {
  const auto sweep = [&spec](int threads) {
    const std::size_t n = spec.cells.size();
    typename Spec<Cell, Result>::Outcomes outcomes(n);
    exp::ParallelRunner{threads}.for_each(n, [&](std::size_t i) {
      outcomes[i] = {spec.cells[i], spec.run_cell(spec.cells[i])};
    });
    Json json{spec.array};
    json.header = spec.header;
    for (const Outcome<Cell, Result>& o : outcomes) spec.row(o, json.row());
    return std::pair{std::move(outcomes), std::move(json)};
  };
  const auto [outcomes, json] = sweep(flags.check || !spec.threaded ? 1 : 0);
  spec.report(outcomes);
  Gates gates;
  if (flags.check) {
    if (spec.threaded)
      gates.check(json.render(true) == sweep(4).second.render(true),
                  "sweep is not bit-identical across engine threads");
    spec.gates(outcomes, gates);
  }
  if (!write_file(flags.out, json.render())) return 1;
  return flags.check ? gates.verdict() : 0;
}

}  // namespace prebake::bench
