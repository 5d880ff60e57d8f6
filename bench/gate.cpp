#include "gate.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "exp/cli.hpp"

namespace prebake::bench {

namespace {

std::string vformat(const char* fmt, std::va_list args) {
  std::va_list again;
  va_copy(again, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, again);
  va_end(again);
  std::string out(static_cast<std::size_t>(n < 0 ? 0 : n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  return out;
}

[[noreturn]] void usage(const char* name, unsigned accepted) {
  std::string text = std::string{"usage: "} + name + " [--out FILE]";
  if (accepted & kSeed) text += " [--seed N]";
  if (accepted & kThreads) text += " [--threads N]";
  if (accepted & kReps) text += " [--reps N]";
  if (accepted & kTrace) text += " [--trace FILE]";
  if (accepted & kCheck) text += " [--check]";
  std::fprintf(stderr, "%s\n", text.c_str());
  std::exit(2);
}

}  // namespace

Flags parse_flags(int argc, const char* const* argv, const char* name,
                  unsigned accepted, std::string default_out) {
  const exp::CliArgs args{argc, argv};
  Flags flags;
  flags.out = std::move(default_out);
  bool ok = args.positional().empty();
  // A value flag given without a value is malformed.
  const auto value = [&](const char* flag, std::string& into) {
    if (const auto v = args.get(flag)) {
      into = *v;
      ok = ok && !v->empty();
    }
  };
  try {
    value("out", flags.out);
    if (accepted & kCheck) {
      const auto check = args.get("check");
      flags.check = check.has_value();
      ok = ok && check.value_or("").empty();  // a switch takes no value
    }
    if (accepted & kSeed)
      flags.seed = static_cast<std::uint64_t>(
          args.get_int_or("seed", static_cast<std::int64_t>(flags.seed)));
    if (accepted & kThreads)
      flags.threads =
          static_cast<int>(args.get_int_or("threads", flags.threads));
    if (accepted & kReps)
      flags.reps = static_cast<int>(args.get_int_or("reps", flags.reps));
    if (accepted & kTrace) value("trace", flags.trace);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", name, e.what());
    usage(name, accepted);
  }
  if (!ok || !args.unconsumed().empty()) usage(name, accepted);
  return flags;
}

Row& Row::add(const char* key, const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::string field = "\"";
  field += key;
  field += "\": ";
  field += vformat(fmt, args);
  fields_.push_back({std::move(field)});
  va_end(args);
  return *this;
}

std::string Json::render(bool deterministic) const {
  std::string out = "{\n";
  for (const Row::Field& f : header.fields_) out += "  " + f.text + ",\n";
  out += "  \"" + array + "\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "    {";
    const char* sep = "";
    for (const Row::Field& f : rows[i].fields_) {
      if (deterministic && f.host) continue;
      out += sep + f.text;
      sep = ", ";
    }
    out += i + 1 < rows.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

bool write_file(const std::string& path, const std::string& body) {
  std::ofstream f{path, std::ios::binary};
  f << body;
  f.close();
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

bool Gates::check(bool ok, const char* fmt, ...) {
  if (ok) return true;
  std::va_list args;
  va_start(args, fmt);
  std::printf("FAIL: %s\n", vformat(fmt, args).c_str());
  va_end(args);
  ++failures_;
  return false;
}

int Gates::verdict() const {
  if (failures_ == 0) {
    std::printf("CHECK PASSED\n");
    return 0;
  }
  std::printf("CHECK FAILED: %d gate(s)\n", failures_);
  return 1;
}

}  // namespace prebake::bench
