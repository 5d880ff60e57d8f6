#!/usr/bin/env sh
# Build the unit-test binary under ASan+UBSan (the asan-ubsan CMake preset)
# and run it. Registered with CTest as `sanitized_unit_tests` (label
# `sanitize`); prints "SKIPPED: ..." and exits 0 when the toolchain cannot
# link the sanitizer runtimes, which CTest maps to a skip, not a failure.
set -eu

cd "$(dirname "$0")/.."
CXX_BIN="${CXX:-c++}"

# Compile-probe: some containers ship a compiler that accepts -fsanitize
# but lack libasan/libubsan at link time.
probe_dir="$(mktemp -d)"
trap 'rm -rf "$probe_dir"' EXIT
printf 'int main() { return 0; }\n' > "$probe_dir/probe.cpp"
if ! "$CXX_BIN" -fsanitize=address,undefined "$probe_dir/probe.cpp" \
    -o "$probe_dir/probe" >/dev/null 2>&1; then
  echo "SKIPPED: $CXX_BIN cannot link ASan/UBSan runtimes"
  exit 0
fi

cmake --preset asan-ubsan
cmake --build build-sanitize --target prebake_tests -j "$(nproc 2>/dev/null || echo 4)"

# halt_on_error keeps UBSan findings fatal so CTest sees a non-zero exit.
# This one pass runs every suite, including the ones that unwind through the
# restore pipeline or juggle lifetimes hardest (Chaos*, Trace*, Store*,
# Template*, RestoreBatch*, Scale*, Migrat*, WsRestore*, Layer*); re-running
# them filtered would only repeat the same binary under the same options.
ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}" \
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}" \
  ./build-sanitize/tests/prebake_tests
