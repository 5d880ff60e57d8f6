#!/usr/bin/env sh
# Run every prebakectl subcommand once at a small size:
#
#   tools/prebakectl_smoke.sh PATH/TO/prebakectl
#
# Each invocation must exit 0, print something on stdout and read every flag
# it is given (prebakectl warns on stderr about a flag nothing read). The
# removed `bench` command must exit 2, the usage error. Registered with CTest
# as `prebakectl_smoke`. Prints one line per invocation and exits 1 when any
# of them failed.
set -u

if [ "$#" -ne 1 ]; then
  echo "usage: $0 PATH/TO/prebakectl" >&2
  exit 2
fi
bin="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0

# run WANT_RC ARGS...: one invocation, checked against WANT_RC.
run() {
  want="$1"
  shift
  rc=0
  "$bin" "$@" > "$tmp/out" 2> "$tmp/err" || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL: prebakectl $* exited $rc, expected $want"
    sed 's/^/  /' "$tmp/err"
    failures=$((failures + 1))
  elif [ "$want" -eq 0 ] && [ ! -s "$tmp/out" ]; then
    echo "FAIL: prebakectl $* printed nothing on stdout"
    failures=$((failures + 1))
  elif grep -q '^warning: unused flag' "$tmp/err"; then
    echo "FAIL: prebakectl $* left a flag unread"
    sed 's/^/  /' "$tmp/err"
    failures=$((failures + 1))
  else
    echo "ok: prebakectl $*"
  fi
}

run 0 list
run 0 startup --function noop --technique pb-nowarmup --reps 5
run 0 service --function image-resizer --technique pb-warmup --requests 3
run 0 bake-info --function markdown --warmup 1
run 0 trace generate --out "$tmp/trace.csv" --duration-s 30
run 0 trace replay --in "$tmp/trace.csv"
run 0 trace startup --reps 3
run 0 trace cluster --duration-s 20
run 0 trace chaos --duration-s 20
run 0 nodes --duration-s 30
run 0 migrate noop
run 0 store stats --duration-s 30
run 0 faults --duration-s 30
run 0 workload generate --out "$tmp/workload.csv" --functions 10 --requests 200
run 0 workload stats --in "$tmp/workload.csv"
run 0 ws stats noop
run 0 layers noop
run 2 bench throughput

if [ "$failures" -gt 0 ]; then
  echo "$failures prebakectl invocation(s) failed"
  exit 1
fi
echo "every prebakectl invocation passed"
