#!/usr/bin/env sh
# Byte-compare what the page store shows through prebakectl with goldens:
#
#   tools/store_outputs_check.sh PATH/TO/prebakectl tests/golden
#
# Three invocations cover the store's observable behaviour: eviction under a
# node budget (`nodes --store-mib 60`, 171,451 evictions on w1), hits, delta
# traffic and template clones (`store stats`), and the pages each layered
# template pins (`layers markdown`). A change that means to move one of these
# outputs regenerates its golden and says why. Registered with CTest as
# `store_outputs_check`. Prints one line per invocation, with a diff on a
# mismatch, and exits 1 when any of them differs.
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PATH/TO/prebakectl GOLDEN_DIR" >&2
  exit 2
fi
bin="$1"
golden="$2"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
failures=0

# check GOLDEN ARGS...: one invocation's stdout against GOLDEN_DIR/GOLDEN.
check() {
  want="$golden/$1"
  shift
  rc=0
  "$bin" "$@" > "$tmp/out" 2> "$tmp/err" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: prebakectl $* exited $rc"
    sed 's/^/  /' "$tmp/err"
    failures=$((failures + 1))
  elif ! cmp -s "$want" "$tmp/out"; then
    echo "FAIL: prebakectl $* differs from $want"
    diff "$want" "$tmp/out" | sed 's/^/  /'
    failures=$((failures + 1))
  else
    echo "ok: prebakectl $*"
  fi
}

check nodes_store_mib_60.txt nodes --store-mib 60 --duration-s 120
check store_stats.txt store stats
check layers_markdown.txt layers markdown

if [ "$failures" -gt 0 ]; then
  echo "$failures prebakectl output(s) differ from their goldens"
  exit 1
fi
echo "every prebakectl output matches its golden"
