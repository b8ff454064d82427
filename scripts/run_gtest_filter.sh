#!/usr/bin/env bash
# Runs a GoogleTest binary under --gtest_filter, failing when the filter
# selects nothing: every ':'-separated positive pattern must list at least
# one test. GoogleTest itself runs zero tests and exits 0 for a pattern
# that matches nothing, so a renamed suite would silently drop out of a
# filtered CI step.
#
#   scripts/run_gtest_filter.sh <gtest binary> <filter> [gtest flags...]
set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <gtest binary> <filter> [gtest flags...]" >&2
  exit 2
fi
BINARY=$1
FILTER=$2
shift 2

# Patterns after a '-' exclude tests; only the positive ones must match.
IFS=':' read -r -a patterns <<<"${FILTER%%-*}"
for pattern in "${patterns[@]}"; do
  listed=$("$BINARY" --gtest_list_tests --gtest_filter="$pattern" |
           grep -c '^  ')
  if [ "$listed" -eq 0 ]; then
    echo "error: --gtest_filter pattern '$pattern' selects no test in $BINARY" >&2
    exit 1
  fi
done
exec "$BINARY" --gtest_filter="$FILTER" "$@"
