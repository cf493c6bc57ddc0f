#!/usr/bin/env bash
# netlines prints the lines added and removed between BASE (any git
# revision) and the working tree, split into non-test Go, test Go and
# testdata. The perfbench/ module is excluded, and files only count once
# git tracks them (git add new files first).
#
# Usage: scripts/netlines.sh BASE
set -euo pipefail

cd "$(dirname "$0")/.."

BASE="${1:?usage: scripts/netlines.sh BASE}"

git diff --numstat "$BASE" -- . ':(exclude)perfbench' | awk '
$1 == "-" { next } # binary file
{
    if ($3 ~ /(^|\/)testdata\//) kind = "testdata"
    else if ($3 ~ /_test\.go$/) kind = "test Go"
    else if ($3 ~ /\.go$/) kind = "non-test Go"
    else next
    added[kind] += $1
    removed[kind] += $2
}
END {
    printf "%-12s %8s %8s %8s\n", "", "added", "removed", "net"
    n = split("non-test Go,test Go,testdata", kinds, ",")
    for (i = 1; i <= n; i++) {
        k = kinds[i]
        printf "%-12s %8d %8d %+8d\n", k, added[k], removed[k], added[k] - removed[k]
    }
}'
