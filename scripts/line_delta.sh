#!/usr/bin/env sh
# Added, removed and net lines per top-level directory, from
# `git diff --numstat` between a base revision and the working tree
# (tracked files, including staged new ones; run `git add -A` first to
# count untracked files too).  Any further arguments name paths to leave
# out of the count, and files at the repository root are grouped under
# ".".  Binary files count as zero lines.
# Usage: scripts/line_delta.sh <base-rev> [excluded-path ...]
set -eu

if [ "$#" -lt 1 ]; then
    echo "usage: $0 <base-rev> [excluded-path ...]" >&2
    exit 2
fi

base=$1
shift
for path in "$@"; do
    set -- "$@" ":(exclude)$path"
    shift
done

cd "$(git rev-parse --show-toplevel)"
git diff --numstat --no-renames "$base" -- . "$@" |
awk -F '\t' '
    {
        dir = ($3 ~ /\//) ? substr($3, 1, index($3, "/") - 1) : "."
        added = ($1 == "-") ? 0 : $1
        removed = ($2 == "-") ? 0 : $2
        add[dir] += added
        del[dir] += removed
        total_add += added
        total_del += removed
    }
    END {
        printf "%-16s %8s %8s %8s\n", "directory", "added", "removed", "net"
        for (d in add) {
            printf "%-16s %8d %8d %+8d\n", d, add[d], del[d],
                   add[d] - del[d] | "sort"
        }
        close("sort")
        printf "%-16s %8d %8d %+8d\n", "total", total_add, total_del,
               total_add - total_del
    }'
