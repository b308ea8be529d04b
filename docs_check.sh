#!/bin/sh
# docs-check: fail on broken intra-repo links in tracked Markdown files
# and on flag tables that disagree with the binaries.
#
# Every inline Markdown link target [text](target) that is not an
# external URL or a pure in-page anchor must resolve to a file or
# directory relative to the linking file (anchors are stripped before
# the check). Chained into `make ci` so a doc move or rename cannot
# silently orphan references.
#
# Every backticked -flag in the first column of a table under a
# "### <binary> ..." heading of the operations runbook must be defined by
# a flag.*("name", ...) call in cmd/<binary>/main.go, and every flag
# defined there must have a row under one of that binary's headings. A
# table for a binary that no longer exists is a failure, not a skip.
#
# Every `zoomer-<name>` or `graphgen` named in the runbook, docs/*.md,
# the examples' READMEs, deploy/* or a cmd/*/main.go doc comment must
# have a cmd/<name>/ — a deleted binary cannot linger in the docs.
#
# Every backticked `<pkg>.<Name>` or `<pkg>.<Type>.<Member>` in the
# architecture doc and the runbook whose <pkg> is a directory under
# internal/ must resolve with `go doc zoomer/internal/<pkg> <Name>` — a
# deleted or renamed type, function, method or field cannot linger.
#
# Every package under internal/ must be reached by a binary or example
# (go list -deps ./cmd/... ./examples/...) or by the benchmark rig, a
# separate module under benchmark/ — a package nothing runs cannot stay.
#
# Usage: ./docs_check.sh [operations.md]   (default docs/OPERATIONS.md)
set -eu

ops=${1:-docs/OPERATIONS.md}

fail=0
for f in $(git ls-files '*.md'); do
	dir=$(dirname "$f")
	# One link target per line: grab "](target)" and strip the wrapping.
	for link in $(grep -oE '\]\([^() ]+\)' "$f" | sed -e 's/^](//' -e 's/)$//'); do
		case "$link" in
		http://* | https://* | mailto:*) continue ;; # external
		\#*) continue ;;                             # in-page anchor
		esac
		target=${link%%#*}
		[ -z "$target" ] && continue
		if [ ! -e "$dir/$target" ]; then
			echo "docs-check: $f: broken link -> $link" >&2
			fail=1
		fi
	done
done

# "binary flag" pairs, one per line, from the runbook's flag tables.
documented=$(awk '
	/^#/ { bin = ""; if ($1 == "###") bin = $2 }
	bin != "" && /^\| *`-/ {
		split($0, cols, "|")
		n = split(cols[2], toks, "`")
		for (i = 2; i <= n; i += 2) {
			f = toks[i]
			sub(/ .*/, "", f) # `-admin addr` documents -admin
			if (f ~ /^-/) print bin, substr(f, 2)
		}
	}' "$ops" | sort -u)
for bin in $(echo "$documented" | cut -d' ' -f1 | sort -u); do
	main=cmd/$bin/main.go
	if [ ! -f "$main" ]; then
		echo "docs-check: $ops has a flag table for $bin, but there is no $main" >&2
		fail=1
		continue
	fi
	defined=$(grep -oE 'flag\.[A-Za-z0-9]+\("[^"]+"' "$main" | sed -e 's/.*("//' -e 's/"$//' | sort -u)
	for f in $(echo "$documented" | sed -n "s/^$bin //p"); do
		if ! echo "$defined" | grep -qx -- "$f"; then
			echo "docs-check: $ops documents -$f for $bin, but $main defines no such flag" >&2
			fail=1
		fi
	done
	for f in $defined; do
		if ! echo "$documented" | grep -qx -- "$bin $f"; then
			echo "docs-check: $main defines -$f, but $ops has no row for it under a \"### $bin\" heading" >&2
			fail=1
		fi
	done
done

# Every binary the docs name must exist. Go sources contribute only
# their doc comment (everything above the package clause), so model
# names like "zoomer-fe" in code do not count.
for f in $(printf '%s\n' "$ops" docs/*.md $(git ls-files 'examples/*/README.md' 'deploy/*' 'cmd/*/main.go') | sort -u); do
	case "$f" in
	*.go) text=$(sed '/^package /q' "$f") ;;
	*) text=$(cat "$f") ;;
	esac
	for name in $(echo "$text" | grep -owE 'zoomer-[a-z]+|graphgen' | sort -u); do
		if [ ! -d "cmd/$name" ]; then
			echo "docs-check: $f names $name, but there is no cmd/$name/" >&2
			fail=1
		fi
	done
done

# Every Go name the design docs quote must exist. One backticked span per
# line; a trailing call's argument list is dropped before the lookup.
for f in docs/ARCHITECTURE.md "$ops"; do
	for ref in $(grep -oE '`[^`]+`' "$f" | tr -d '`' | sed -e 's/(.*$//' |
		grep -E '^[a-z][a-z0-9]*\.[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)?$' | sort -u); do
		pkg=${ref%%.*}
		[ -d "internal/$pkg" ] || continue
		if ! go doc -u "zoomer/internal/$pkg" "${ref#*.}" >/dev/null 2>&1; then
			echo "docs-check: $f names $ref, but go doc finds no such name in internal/$pkg" >&2
			fail=1
		fi
	done
done

# Every internal package must be reachable from something that runs.
reached=$({ go list -deps ./cmd/... ./examples/... && (cd benchmark && go list -deps ./...); } | sort -u)
for pkg in $(go list ./internal/...); do
	if ! echo "$reached" | grep -qx -- "$pkg"; then
		echo "docs-check: $pkg is reached by no cmd/, examples/ or benchmark/ package" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "docs-check: FAILED" >&2
	exit 1
fi
echo "docs-check: all intra-repo Markdown links resolve, the flag tables match the binaries, every named binary exists, every quoted internal Go name resolves and every internal package is reached"
