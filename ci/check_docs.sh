#!/usr/bin/env bash
# Documentation checks: local markdown links, README reachability,
# DESIGN.md section numbering, doc-referenced identifiers and metric
# names, sudaf-bench -exp names, and names removed from the code. Facts
# about the code itself ("written once") are checked by internal/archtest
# in the Go tests. Run from the repository root (CI does), or from anywhere —
# the script cds to its parent directory. No network, no dependencies
# beyond POSIX tools.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "FAIL: $*" >&2
  fail=1
}

echo "== markdown links =="
# Every relative link/image target in tracked markdown must exist.
# External (scheme://) and pure-anchor links are skipped.
for md in *.md docs/*.md; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Extract (target) of [text](target), one per line; tolerate several
  # links per line. Fenced code blocks and inline code spans are stripped
  # first — state keys like sum[ln(x)](price) are not links. The loop
  # reads a process substitution, not a pipe, so err runs in this shell.
  while read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      *://*|mailto:*) continue ;;
    esac
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      err "$md links to missing file: $target"
    fi
  done < <(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$md" | sed -E 's/`[^`]*`//g' |
    { grep -oE '\]\(([^)#]+)(#[^)]*)?\)' || true; } | sed -E 's/^\]\(//; s/#[^)]*//; s/\)$//')
done

echo "== README reachability =="
# Every doc under docs/ must be linked (or at least named) from the
# README — an unreferenced doc is invisible to readers and rots.
for md in docs/*.md; do
  [ -f "$md" ] || continue
  if ! grep -q "$md" README.md; then
    err "README.md never references $md"
  fi
done

echo "== DESIGN.md section contiguity =="
# Numbered sections must run 1..N without gaps or duplicates, so PRs
# appending sections cannot silently collide or skip numbers.
want=1
for n in $(grep -oE '^## [0-9]+' DESIGN.md | awk '{print $2}'); do
  if [ "$n" -ne "$want" ]; then
    err "DESIGN.md sections are not contiguous: expected §$want, found §$n"
    want=$((n + 1))
  else
    want=$((want + 1))
  fi
done

echo "== doc-referenced identifiers =="
# Backticked dotted references like `Engine.ServeMetrics`,
# `Options.TraceRate`, `Result.Trace` or `sudaf.Open` in user-facing docs
# must name identifiers that exist in the Go sources, so the docs cannot
# drift silently when the API changes. testdata/ holds seed trees that
# mirror the sources' names, so it does not count.
docs="README.md docs/OBSERVABILITY.md docs/SERVING.md docs/WINDOWS.md"
refs=$(grep -ohE '`(sudaf|Engine|Options|Result|Trace|Span|Explain|AppendResult|Server|Client|Config)\.[A-Z][A-Za-z]*' $docs | tr -d '`' | sort -u || true)
for ref in $refs; do
  ident=${ref#*.}
  if ! grep -qrE "(func |func \([^)]*\) |\s)${ident}[[:space:](]" --include='*.go' --exclude-dir=testdata . ; then
    err "$docs mention \`$ref\` but no Go source defines $ident"
  fi
done

# Metric families documented in OBSERVABILITY.md must be registered in
# the source, and vice versa.
doc_metrics=$(grep -ohE 'sudaf_[a-z_]+_(total|seconds)' docs/OBSERVABILITY.md docs/WINDOWS.md | sort -u)
for m in $doc_metrics; do
  if ! grep -qr --include='*.go' "\"$m\"" internal/; then
    err "docs documents metric $m but no source registers it"
  fi
done
src_metrics=$(grep -ohE '"sudaf_[a-z_]+_(total|seconds)"' internal/core/metrics.go | tr -d '"' | sort -u)
for m in $src_metrics; do
  if ! grep -q "$m" docs/OBSERVABILITY.md; then
    err "metric $m is registered but undocumented in docs/OBSERVABILITY.md"
  fi
done

# Likewise for the serving layer: every sudaf_server_* family mentioned
# in docs/SERVING.md must be registered, and every registered family
# must be documented there. Server families include plain gauges, so
# the pattern is not limited to the _total/_seconds suffixes.
doc_srv=$(grep -ohE 'sudaf_server_[a-z_]+' docs/SERVING.md docs/WINDOWS.md | sort -u)
for m in $doc_srv; do
  if ! grep -qr --include='*.go' "\"$m\"" internal/server/; then
    err "docs/SERVING.md documents metric $m but internal/server does not register it"
  fi
done
srv_metrics=$(grep -ohE '"sudaf_server_[a-z_]+"' internal/server/metrics.go | tr -d '"' | sort -u)
for m in $srv_metrics; do
  if ! grep -q "$m" docs/SERVING.md; then
    err "metric $m is registered but undocumented in docs/SERVING.md"
  fi
done

echo "== sudaf-bench -exp names =="
# cmd/sudaf-bench runs the paper's figures only (benchmark/ measures engine
# features), so every `-exp <name>` the docs mention must be one it accepts.
accepted=" all $(grep -oE '\{\[\]string\{[^}]*\}' cmd/sudaf-bench/main.go | grep -oE '"[a-z0-9]+"' | tr -d '"' | tr '\n' ' ')"
for name in $(grep -ohE -e '-exp [a-z0-9,]+' README.md DESIGN.md docs/*.md .claude/skills/verify/SKILL.md | sed 's/^-exp //' | tr ',' '\n' | sort -u); do
  case "$accepted" in
    *" $name "*) ;;
    *) err "docs mention 'sudaf-bench -exp $name', which cmd/sudaf-bench does not accept" ;;
  esac
done

echo "== removed names appear only in history files =="
# Names that refactors deleted, in code, docs, scripts and CI alike: the
# retired ablation switches, the per-shard cache API and its metric
# families, the data-part descriptions exec.DataKey replaced, and the
# second definition of the built-in aggregates. The short names match
# as whole words only, so live identifiers that contain them pass.
gone='SetVectorizedKernels|SetViewRewriting|EnableViews|ClearShardWorker|ClearShardCaches|ShardWorkerCache'
gone+='|sudaf_shard_(full_hits|state_hits|entries_maintained)_total'
gone+='|\b(SymbolicL|fpReferences|shareFingerprint|DataInfo|TableEpochs|splitJoin|splitQualified'
gone+='|BuiltinTask|BuiltinKind|LookupBuiltin|builtinFormDef)\b'
stray=$(grep -rnE "$gone" --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' . |
  grep -vE '^\./(CHANGES|EXPERIMENTS|ROADMAP|ISSUE|REVIEW)\.md:|^\./ci/check_docs\.sh:' || true)
if [ -n "$stray" ]; then
  err "removed names are still named:" "$stray"
fi

if [ "$fail" -ne 0 ]; then
  echo "documentation checks failed" >&2
  exit 1
fi
echo "docs OK"
