#!/usr/bin/env bash
# Documentation checks: vet, local markdown links, and doc-referenced
# identifiers. Run from the repository root (CI does), or from anywhere —
# the script cds to its parent directory. No network, no dependencies
# beyond the go toolchain and POSIX tools.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
err() {
  echo "FAIL: $*" >&2
  fail=1
}

echo "== go vet =="
go vet ./...

echo "== markdown links =="
# Every relative link/image target in tracked markdown must exist.
# External (scheme://) and pure-anchor links are skipped.
for md in *.md docs/*.md; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Extract (target) of [text](target), one per line; tolerate several
  # links per line. Fenced code blocks and inline code spans are stripped
  # first — state keys like sum[ln(x)](price) are not links.
  awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$md" | sed -E 's/`[^`]*`//g' |
    { grep -oE '\]\(([^)#]+)(#[^)]*)?\)' || true; } | sed -E 's/^\]\(//; s/#[^)]*//; s/\)$//' |
    while read -r target; do
      [ -z "$target" ] && continue
      case "$target" in
        *://*|mailto:*) continue ;;
      esac
      if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
        echo "FAIL: $md links to missing file: $target" >&2
        touch .docs-link-failed
      fi
    done
done
if [ -e .docs-link-failed ]; then
  rm -f .docs-link-failed
  fail=1
fi

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
# drift silently when the API changes.
docs="README.md docs/OBSERVABILITY.md docs/SERVING.md docs/WINDOWS.md"
refs=$(grep -ohE '`(sudaf|Engine|Options|Result|Trace|Span|Explain|AppendResult|Server|Client|Config)\.[A-Z][A-Za-z]*' $docs | tr -d '`' | sort -u || true)
for ref in $refs; do
  ident=${ref#*.}
  if ! grep -qrE "(func |func \([^)]*\) |\s)${ident}[[:space:](]" --include='*.go' . ; then
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

echo "== scalar language written once =="
# DESIGN.md §8 "Scalar language": every scalar function and the '^'
# reduction are defined in internal/expr/funcs.go and nowhere else. A
# function name spelled in a second evaluator, or a math.Pow in one of the
# three compilers, is a second definition that can drift from the first.
# (expr/simplify.go names functions to do algebra on them, not to
# evaluate them.)
cbrt_files=$(grep -l '"cbrt"' --include='*.go' -r . | grep -v -e '_test\.go$' -e '^\./internal/expr/simplify\.go$' || true)
if [ "$cbrt_files" != "./internal/expr/funcs.go" ]; then
  err "scalar function \"cbrt\" must be defined in internal/expr/funcs.go only, found in:" $cbrt_files
fi
for f in internal/exec/compile.go internal/exec/batch.go internal/canonical/compile.go; do
  if grep -q 'math\.Pow(' "$f"; then
    err "$f calls math.Pow: take '^' from expr.ConstPow / expr.Funcs[\"pow\"]"
  fi
done

echo "== one measurement contract =="
# PR 19: benchmark/ (BENCHMARK.json) is the only place engine-feature
# performance is measured; cmd/sudaf-bench runs the paper's figures only,
# and the ablation switches only its retired experiments flipped are gone
# from the product surface.
# (a) The removed names appear nowhere but the history files, and the two
# reference switches that remain on exec.Engine are called from tests only.
gone=$(grep -rnE 'SetVectorizedKernels|SetViewRewriting|EnableViews|\bSymbolicL\b' \
  --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' . .github |
  grep -vE '^\./(CHANGES|EXPERIMENTS|ROADMAP|ISSUE|REVIEW)\.md:|^\./ci/check_docs\.sh:' || true)
if [ -n "$gone" ]; then
  err "removed ablation switches are still named:" "$gone"
fi
callers=$(grep -rnE '\.(SetVectorKernels|SetEncodedFolds)\(' --include='*.go' . | grep -v '_test\.go:' || true)
if [ -n "$callers" ]; then
  err "SetVectorKernels/SetEncodedFolds are test-only reference switches, called from:" "$callers"
fi
# (b) Every `-exp <name>` the docs mention is one sudaf-bench accepts.
accepted=" all $(grep -oE '\{\[\]string\{[^}]*\}' cmd/sudaf-bench/main.go | grep -oE '"[a-z0-9]+"' | tr -d '"' | tr '\n' ' ')"
for name in $(grep -ohE -e '-exp [a-z0-9,]+' README.md DESIGN.md docs/*.md .claude/skills/verify/SKILL.md | sed 's/^-exp //' | tr ',' '\n' | sort -u); do
  case "$accepted" in
    *" $name "*) ;;
    *) err "docs mention 'sudaf-bench -exp $name', which cmd/sudaf-bench does not accept" ;;
  esac
done
# (c) cache.LookupAll is the one lookup critical section: the per-state
# and per-entry accessors it replaced have no caller outside the package.
stray=$(grep -rnE '\.(LookupKind|Entry)\(' --include='*.go' . | grep -v '^\./internal/cache/' || true)
if [ -n "$stray" ]; then
  err "cache lookups go through Cache.LookupAll (or Probe), found:" "$stray"
fi

echo "== the terminating function is shared in one place =="
# DESIGN.md §4 "Memoized terminating functions": a hardcoded T runs only
# through the closure canonical.Form.CompileT builds (core memoizes that
# closure's output, it never calls HardT itself), forms carrying one are
# built only in internal/sketch, and the stored columns are internal/cache's
# private state — core reaches them through LookupAll, StoreFinal and
# ProbeFinal alone.
stray=$(grep -rnE '\.HardT\(|HardT:' --include='*.go' . |
  grep -vE '_test\.go:|^\./internal/sketch/|^\./internal/canonical/compile\.go:' || true)
if [ -n "$stray" ]; then
  err "HardT is invoked only by canonical.Form.CompileT and set only in internal/sketch, found:" "$stray"
fi
stray=$(grep -rnw 'finals' --include='*.go' . | grep -vE '_test\.go:|^\./internal/cache/' || true)
if [ -n "$stray" ]; then
  err "memoized finals are internal/cache's private state, named in:" "$stray"
fi

if [ "$fail" -ne 0 ]; then
  echo "documentation checks failed" >&2
  exit 1
fi
echo "docs OK"
