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

echo "== one state cache =="
# DESIGN.md §13: shard workers are stateless scanners and the session
# cache is the only place a state is kept. (a) internal/shard creates and
# reads no cache. (b) The removed per-shard cache API and its metric
# families are named only in the history files.
stray=$(grep -rnE 'cache\.New\(|\.(LookupAll|StoreAll|Probe)\(' --include='*.go' internal/shard | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
  err "internal/shard keeps no state cache, found:" "$stray"
fi
gone=$(grep -rnE 'ClearShardWorker|ClearShardCaches|ShardWorkerCache|sudaf_shard_(full_hits|state_hits|entries_maintained)_total' \
  --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' . .github |
  grep -vE '^\./(CHANGES|EXPERIMENTS|ROADMAP|ISSUE|REVIEW)\.md:|^\./ci/check_docs\.sh:' || true)
if [ -n "$gone" ]; then
  err "removed per-shard cache API is still named:" "$gone"
fi

echo "== one data key =="
# DESIGN.md §4: exec.DataKey is the one description of a data part. (a)
# Its String() is the only producer of key text: the text's "T[" and
# "|W[" delimiters appear in exactly one non-test Go file, the one that
# defines it. (b) The descriptions the key replaced, and the parsers that
# read them back out of text, are named only in the history files.
home=$(grep -rl --include='*.go' 'func (k \*DataKey) String()' internal/exec || true)
text=$(grep -rlF -e '"T[' -e '"|W[' --include='*.go' . | grep -v '_test\.go$' || true)
if [ -z "$home" ] || [ "$text" != "./$home" ]; then
  err "key text is built only by DataKey.String (${home:-not found}), found in:" $text
fi
gone=$(grep -rnE '\b(fpReferences|shareFingerprint|DataInfo|TableEpochs|splitJoin|splitQualified)\b' \
  --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' . .github |
  grep -vE '^\./(CHANGES|EXPERIMENTS|ROADMAP|ISSUE|REVIEW)\.md:|^\./ci/check_docs\.sh:' || true)
if [ -n "$gone" ]; then
  err "the replaced data-part descriptions are still named:" "$gone"
fi

echo "== one predicate compiler =="
# DESIGN.md §8 "Filter evaluation": a WHERE clause compiles to block
# kernels only. (a) The per-row closure compiler it replaced is named
# nowhere in non-test internal/exec. (b) No per-row matcher, a
# func(int32) bool, is defined there.
stray=$(grep -rnwE 'compilePred|cmpConst|cmpFloat' --include='*.go' internal/exec | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
  err "filters compile through compileFilter alone, found the per-row compiler:" "$stray"
fi
stray=$(grep -rnE 'func\(int32\) bool' --include='*.go' internal/exec | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
  err "no per-row func(int32) bool matcher in internal/exec, found:" "$stray"
fi

echo "== a cache lookup never writes =="
# DESIGN.md §11 "EXPLAIN as a read-only rendering": a shared or sign-split
# hit computes r(s) when read with the decision's own r. (a) Non-test
# internal/cache neither imports the symbolic space nor names the removed
# derived-state store. (b) LookupAll's body adds no state and runs no
# eviction.
stray=$(grep -rnE 'internal/symbolic|\b(storeDerived|sameBase|ShareVia)\b' --include='*.go' internal/cache | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
  err "internal/cache applies the direct decision's r alone, found:" "$stray"
fi
body=$(awk '/^func \(c \*Cache\) LookupAll\(/ { on = 1 } on { print } on && /^}/ { exit }' internal/cache/cache.go)
if [ -z "$body" ]; then
  err "Cache.LookupAll not found in internal/cache/cache.go"
elif echo "$body" | grep -nE 'AddState\(|\.evict\(' >/dev/null; then
  err "Cache.LookupAll writes the entry:" "$(echo "$body" | grep -nE 'AddState\(|\.evict\(')"
fi

echo "== a built-in aggregate is defined once =="
# DESIGN.md §2: every mode runs a SQL built-in through its canonical form,
# read from one table. (a) The hand-written baseline kernels, their name
# table and the second form table are named only in the history files.
# (b) The alias "stddev_pop" is spelled in exactly one non-test Go file,
# the table's.
gone=$(grep -rnE '\b(BuiltinTask|BuiltinKind|LookupBuiltin|builtinFormDef)\b' \
  --include='*.go' --include='*.md' --include='*.sh' --include='*.yml' . .github |
  grep -vE '^\./(CHANGES|EXPERIMENTS|ROADMAP|ISSUE|REVIEW)\.md:|^\./ci/check_docs\.sh:' || true)
if [ -n "$gone" ]; then
  err "the removed second definition of the built-ins is still named:" "$gone"
fi
spelled=$(grep -rlF '"stddev_pop"' --include='*.go' . | grep -v '_test\.go$' || true)
if [ "$(echo "$spelled" | grep -c .)" -ne 1 ]; then
  err "built-in names are spelled in one non-test Go file, \"stddev_pop\" is in:" $spelled
fi

echo "== a cache read verifies what it serves =="
# DESIGN.md §7 "Cache degradation": a state column is checksummed when a
# read is about to serve it, through resolve's per-call verifier. (a) The
# whole-entry sweep and the eager health map are named nowhere in non-test
# internal/cache. (b) LookupAll, Probe and ProbeFinal do not loop over an
# entry's states verifying them.
stray=$(grep -rnwE 'sweepCorrupt|healthyStates' --include='*.go' internal/cache | grep -v '_test\.go:' || true)
if [ -n "$stray" ]; then
  err "cache reads verify only the states they serve, found a whole-entry check:" "$stray"
fi
for fn in LookupAll Probe ProbeFinal; do
  body=$(awk -v fn="$fn" '$0 ~ "^func \\(c \\*Cache\\) " fn "\\(" { on = 1 } on { print } on && /^}/ { exit }' internal/cache/cache.go)
  if [ -z "$body" ]; then
    err "Cache.$fn not found in internal/cache/cache.go"
  elif echo "$body" | grep -qE 'range [A-Za-z.]*\.states\b' && echo "$body" | grep -qiE 'verif|ChecksumVals'; then
    err "Cache.$fn loops over the entry's states verifying them:" "$(echo "$body" | grep -nE 'range [A-Za-z.]*\.states\b')"
  fi
done

echo "== a frame is encoded once =="
# DESIGN.md §4 "One frame codec": every result frame is written by
# appendFrame, byte-identical to encoding/json without calling it. (a) The
# frame-write path (WriteFrame, writeFrame, appendFrame) makes no
# encoding/json call. (b) Non-test internal/server defines no second frame
# encoder: no MarshalJSON, no other function turning a *Frame into bytes,
# appendFrame called from writeFrame alone, and the one encoding/json
# encoder left (writeJSON's, for request-level bodies) never handed a frame.
for fn in WriteFrame writeFrame appendFrame; do
  body=$(awk -v fn="$fn" '$0 ~ "^func " fn "\\(" { on = 1 } on { print } on && /^}/ { exit }' internal/server/protocol.go)
  if [ -z "$body" ]; then
    err "$fn not found in internal/server/protocol.go"
  elif echo "$body" | grep -qE 'json\.'; then
    err "$fn calls encoding/json:" "$(echo "$body" | grep -nE 'json\.')"
  fi
  if [ "$fn" = writeFrame ] && ! echo "$body" | grep -qE '[^A-Za-z_]appendFrame\('; then
    err "writeFrame does not encode through appendFrame"
  fi
done
srv_go=$(ls internal/server/*.go | grep -v '_test\.go$')
stray=$(grep -nE 'MarshalJSON|^func [A-Za-z_]+\([^)]*\*Frame[^)]*\) \(?\[\]byte|json\.(Marshal|MarshalIndent)\(|writeJSON\([^)]*Frame' $srv_go |
  grep -vE ':func appendFrame\(' || true)
if [ -n "$stray" ]; then
  err "appendFrame is the one frame encoder, found another:" "$stray"
fi
callers=$(grep -nE '[^A-Za-z_]appendFrame\(' $srv_go | grep -vE ':func appendFrame\(' || true)
if [ "$(echo "$callers" | grep -c .)" -ne 1 ]; then
  err "appendFrame is called from writeFrame alone, found:" "$callers"
fi
encoders=$(grep -nE 'json\.NewEncoder\(' $srv_go || true)
if [ "$(echo "$encoders" | grep -c .)" -gt 1 ]; then
  err "internal/server has one encoding/json encoder (writeJSON's), found:" "$encoders"
fi

if [ "$fail" -ne 0 ]; then
  echo "documentation checks failed" >&2
  exit 1
fi
echo "docs OK"
