#!/usr/bin/env bash
# Counts what ROADMAP aim 2 measures in a casper tree: `scripts/census.sh <tree>`
# (run it on the parent and on the change, and compare).
# non-test = .rs files outside crates/loadgen, target/, any tests/ or benches/
# directory, each cut at its first `#[cfg(test)]` line.
# pub item = a line `pub <kw>` with kw in const fn struct enum trait type mod use
# (after optional `async`/`unsafe`); pub(crate)/pub(super) excluded.
# pub type = pub struct | enum | trait | type.
# settable value = a `pub` field of a `pub struct *Config` plus a `pub fn with_*`
# or `pub fn set_*` method.
set -euo pipefail
cd "$1"
files=$(find . -name '*.rs' -not -path './target/*' -not -path './crates/loadgen/*' \
  -not -path '*/tests/*' -not -path '*/benches/*' | sort)
nontest() { awk '/^[[:space:]]*#\[cfg\(test\)\]/{exit} {print}' "$1"; }
lines=0; pub_all=0; pub_core=0; types_core=0; settable=0
for f in $files; do
  body=$(nontest "$f")
  n=$(printf '%s\n' "$body" | wc -l); lines=$((lines + n))
  p=$(printf '%s\n' "$body" | grep -cE '^\s*pub (async |unsafe )?(const|fn|struct|enum|trait|type|mod|use)\b' || true)
  pub_all=$((pub_all + p))
  case "$f" in ./crates/core/src/*)
    pub_core=$((pub_core + p))
    t=$(printf '%s\n' "$body" | grep -cE '^\s*pub (struct|enum|trait|type)\b' || true)
    types_core=$((types_core + t));;
  esac
  s=$(printf '%s\n' "$body" | grep -cE '^\s*pub fn (with|set)_' || true)
  c=$(printf '%s\n' "$body" | awk '
    /^\s*pub struct [A-Za-z]*Config\b.*\{\s*$/ {inside=1; next}
    inside && /^\s*\}/ {inside=0; next}
    inside && /^\s*pub [a-z_][a-z0-9_]*:/ {n++}
    END {print n+0}')
  settable=$((settable + s + c))
done
echo "non_test_rust_lines_outside_loadgen $lines"
echo "pub_items_outside_loadgen $pub_all"
echo "pub_items_core_src $pub_core"
echo "pub_types_core_src $types_core"
echo "settable_values $settable"
