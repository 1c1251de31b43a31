#!/usr/bin/env bash
# Documentation drift checks, run as part of the default ctest suite
# (test name: check_docs):
#   1. every relative markdown link resolves to an existing file;
#   2. every LO_* environment knob referenced anywhere in the code
#      appears in docs/tuning.md, the canonical knob table;
#   3. every `LO_*` knob docs/tuning.md names is still read by the code.
set -u

# Resolve the repo root from the script's own (symlink-free) location,
# never from the caller's working directory — ctest runs tests from the
# build tree, and a cwd-relative root silently skipped docs/ there.
script="${BASH_SOURCE[0]:-$0}"
while [ -h "$script" ]; do
  dir="$(cd "$(dirname "$script")" && pwd)"
  script="$(readlink "$script")"
  case "$script" in
    /*) ;;
    *) script="$dir/$script" ;;
  esac
done
root="$(cd "$(dirname "$script")/.." && pwd)"

broken=$(
  # Every markdown file in the tree, however deeply nested, excluding
  # build trees and VCS internals.
  find "$root" \
    -name '.git' -prune -o -name 'build*' -prune -o \
    -name '*.md' -print | while read -r md; do
    dir="$(dirname "$md")"
    # Every [text](target); external URLs and in-page anchors excluded.
    # Fenced code blocks are stripped first: C++ lambdas (`[](...)`)
    # would otherwise read as markdown links.
    awk '/^[[:space:]]*```/ { in_code = !in_code; next } !in_code' "$md" |
      grep -oE '\]\([^)#? ]+' | sed 's/^](//' | while read -r link; do
      case "$link" in
        http://* | https://* | mailto:*) continue ;;
      esac
      if [ ! -e "$dir/$link" ]; then
        echo "BROKEN: ${md#"$root"/} -> $link"
      fi
    done
  done
)

if [ -n "$broken" ]; then
  echo "$broken"
  exit 1
fi
echo "all documentation links resolve"

# Knob drift, both ways: every LO_* environment variable the code reads
# must be documented in docs/tuning.md, and every `LO_*` knob that file
# names must still be read by the code, so a deleted knob cannot linger
# in the manual. Only quoted literals in C++ sources count — a quoted
# LO_ name is a getenv-style knob; bare LO_ tokens are macros (LO_CHECK,
# LO_SERVER_BIN_DEFAULT) and compile-time identifiers, not knobs.
tuning="$root/docs/tuning.md"
if [ ! -f "$tuning" ]; then
  echo "MISSING: docs/tuning.md (canonical knob table)"
  exit 1
fi
code_knobs=$(
  grep -rhoE --include='*.cpp' --include='*.cc' --include='*.h' \
    '"LO_[A-Z_]+"' \
    "$root/src" "$root/bench" "$root/tools" "$root/tests" 2>/dev/null |
    tr -d '"' | sort -u
)
doc_knobs=$(grep -oE '`LO_[A-Z_]+' "$tuning" | tr -d '`' | sort -u)
missing=$(comm -23 <(echo "$code_knobs") <(echo "$doc_knobs"))
if [ -n "$missing" ]; then
  echo "UNDOCUMENTED KNOBS (add them to docs/tuning.md):" $missing
  exit 1
fi
echo "all LO_* knobs are documented in docs/tuning.md"
stale=$(comm -13 <(echo "$code_knobs") <(echo "$doc_knobs"))
if [ -n "$stale" ]; then
  echo "STALE KNOBS (docs/tuning.md names them; no code reads them):" $stale
  exit 1
fi
echo "every LO_* knob in docs/tuning.md is read by the code"
