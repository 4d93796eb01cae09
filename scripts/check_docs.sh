#!/usr/bin/env bash
# Docs consistency check, run by the CI docs job:
#  1. README.md and docs/ARCHITECTURE.md must exist and be non-empty.
#  2. Every module directory under src/ must be mentioned in the
#     architecture doc (as `src/<module>`), so the layer map cannot
#     silently rot when a module is added.
#  3. README must link to the architecture doc.
#  4. The architecture doc must keep its "Serving API" section (the
#     QueryService request/response contract) and the README quickstart
#     must speak the QueryService API, not the deprecated batch names.
#  5. Every backticked name in README.md and docs/ARCHITECTURE.md that
#     starts with a capital letter (a type, function or constant, alone or
#     as `Name::member`, optionally with a trailing "()") must still occur
#     as a word in the code: each `::` part must appear somewhere under
#     src/, tests/, bench/, examples/, scripts/ or servebench/. A name the
#     code has deleted therefore fails the check until the docs drop it.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

for f in README.md docs/ARCHITECTURE.md; do
  if [ ! -s "$f" ]; then
    echo "MISSING: $f (required documentation)"
    fail=1
  fi
done
[ "$fail" -ne 0 ] && exit "$fail"

for dir in src/*/; do
  mod="$(basename "$dir")"
  if ! grep -q "src/$mod" docs/ARCHITECTURE.md; then
    echo "STALE: docs/ARCHITECTURE.md does not mention module src/$mod"
    fail=1
  fi
done

if ! grep -q "docs/ARCHITECTURE.md" README.md; then
  echo "STALE: README.md does not link to docs/ARCHITECTURE.md"
  fail=1
fi

if ! grep -q "^## Serving API" docs/ARCHITECTURE.md; then
  echo "STALE: docs/ARCHITECTURE.md lost its 'Serving API' section"
  fail=1
fi
if ! grep -q "^## Resource limits & cancellation" docs/ARCHITECTURE.md; then
  echo "STALE: docs/ARCHITECTURE.md lost its 'Resource limits & cancellation' section"
  fail=1
fi
if ! grep -q "^## Incremental maintenance & subscriptions" docs/ARCHITECTURE.md; then
  echo "STALE: docs/ARCHITECTURE.md lost its 'Incremental maintenance & subscriptions' section"
  fail=1
fi
if ! grep -q "^## Network front end" docs/ARCHITECTURE.md; then
  echo "STALE: docs/ARCHITECTURE.md lost its 'Network front end' section"
  fail=1
fi
for term in QueryService AnswerMode EvalRequest GetOrPlan \
            EvalContext ResponseStatus \
            max_answers deadline \
            Subscribe Publish Poll SubscriptionDelta \
            DeltaEvaluateQuery CatchUp index_delta_appends \
            cqa_server cqa_client AnswerCursor MakeCursors \
            cursor_invalidated TenantAdmission api_key rate_limited; do
  if ! grep -q "$term" docs/ARCHITECTURE.md; then
    echo "STALE: docs/ARCHITECTURE.md does not mention $term"
    fail=1
  fi
done
if ! grep -q "QueryService" README.md; then
  echo "STALE: README.md quickstart does not use QueryService"
  fail=1
fi

code_dirs="src tests bench examples scripts servebench"
for name in $(grep -ohE '`[A-Z][A-Za-z0-9_]*(::[A-Za-z_~][A-Za-z0-9_]*)*(\(\))?`' \
                README.md docs/ARCHITECTURE.md | tr -d '`' | sed 's/()$//' |
                sort -u); do
  for part in ${name//::/ }; do
    if ! grep -rqw -- "$part" $code_dirs; then
      echo "STALE: the docs name \`$name\`, but no code under $code_dirs mentions $part"
      fail=1
      break
    fi
  done
done

if [ "$fail" -eq 0 ]; then
  echo "docs check OK: README + ARCHITECTURE present, all $(ls -d src/*/ | wc -l) modules mentioned"
fi
exit "$fail"
