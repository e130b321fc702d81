#!/usr/bin/env bash
# Lists every value exported by a lib/**/*.mli that no code in lib/ or bin/
# reads outside its own module, and diffs that list against
# tools/unread_exports.allow.  A reader is any whole-word occurrence of the
# value's name in another .ml or .mli file, so a comment or a same-named
# value elsewhere counts as one: the list is a lower bound on what is unread.
#
# Each allowlist line is "path name # reason".  A kept export's reason is
# its bin tag, "(a) reference", "(a) test hook", "(a) perfbench" and so on;
# the why itself is the value's doc comment, which must say "Kept ..." or
# "Exported for tests ...".  A dead export left for a later sweep is tagged
# "(c) next sweep" with the tests that still read it.  The script fails
# when an export is unread and not allowlisted, when an allowlisted export
# has gained a reader (or is gone), when an allowlist line gives no reason,
# and when a kept export's doc comment gives none.
#
# Usage: bash tools/unread_exports.sh            (from the repository root)
set -eu
cd "$(dirname "$0")/.."
allow=tools/unread_exports.allow

unread() {
  # "file name" for each exported value, then "file:word" for each distinct
  # identifier in each source file; awk reports the values whose name occurs
  # in no file but their own .mli and .ml.
  {
    find lib -name '*.mli' | sort | xargs grep -HE "^[[:space:]]*val[[:space:]]+[a-z_]" |
      sed -E "s/^([^:]+):[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/val \1 \2/"
    find lib bin -name '*.ml' -o -name '*.mli' | sort |
      xargs grep -oHE "[A-Za-z_][A-Za-z0-9_']*" | sort -u | sed 's/^\([^:]*\):/word \1 /'
  } | awk '
    $1 == "val" { if (!(($2, $3) in seen)) { seen[$2, $3] = 1; vals[++n] = $2 " " $3 } ; next }
    { own = $2; sub(/\.mli?$/, "", own); files[$3] = files[$3] " " own }
    END {
      for (i = 1; i <= n; i++) {
        split(vals[i], v, " "); mod = v[1]; sub(/\.mli$/, "", mod)
        k = split(files[v[2]], fs, " "); read = 0
        for (j = 1; j <= k; j++) if (fs[j] != mod) { read = 1; break }
        if (!read) print vals[i]
      }
    }' | sort
}

status=0
if grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$' > /dev/null; then
  echo "allowlist lines without the form \"path name # reason\":"
  grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$'
  status=1
fi
got=$(unread)
want=$(sed -nE 's/^([^ #]+) ([^ #]+) # .*/\1 \2/p' "$allow" | sort)
new=$(comm -23 <(echo "$got" | sort) <(echo "$want"))
stale=$(comm -13 <(echo "$got" | sort) <(echo "$want"))
if [ -n "$new" ]; then
  echo "exports with no reader in lib/ or bin/ (delete them, or allowlist them with a reason):"
  echo "$new"
  status=1
fi
if [ -n "$stale" ]; then
  echo "allowlisted exports that now have a reader or no longer exist (drop their lines):"
  echo "$stale"
  status=1
fi
undocumented=$(sed -nE 's/^([^ #]+) ([^ #]+) # \(a\).*/\1 \2/p' "$allow" |
  while read -r path name; do
    # The doc comment follows the val, up to the next item.
    awk -v n="$name" '
      $0 ~ "^[[:space:]]*val[[:space:]]+" n "[[:space:]]*:" { on = 1; next }
      on && /^[[:space:]]*(val|type|module|exception|external|include)[[:space:]]/ { exit }
      on && /Kept|Exported for tests/ { found = 1; exit }
      END { exit !found }' "$path" 2>/dev/null || echo "$path $name"
  done)
if [ -n "$undocumented" ]; then
  echo "kept exports whose doc comment does not say why (\"Kept ...\" or \"Exported for tests ...\"):"
  echo "$undocumented"
  status=1
fi
[ "$status" = 0 ] && echo "unread exports: $(echo "$want" | grep -c .) allowlisted, none new"
exit "$status"
