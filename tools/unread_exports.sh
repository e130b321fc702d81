#!/usr/bin/env bash
# Lists every value exported by a lib/**/*.mli that no code in lib/ or bin/
# reads outside its own module, and diffs that list against
# tools/unread_exports.allow.
#
# A file reads [name], exported by module [M], when, outside comments and
# string literals, it has
#   - [M.name] (the last module of a path: [Rofl_netsim.Engine.now] reads
#     Engine's [now]);
#   - [A.name], where the file binds [module A = ...M] or applies a functor
#     of M ([module W = Walk.Make (S)] makes [W.walk] a read of Walk's
#     [walk]);
#   - a bare [name], where the file has [open M], [include M], [M.( ... )]
#     or [let open M in];
# each only in expression position: a name in a type (after a [:] that is
# not a label's, after [of], or in a [type ... =] declaration) reads no
# value.
# A [val] inside a [module type] is not an export; one inside a submodule
# signature ([module Make (S : SUBSTRATE) : sig ... end]) is read through
# the file's module or the submodule's name.
#
# Each allowlist line is "path name # reason".  A kept export's reason is
# its bin tag, "(a) reference", "(a) test hook", "(a) perfbench" and so on;
# the why itself is the value's doc comment, which must say "Kept ..." or
# "Exported for tests ...".  Bin (b), a helper that only builds test state,
# lives in test/ and needs no line.  Dead code, bin (c), is deleted, not
# parked: a line tagged "(c)" fails, and so does an export that nothing
# reads at all, tests, bench, perfbench and examples included.  The script
# also fails when an export is unread and not allowlisted, when an
# allowlisted export has gained a reader (or is gone), when an allowlist
# line gives no reason, and when a kept export's doc comment gives none.
#
# Usage: bash tools/unread_exports.sh [ROOT]
#   ROOT is the tree to check (default: the repository root); its allowlist
#   is ROOT/tools/unread_exports.allow, and a missing one is empty.
set -eu
cd "${1:-$(dirname "$0")/..}"
allow=tools/unread_exports.allow
[ -f "$allow" ] || allow=/dev/null

# "path name read" for each export that lib/ and bin/ do not read, where
# "read" is "none" when no other directory reads it either.
unread() {
  find lib bin test bench perfbench examples -name '*.ml' -o -name '*.mli' 2>/dev/null |
    sort | xargs awk '
    # Blank out comments (nested) and string and char literals, keeping
    # [cdepth] and [instr] across the lines of one file.
    function strip(s,   out, i, n, c, d, j) {
      if (!cdepth && !instr && !index(s, "(*") && !index(s, "\"") && !index(s, "'\''"))
        return s
      out = ""; n = length(s); i = 1
      while (i <= n) {
        c = substr(s, i, 1)
        if (instr) {
          if (c == "\\") i++
          else if (c == "\"") instr = 0
          i++; continue
        }
        d = substr(s, i, 2)
        if (d == "(*") { cdepth++; i += 2; continue }
        if (cdepth && d == "*)") { cdepth--; i += 2; continue }
        if (c == "\"") { instr = 1; i++; out = out " "; continue }
        if (c == "'\''" && (i == 1 || substr(s, i - 1, 1) !~ /[A-Za-z0-9_'\'']/)) {
          if (substr(s, i + 2, 1) == "'\''") { i += 3; out = out " "; continue }
          if (substr(s, i + 1, 1) == "\\") {
            j = index(substr(s, i + 2), "'\''")
            if (j) { i += j + 2; out = out " "; continue }
          }
        }
        if (!cdepth) out = out c
        i++
      }
      return out
    }
    function modname(path,   b) {
      b = path; sub(/.*\//, "", b); sub(/\.mli?$/, "", b)
      return toupper(substr(b, 1, 1)) substr(b, 2)
    }
    function stem(path,   b) { b = path; sub(/\.mli?$/, "", b); return b }
    function add(list, item) { return index(list " ", " " item " ") ? list : list " " item }
    # Module path "A.B.C" as the space-separated list " A B C".
    function comps(p,   k, parts, r, i) {
      k = split(p, parts, "."); r = ""
      for (i = 1; i <= k; i++) if (parts[i] != "") r = r " " parts[i]
      return r
    }
    # Type context: [tdecl] inside a type declaration, [ann] inside a type
    # annotation opened at bracket depth [annd] ([pd] is the current one).
    function gap(g,   i, c) {
      for (i = 1; i <= length(g); i++) {
        c = substr(g, i, 1)
        if (c ~ /[([{]/) pd++
        else if (c ~ /[)\]}]/) { pd--; if (ann && pd < annd) ann = 0 }
        else if (c == ":") {
          if (substr(g, i + 1, 1) ~ /[:=]/) i++
          else if (!(i == 1 && label) && !ann) { ann = 1; annd = pd }
        }
        else if (c ~ /[=;|]/ && ann && pd <= annd) ann = 0
      }
    }
    function word(w, g) {
      if (w == "type" && pw != "module" && g !~ /\($/) { tdecl = 1; ann = 0 }
      else if (w == "of") { ann = 1; annd = pd }
      else if (w ~ /^(let|val|in|module|open|include|exception|external|end|struct|sig|and|with|then|else|do|done|match|fun|function|if|begin)$/) {
        ann = 0; if (w != "and") tdecl = 0
      }
      pw = w
    }
    FNR == 1 { cdepth = 0; instr = 0; depth = 0; file = FILENAME; pd = 0; ann = 0; tdecl = 0; pw = ""; label = 0 }
    {
      s = strip($0)
      # Aliases and functor applications: module A = P.Q (args)
      t = s
      while (match(t, /module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_'\''.]*/)) {
        m = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
        sub(/^module[ \t]+/, "", m)
        a = m; sub(/[ \t]*=.*/, "", a)
        p = m; sub(/^[^=]*=[ \t]*/, "", p)
        alias[file, a] = alias[file, a] comps(p)
      }
      # open M, open! M, include M, let open M in
      t = s
      while (match(t, /(open!?|include)[ \t]+[A-Z][A-Za-z0-9_'\''.]*/)) {
        pre = RSTART > 1 ? substr(t, RSTART - 1, 1) : " "
        m = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
        if (pre ~ /[A-Za-z0-9_'\'']/) continue
        sub(/.*[ \t.]/, "", m)
        opens[file] = opens[file] " " m
      }
      # Local opens M.( ... )
      t = s
      while (match(t, /[A-Z][A-Za-z0-9_'\''.]*\.\(/)) {
        m = substr(t, RSTART, RLENGTH - 2); t = substr(t, RSTART + RLENGTH)
        sub(/.*\./, "", m)
        opens[file] = opens[file] " " m
      }
      # Qualified names P.M.name, and bare names
      t = s; last = " "
      while (match(t, /[A-Za-z_][A-Za-z0-9_'\'']*(\.[A-Za-z_][A-Za-z0-9_'\'']*)*/)) {
        pre = RSTART > 1 ? substr(t, RSTART - 1, 1) : last
        g = substr(t, 1, RSTART - 1); gap(g)
        m = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
        last = substr(m, length(m), 1)
        if (pre == ".") continue
        label = pre ~ /[~?]/
        k = split(m, parts, ".")
        n = parts[k]
        if (k == 1) word(n, g)
        if (n !~ /^[a-z_]/ || tdecl || ann) continue
        if (k == 1) { if (!((file, n) in bare)) { bare[file, n] = 1; bares[n] = bares[n] " " file } }
        else {
          q = parts[k - 1]
          if (q ~ /^[A-Z]/ && !((file, q, n) in qual)) {
            qual[file, q, n] = 1; quals[n] = quals[n] " " file "|" q
          }
        }
      }
      gap(t)
      # Exports: the vals of lib/**/*.mli outside any module type.
      if (file ~ /^lib\/.*\.mli$/) {
        t = s; prev = ""; pend = ""
        while (match(t, /[A-Za-z_][A-Za-z0-9_'\'']*/)) {
          w = substr(t, RSTART, RLENGTH); t = substr(t, RSTART + RLENGTH)
          if (prev == "module") pend = (w == "type") ? "-" : w
          else if (w == "sig") { depth++; frame[depth] = pend; pend = "" }
          else if (w == "end" && depth > 0) depth--
          else if (prev == "val" && w ~ /^[a-z_]/) {
            inmt = 0; qs = " " modname(file)
            for (i = 1; i <= depth; i++) {
              if (frame[i] == "-") inmt = 1
              else if (frame[i] != "") qs = qs " " frame[i]
            }
            if (!inmt && !((file, w) in isexp)) {
              isexp[file, w] = 1; ne++; ename[ne] = w; efile[ne] = file; equal[ne] = qs " "
            }
          }
          prev = w
        }
      }
    }
    # The modules a module path [q] may name in [f]: itself and, if it is
    # an alias there, every module of the aliased path.
    function resolve(f, q) { return " " q ((f, q) in alias ? alias[f, q] : "") " " }
    function hits(f, q, qs,   k, cs, i) {
      k = split(resolve(f, q), cs, " ")
      for (i = 1; i <= k; i++) if (index(qs, " " cs[i] " ")) return 1
      return 0
    }
    function dir(f) { sub(/\/.*/, "", f); return f }
    END {
      for (e = 1; e <= ne; e++) {
        n = ename[e]; own = stem(efile[e]); qs = equal[e]; readers = ""
        k = split(quals[n], rs, " ")
        for (i = 1; i <= k; i++) {
          split(rs[i], fq, "|")
          if (stem(fq[1]) != own && hits(fq[1], fq[2], qs)) readers = add(readers, dir(fq[1]))
        }
        k = split(bares[n], rs, " ")
        for (i = 1; i <= k; i++) {
          if (stem(rs[i]) == own || !(rs[i] in opens)) continue
          ko = split(opens[rs[i]], os, " ")
          for (j = 1; j <= ko; j++)
            if (hits(rs[i], os[j], qs)) { readers = add(readers, dir(rs[i])); break }
        }
        if (index(readers " ", " lib ") || index(readers " ", " bin ")) continue
        print efile[e], n, (readers == "" ? "none" : "elsewhere")
      }
    }' | sort
}

status=0
if grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$' > /dev/null; then
  echo "allowlist lines without the form \"path name # reason\":"
  grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$'
  status=1
fi
if grep -E '^[^ #]+ [^ #]+ # \(c\)' "$allow" > /dev/null; then
  echo "allowlist lines parking dead exports (delete the export and its tests):"
  grep -E '^[^ #]+ [^ #]+ # \(c\)' "$allow"
  status=1
fi
all=$(unread)
dead=$(echo "$all" | awk '$3 == "none" { print $1, $2 }')
got=$(echo "$all" | awk '$3 != "none" && NF { print $1, $2 }')
want=$(sed -nE 's/^([^ #]+) ([^ #]+) # .*/\1 \2/p' "$allow" | sort)
new=$(comm -23 <(echo "$got") <(echo "$want") | grep . || true)
stale=$(comm -13 <(echo "$got") <(echo "$want") | comm -23 - <(echo "$dead") | grep . || true)
if [ -n "$dead" ]; then
  echo "exports nothing reads, tests included (delete them and the tests whose only subject they are):"
  echo "$dead"
  status=1
fi
if [ -n "$new" ]; then
  echo "exports with no reader in lib/ or bin/ (delete them, or allowlist them with a reason):"
  echo "$new"
  status=1
fi
if [ -n "$stale" ]; then
  echo "allowlisted exports that now have a reader in lib/ or bin/ or no longer exist (drop their lines):"
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
