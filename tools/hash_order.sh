#!/usr/bin/env bash
# Fails on every iteration of a generic hash table in lib/ -- a call of
# [Hashtbl.iter], [Hashtbl.fold], [Hashtbl.to_seq], [Hashtbl.to_seq_keys]
# or [Hashtbl.to_seq_values] outside comments and string literals -- that
# tools/hash_order.allow does not list.
#
# The order such a call visits a table in depends on the hash seed, which
# OCAMLRUNPARAM's R flag randomises, so a result built in that order is not
# a function of the experiment's seed alone.  Where an order decides a
# result, the code keeps an explicit one (draw order, discovery order,
# identifier order) instead.  A site stays only when its result is
# order-free: a sum, a minimum, or a list sorted next.
#
# Tables made by [Hashtbl.Make] ([Vnode_table], [Idtbl], [Inttbl]) hash
# with their functor argument's unseeded hash, so R does not change their
# order; this guard does not cover them.  Neither does it follow an alias
# of [Hashtbl] ([module H = Hashtbl]); lib/ has none.
#
# Each allowlist line is "path binding # reason", where [binding] is the
# top-level [let] (or [and]) the site sits in and the reason says why its
# result is order-free.  A binding with two sites needs two lines.  The
# script also fails on a line that matches no site and on a line without
# a reason.
#
# Usage: bash tools/hash_order.sh [ROOT]
#   ROOT is the tree to check (default: the repository root); its allowlist
#   is ROOT/tools/hash_order.allow, and a missing one is empty.
set -eu
cd "${1:-$(dirname "$0")/..}"
allow=tools/hash_order.allow
[ -f "$allow" ] || allow=/dev/null

# "path binding line" for each site.
sites() {
  find lib -name '*.ml' 2>/dev/null | sort | xargs -r awk '
    # Blank out comments (nested) and string literals, keeping [cdepth]
    # and [instr] across the lines of one file.
    function strip(s,   out, i, n, c, d) {
      if (!cdepth && !instr && !index(s, "(*") && !index(s, "\"")) return s
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
        if (c == "\"" && substr(s, i - 1, 1) != "'\''") { instr = 1; i++; out = out " "; continue }
        if (!cdepth) out = out c
        i++
      }
      return out
    }
    FNR == 1 { cdepth = 0; instr = 0; binding = "-" }
    {
      s = strip($0)
      if (s ~ /^(let|and)[ \t]/) {
        b = s; sub(/^(let|and)[ \t]+(rec[ \t]+)?/, "", b)
        binding = match(b, /^[a-z_][A-Za-z0-9_'\'']*/) ? substr(b, RSTART, RLENGTH) : "-"
      }
      t = " " s " "
      while (match(t, /[^A-Za-z0-9_'\'']Hashtbl\.(iter|fold|to_seq|to_seq_keys|to_seq_values)[^A-Za-z0-9_'\'']/)) {
        print FILENAME, binding, FNR
        t = substr(t, RSTART + RLENGTH - 1)
      }
    }'
}

status=0
if grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$' > /dev/null; then
  echo "allowlist lines without the form \"path binding # reason\":"
  grep -vE '^[^ #]+ [^ #]+ # [^ ].*' "$allow" | grep -v '^$'
  status=1
fi
all=$(sites)
got=$(echo "$all" | awk 'NF { print $1, $2 }' | sort)
want=$(sed -nE 's/^([^ #]+) ([^ #]+) # .*/\1 \2/p' "$allow" | sort)
new=$(comm -23 <(echo "$got") <(echo "$want") | grep . || true)
stale=$(comm -13 <(echo "$got") <(echo "$want") | grep . || true)
if [ -n "$new" ]; then
  echo "hash-table iteration whose order may decide a result (give it an explicit order, or allowlist it with why its result is order-free):"
  echo "$new" | sort -u | while read -r path binding; do
    echo "$all" | awk -v p="$path" -v b="$binding" '$1 == p && $2 == b { print $1 ":" $3 " (in " $2 ")" }'
  done
  status=1
fi
if [ -n "$stale" ]; then
  echo "allowlist lines that match no site (drop them):"
  echo "$stale"
  status=1
fi
[ "$status" = 0 ] && echo "hash-order sites: $(echo "$want" | grep -c .) allowlisted, none new"
exit "$status"
