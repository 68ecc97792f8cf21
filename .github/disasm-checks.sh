#!/usr/bin/env bash
# Reads a release binary's disassembly for what the interval kernels must
# compile to, and exits non-zero when a check fails.
#
#   bash .github/disasm-checks.sh CHECK BINARY
#
# CHECK is one of `gbc`, `lanes`, `epilogues` or `relu` (each below).
#
# The interval kernels' row loops are built twice
# (`crates/device/src/simd.rs`): each build is one never-inlined entry
# point, `simd::baseline` and `simd::avx512`, instantiated once per
# kernel — the GEMM (one launch, `GemmLaunch`, whose full and
# live-column products every GEMM entry runs), GBC's scatter, the
# row blocks of concretize and the bias fold, and a walk's last dense
# step with its candidate (`ConcretizeDense`: the GEMM's column blocks
# over one row block of rows, whose candidates it takes through the
# build's concretize instance) — with the kernel's
# lane loop (`WideAcc::mul_add`; GBC's `WideRow::mul_add`; the row
# blocks' `WideBounds::mul_add_nonzero` and `WideDots::mul_add_nonzero`)
# inlined into it. A
# timing means what it says only while those loops are packed
# `mulpd`/`minpd`/`maxpd`/`addpd`, on `%zmm` registers in the AVX-512
# build: a compare-and-branch per lane runs several times slower, and a
# kernel body that falls out of the target-feature function is
# compiled for the baseline instead; both pass every test.
#
# The rules below find callees by name. A position-independent binary makes
# many of its calls between codegen units through the GOT, as
# `call *0x…(%rip) # <_DYNAMIC+0x…>`, which names no function, so the
# listing first resolves each such slot (`objdump -R`: an
# `R_X86_64_RELATIVE` relocation of the slot to `*ABS*+address`) to the
# function at that address (`nm`) and rewrites the call (or tail jump) as a
# direct one, `call address <symbol>`.
set -euo pipefail

check=${1:?usage: disasm-checks.sh gbc|lanes|epilogues|relu BINARY}
bin=${2:?usage: disasm-checks.sh gbc|lanes|epilogues|relu BINARY}

listing() {
  {
    objdump -R "$bin" | awk '$2 == "R_X86_64_RELATIVE" {
      slot = $1; sub(/^0*/, "", slot)
      to = $3; sub(/^\*ABS\*\+0x0*/, "", to)
      print "slot", slot, to
    }'
    nm "$bin" | awk 'NF == 3 && $2 ~ /^[tTwW]$/ { at = $1; sub(/^0*/, "", at); print "symbol", at, $3 }'
    objdump -d --no-show-raw-insn "$bin"
  } | awk '$1 == "slot" && NF == 3 { slot[$2] = $3; next }
           $1 == "symbol" && NF == 3 { symbol[$2] = $3; next }
           /(call|jmp) +\*0x[0-9a-f]+\(%rip\) +# [0-9a-f]+ </ {
             s = $0; sub(/.*# /, "", s); sub(/ .*/, "", s)
             if (s in slot && slot[s] in symbol) {
               op = $0 ~ /call/ ? "call" : "jmp"
               sub(/(call|jmp) +\*.*/, op "   " slot[s] " <" symbol[slot[s]] ">")
               resolved++
             }
           }
           { print }
           END { if (!resolved) { print "no GOT call resolved" > "/dev/stderr"; exit 1 } }'
}

case "$check" in
# GBC first: a build's GBC instance is the one that calls the
# scatter's out-of-line fallback, `GbcLaunch::position`. Each build
# must have one, and each must carry the packed instructions.
gbc)
  listing | awk '/^[0-9a-f]+ <.*>:$/ {
                   f = $2
                   kind = f ~ /4simd8baseline/ ? "baseline" : f ~ /4simd6avx512/ ? "avx512" : ""
                   if (kind != "") { hits[f] = 0; of[f] = kind }
                   next
                 }
                 kind == "baseline" && /(min|max)pd/ { hits[f]++ }
                 kind == "avx512" && /v(min|max)pd .*%zmm/ { hits[f]++ }
                 kind != "" && /call.*GbcLaunch.*position/ { gbc[f] = 1 }
                 END {
                   for (f in gbc) { print of[f], hits[f], f; builds[of[f]]++; bad = bad || hits[f] == 0 }
                   exit bad || builds["baseline"] < 1 || builds["avx512"] < 1
                 }'
  ;;

# Then every instance of either build: packed, and at least five a
# build (the GEMM — one instance: a launch over raw slices runs it over
# a one-launch `wmax`, the walk's over prepared operands and live
# panels —, GBC, concretize, the bias fold and the last dense step).
#
# The GEMM instances (those that call the product's out-of-line
# per-step chains, `chain_itv_rows` or `chain_live_row`, for a row
# with a non-finite operand) keep their accumulators in registers:
# an epilogue that takes them by reference makes their address
# escape, and every term of the lane loop then stores them to the
# stack. A lane loop is an innermost
# loop — closed by a backward branch, with no call and no other
# backward branch inside — that holds a packed min/max; none may
# store a vector register to `%rsp` after its first min/max. The
# prepared GEMM — the instance that reads a live panel, calling
# `LivePanel::columns`, which a walk's every dense step runs — must
# be found in each build with its three lane loops: the full
# product's column blocks and its last partial block, and the live
# product's blocks. The last dense step — the GEMM instance that
# calls its build's entry, for its candidates — is held to the same
# rule over every lane loop and must be found in each build.
lanes)
  listing | awk '/^[0-9a-f]+ <.*>:$/ {
                   f = $2
                   kind = f ~ /4simd8baseline/ ? "baseline" : f ~ /4simd6avx512/ ? "avx512" : ""
                   if (kind != "") { builds[kind]++; hits[f] = 0; of[f] = kind }
                   next
                 }
                 kind == "baseline" && /(min|max)pd/ { hits[f]++ }
                 kind == "avx512" && /v(min|max)pd .*%zmm/ { hits[f]++ }
                 END {
                   for (f in hits) { print of[f], hits[f], f; bad = bad || hits[f] == 0 }
                   exit bad || builds["baseline"] < 5 || builds["avx512"] < 5
                 }'
  listing | awk 'function before(a, b) { return length(a) < length(b) || (length(a) == length(b) && a < b) }
                 function check(   i, j, t, lane, inner, stores) {
                   if (!gemm) return
                   gemms[kind]++
                   if (prepared) preps[kind]++
                   if (entry) lasts[kind]++
                   for (i = 1; i <= n; i++) {
                     if (ins[i] !~ /^j[a-z]+ +[0-9a-f]+ </) continue
                     split(ins[i], w, " "); t = w[2]
                     if (!before(t, addr[i])) continue
                     lane = 0; inner = 1; stores = ""
                     for (j = 1; j < i; j++) {
                       if (before(addr[j], t)) continue
                       if (ins[j] ~ /^call/) inner = 0
                       if (ins[j] ~ /^j[a-z]+ +[0-9a-f]+ </) { split(ins[j], v, " "); if (before(v[2], addr[j])) inner = 0 }
                       if (ins[j] ~ /(min|max)pd/) lane = 1
                       if (lane && ins[j] ~ /mov[au]p[sd] +%[xyz]mm[0-9]+,.*\(%rsp\)/) stores = stores " " addr[j]
                     }
                     if (!inner || !lane) continue
                     loops[kind]++
                     if (prepared) prepared_loops[kind]++
                     if (stores != "") { print kind, f, "lane loop", t "-" addr[i], "stores at" stores; bad = 1 }
                   }
                 }
                 /^[0-9a-f]+ <.*>:$/ {
                   check()
                   f = $2; n = 0; gemm = 0; prepared = 0; entry = 0
                   kind = f ~ /4simd8baseline/ ? "baseline" : f ~ /4simd6avx512/ ? "avx512" : ""
                   next
                 }
                 kind != "" && /^ +[0-9a-f]+:/ {
                   n++; addr[n] = $1; sub(/:$/, "", addr[n])
                   sub(/^ +[0-9a-f]+:[ \t]+/, ""); ins[n] = $0
                   if (/call.*chain_(itv_rows|live_row)/) gemm = 1
                   if (/call.*LivePanel.*columns/) prepared = 1
                   if (/call.*4simd(8baseline|6avx512)/) entry = 1
                 }
                 END {
                   check()
                   for (k in gemms) print k, gemms[k], "GEMM instances,", loops[k], "lane loops;", preps[k] + 0, "prepared,", prepared_loops[k] + 0, "lane loops;", lasts[k] + 0, "last dense step"
                   exit bad || preps["baseline"] < 1 || preps["avx512"] < 1 || prepared_loops["baseline"] < 3 || prepared_loops["avx512"] < 3 || lasts["baseline"] < 1 || lasts["avx512"] < 1
                 }'
  ;;

# The epilogues of the wide rule are lane loops inside each build:
# the GEMM's `Widening::enclose_lanes` over a row's stored sums, the
# row blocks' `RowSums::finish` over a launch's. A call from an
# instance to one of them, to any method of `WideAcc` (whose
# `finish_lanes` was the GEMM's epilogue, compiled once for the
# baseline and called per block) or to the row blocks' old
# `WideBounds::finish` / `WideDots::finish` means an epilogue fell out
# of line. Nor may an instance call `core::array::from_fn` (or
# `try_from_fn`): the row blocks build their lanes with it, and whether
# its per-lane closure is inlined depends on how rustc splits the crate
# into codegen units; called, that loop ran 3.5× slower.
epilogues)
  listing | awk '/^[0-9a-f]+ <.*>:$/ { f = $2; kind = f ~ /4simd(8baseline|6avx512)/; next }
                 kind && /(call|jmp) .*(Widening.*enclose|RowSums.*finish|WideAcc|WideBounds.*finish|WideDots.*finish|core5array.*from_fn)/ {
                   print f, $0; bad = 1
                 }
                 END { exit bad }'
  ;;

# The ReLU step's General arm takes the intercept's zero-skip as a mask
# (`WideSum::mul_add_if`). Spelled `if take { v } else { -0.0 }` it
# compiles back into a jump on `take` and passes every test; spelled on
# the bit patterns, the arm multiplies, masks and adds: no
# `cmp $0x1` / `test $0x1` on the mask byte between the arm's `cvtps2pd`
# and its first `cvtsd2ss`.
relu)
  listing | awk '/^[0-9a-f]+ <.*>:$/ { f = ($2 ~ /relu_step_row_by_sides/) }
                 f && /cvtps2pd/ { arm = 1 }
                 f && arm && /cvtsd2ss/ { arm = 0 }
                 f && arm && /(cmp|test) +\$0x1,%r[0-9a-z]+b/ { bad = 1; print }
                 END { exit bad }'
  ;;

*)
  echo "unknown check \`$check\` (gbc, lanes, epilogues or relu)" >&2
  exit 2
  ;;
esac
