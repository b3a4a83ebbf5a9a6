#!/usr/bin/env sh
# Golden determinism harness.
#
# Runs uts_cli on a fixed case matrix and byte-compares its stdout (and, for
# the sim engine, the raw event-trace CSV) against files captured from the
# pre-optimization engine. Any engine "optimization" that changes scheduling
# order, virtual timestamps, steal counts, or tree contents shows up here as
# a diff.
#
#   run_golden.sh check   <uts_cli> <golden-dir> <case> <work-dir>
#   run_golden.sh capture <uts_cli> <golden-dir> <case> <work-dir>
#
# `check` is what ctest runs; `capture` refreshes the committed golden files
# (only do this deliberately, after convincing yourself the behaviour change
# is intended — see docs/simulator.md).
#
# The threads engine reports wall-clock elapsed/rate figures, which are not
# reproducible; those lines (result:/states:) are filtered out before the
# compare, so threads cases still pin the header, fault banner, and the
# sequential-verification verdict.
#
# psim cases have no golden files of their own: the parallel PDES engine
# promises byte-identical output to the sequential sim engine for any worker
# count, so they check stdout and trace against the *sim* goldens (only the
# banner's engine= tag differs and is normalized away). The requested worker
# count is capped at hardware concurrency, which uts_cli enforces on
# --workers.
set -eu

if [ $# -ne 5 ]; then
  echo "usage: $0 <check|capture> <uts_cli> <golden-dir> <case> <work-dir>" >&2
  exit 2
fi
mode=$1
cli=$2
golden=$3
name=$4
work=$5

tree_a="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A upc-distmem"
tree_b="-t 0 -b 4 -g 8 -r 2 -n 8 -c 4 -A mpi-ws"
tree_l="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A lifeline"
tree_s="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A sampling"
tree_shm="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A upc-sharedmem"
tree_term="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A upc-term"
tree_rapdif="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A upc-term-rapdif"
tree_push="-t 1 -b 64 -q 0.45 -m 2 -r 1 -n 8 -c 4 -A work-push"
fault="--stall 2000:20000"
drop="--drop-prob 0.05 --dup-prob 0.05"
crash_a="--crash 1@30000 --crash-detect 2000"
crash_b="--crash 2@100000 --crash-detect 2000"

workers=0
base=$name
case "$name" in
  binA_sim_plain)      engine=sim;     flags="$tree_a" ;;
  binA_sim_fault)      engine=sim;     flags="$tree_a $fault" ;;
  binA_sim_crash)      engine=sim;     flags="$tree_a $crash_a" ;;
  binA_threads_plain)  engine=threads; flags="$tree_a" ;;
  binA_threads_fault)  engine=threads; flags="$tree_a $fault" ;;
  binA_threads_crash)  engine=threads; flags="$tree_a $crash_a" ;;
  geoB_sim_plain)      engine=sim;     flags="$tree_b" ;;
  geoB_sim_fault)      engine=sim;     flags="$tree_b $fault" ;;
  geoB_sim_crash)      engine=sim;     flags="$tree_b $crash_b" ;;
  geoB_threads_plain)  engine=threads; flags="$tree_b" ;;
  geoB_threads_fault)  engine=threads; flags="$tree_b $fault" ;;
  geoB_threads_crash)  engine=threads; flags="$tree_b $crash_b" ;;
  geoB_sim_drop)       engine=sim;     flags="$tree_b $drop" ;;
  binA_psim_w1_plain)  engine=psim; workers=1; base=binA_sim_plain; flags="$tree_a" ;;
  binA_psim_w1_fault)  engine=psim; workers=1; base=binA_sim_fault; flags="$tree_a $fault" ;;
  binA_psim_w1_crash)  engine=psim; workers=1; base=binA_sim_crash; flags="$tree_a $crash_a" ;;
  binA_psim_w4_plain)  engine=psim; workers=4; base=binA_sim_plain; flags="$tree_a" ;;
  binA_psim_w4_fault)  engine=psim; workers=4; base=binA_sim_fault; flags="$tree_a $fault" ;;
  binA_psim_w4_crash)  engine=psim; workers=4; base=binA_sim_crash; flags="$tree_a $crash_a" ;;
  geoB_psim_w1_plain)  engine=psim; workers=1; base=geoB_sim_plain; flags="$tree_b" ;;
  geoB_psim_w1_fault)  engine=psim; workers=1; base=geoB_sim_fault; flags="$tree_b $fault" ;;
  geoB_psim_w1_crash)  engine=psim; workers=1; base=geoB_sim_crash; flags="$tree_b $crash_b" ;;
  geoB_psim_w4_plain)  engine=psim; workers=4; base=geoB_sim_plain; flags="$tree_b" ;;
  geoB_psim_w4_fault)  engine=psim; workers=4; base=geoB_sim_fault; flags="$tree_b $fault" ;;
  geoB_psim_w4_crash)  engine=psim; workers=4; base=geoB_sim_crash; flags="$tree_b $crash_b" ;;
  geoB_psim_w4_drop)   engine=psim; workers=4; base=geoB_sim_drop; flags="$tree_b $drop" ;;
  life_sim_plain)      engine=sim;     flags="$tree_l" ;;
  life_sim_fault)      engine=sim;     flags="$tree_l $fault" ;;
  life_sim_crash)      engine=sim;     flags="$tree_l $crash_a" ;;
  life_threads_plain)  engine=threads; flags="$tree_l" ;;
  life_threads_fault)  engine=threads; flags="$tree_l $fault" ;;
  life_threads_crash)  engine=threads; flags="$tree_l $crash_a" ;;
  samp_sim_plain)      engine=sim;     flags="$tree_s" ;;
  samp_sim_fault)      engine=sim;     flags="$tree_s $fault" ;;
  samp_sim_crash)      engine=sim;     flags="$tree_s $crash_a" ;;
  samp_threads_plain)  engine=threads; flags="$tree_s" ;;
  samp_threads_fault)  engine=threads; flags="$tree_s $fault" ;;
  samp_threads_crash)  engine=threads; flags="$tree_s $crash_a" ;;
  life_psim_w4_plain)  engine=psim; workers=4; base=life_sim_plain; flags="$tree_l" ;;
  life_psim_w4_fault)  engine=psim; workers=4; base=life_sim_fault; flags="$tree_l $fault" ;;
  life_psim_w4_crash)  engine=psim; workers=4; base=life_sim_crash; flags="$tree_l $crash_a" ;;
  samp_psim_w4_plain)  engine=psim; workers=4; base=samp_sim_plain; flags="$tree_s" ;;
  samp_psim_w4_fault)  engine=psim; workers=4; base=samp_sim_fault; flags="$tree_s $fault" ;;
  samp_psim_w4_crash)  engine=psim; workers=4; base=samp_sim_crash; flags="$tree_s $crash_a" ;;
  shm_sim_plain)       engine=sim;     flags="$tree_shm" ;;
  shm_sim_fault)       engine=sim;     flags="$tree_shm $fault" ;;
  shm_sim_crash)       engine=sim;     flags="$tree_shm $crash_a" ;;
  term_sim_plain)      engine=sim;     flags="$tree_term" ;;
  term_sim_fault)      engine=sim;     flags="$tree_term $fault" ;;
  term_sim_crash)      engine=sim;     flags="$tree_term $crash_a" ;;
  rapdif_sim_plain)    engine=sim;     flags="$tree_rapdif" ;;
  rapdif_sim_fault)    engine=sim;     flags="$tree_rapdif $fault" ;;
  rapdif_sim_crash)    engine=sim;     flags="$tree_rapdif $crash_a" ;;
  shm_psim_w4_plain)   engine=psim; workers=4; base=shm_sim_plain; flags="$tree_shm" ;;
  shm_psim_w4_fault)   engine=psim; workers=4; base=shm_sim_fault; flags="$tree_shm $fault" ;;
  shm_psim_w4_crash)   engine=psim; workers=4; base=shm_sim_crash; flags="$tree_shm $crash_a" ;;
  term_psim_w4_plain)  engine=psim; workers=4; base=term_sim_plain; flags="$tree_term" ;;
  term_psim_w4_fault)  engine=psim; workers=4; base=term_sim_fault; flags="$tree_term $fault" ;;
  term_psim_w4_crash)  engine=psim; workers=4; base=term_sim_crash; flags="$tree_term $crash_a" ;;
  rapdif_psim_w4_plain) engine=psim; workers=4; base=rapdif_sim_plain; flags="$tree_rapdif" ;;
  rapdif_psim_w4_fault) engine=psim; workers=4; base=rapdif_sim_fault; flags="$tree_rapdif $fault" ;;
  rapdif_psim_w4_crash) engine=psim; workers=4; base=rapdif_sim_crash; flags="$tree_rapdif $crash_a" ;;
  push_sim_plain)      engine=sim;     flags="$tree_push" ;;
  push_sim_fault)      engine=sim;     flags="$tree_push $fault" ;;
  *) echo "run_golden.sh: unknown case '$name'" >&2; exit 2 ;;
esac

if [ "$engine" = psim ]; then
  if [ "$mode" = capture ]; then
    echo "run_golden.sh: psim cases check against sim goldens; capture the" \
         "matching sim case instead" >&2
    exit 2
  fi
  hc=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1) | head -n1 )
  [ "$workers" -gt "$hc" ] && workers=$hc
  flags="$flags --workers $workers"
fi

mkdir -p "$work"
cd "$work"

# Trace output is written under a fixed relative name so the path echoed in
# stdout is identical between capture and check runs.
trace_args=""
if [ "$engine" = sim ] || [ "$engine" = psim ]; then
  trace_args="--trace-csv trace.csv"
fi

# shellcheck disable=SC2086  # flags is a word list by construction
"$cli" $flags -e "$engine" $trace_args >stdout.raw 2>stderr.txt

if [ "$engine" = threads ]; then
  grep -v -e '^result: ' -e '^states: ' stdout.raw >stdout.txt
elif [ "$engine" = psim ]; then
  sed 's/engine=psim/engine=sim/' stdout.raw >stdout.txt
else
  cp stdout.raw stdout.txt
fi

if [ "$mode" = capture ]; then
  cp stdout.txt "$golden/$name.stdout"
  if [ "$engine" = sim ]; then
    cp trace.csv "$golden/$name.trace.csv"
  fi
  echo "captured $name"
  exit 0
fi

status=0
if ! diff -u "$golden/$base.stdout" stdout.txt; then
  echo "GOLDEN MISMATCH: stdout for case $name" >&2
  status=1
fi
if { [ "$engine" = sim ] || [ "$engine" = psim ]; } &&
   ! diff -u "$golden/$base.trace.csv" trace.csv; then
  echo "GOLDEN MISMATCH: trace for case $name" >&2
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "golden OK: $name"
fi
exit "$status"
