#!/bin/sh
# Full command-line pass: generate data, fit, predict, stream, inspect.
# Everything lands in a scratch directory; nothing else is touched.
set -eu

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

echo "== generate the synthetic benchmark (with domain anchors) =="
umfc synth --out-prefix bench --emit-domain-bank

echo
echo "== transduce: calibrate on the test set itself =="
umfc transduce --test bench_images.bin --bank bench_bank.bin \
    --names bench_names.txt --clusters 3 \
    --out preds.tsv --report accuracy.tsv
cat accuracy.tsv

echo
echo "== fit on one matrix, predict another (here: the same one) =="
umfc fit --train bench_images.bin --bank bench_bank.bin \
    --names bench_names.txt --clusters 3 --out-state bench.state
umfc predict --state bench.state --test bench_images.bin \
    --bank bench_bank.bin --names bench_names.txt --out preds2.tsv
head -3 preds2.tsv

echo
echo "== stream in batches of 100, snapshotting every 5 batches =="
umfc stream --test bench_images.bin --bank bench_bank.bin \
    --names bench_names.txt --clusters 3 --batch-size 100 \
    --out preds3.tsv --out-state stream.state --snapshot-every 5
ls stream.state*

echo
echo "== how biased is the text bank toward each domain? =="
umfc diagnose probe --bank bench_bank.bin --names bench_names.txt \
    --domain-bank bench_domains.bin --out probe_raw.csv
umfc diagnose probe --bank bench_bank.bin --names bench_names.txt \
    --domain-bank bench_domains.bin --state bench.state --out probe_cal.csv
tail -1 probe_raw.csv
tail -1 probe_cal.csv

echo
echo "== sensitivity: accuracy across batch sizes and cluster counts =="
umfc sweep batch-size --values 1,10,32,100 --clusters 3 \
    --test bench_images.bin --bank bench_bank.bin --names bench_names.txt \
    --out sweep_bs.tsv
cat sweep_bs.tsv
umfc sweep clusters --values 2,3,6 \
    --test bench_images.bin --bank bench_bank.bin --names bench_names.txt \
    --out sweep_m.tsv
cat sweep_m.tsv

echo
echo "walkthrough complete"
