"""Streaming adaptation: calibrate on the fly as unlabeled batches arrive.

Feeds the benchmark through the stream interface batch by batch, in two
statistics modes:

  memory  running means over everything seen (matches the one-shot
          transductive result once the whole stream has passed)
  ema     exponential moving average, for drifting streams

Also shows the cold-start path: with tiny batches the first few samples
are answered zero-shot (flagged "uncalibrated") while they seed the
clusters, and a snapshot taken mid-stream resumes bit-for-bit.
"""

import tempfile
from pathlib import Path

import numpy as np

import umfc


def accuracy_curve(ds, cfg, label):
    state = umfc.stream_init(cfg)
    correct = seen = 0
    checkpoints = []
    for start in range(0, ds.images.n, cfg.batch_size):
        batch = ds.images.data[start:start + cfg.batch_size]
        truth = ds.images.class_labels[start:start + cfg.batch_size]
        preds, state = umfc.stream_step(state, batch, ds.text_bank, cfg)
        correct += int(np.sum(preds.labels == truth))
        seen += len(preds)
        if state.batches_seen % 5 == 0:
            checkpoints.append(correct / seen)
    print(f"{label}: running accuracy every 5 batches -> "
          f"{[f'{a:.3f}' for a in checkpoints]}")
    return state


def main():
    ds = umfc.default_benchmark()

    memory_cfg = umfc.EngineConfig(clusters=3, mode="memory", batch_size=100)
    ema_cfg = umfc.EngineConfig(clusters=3, mode="ema", eta=0.1, batch_size=100)
    accuracy_curve(ds, memory_cfg, "memory")
    state = accuracy_curve(ds, ema_cfg, "ema   ")

    # cold start: batch size 1 means the first `clusters` samples are
    # answered before any statistics exist
    tiny = umfc.EngineConfig(clusters=3, batch_size=1)
    s = umfc.stream_init(tiny)
    flagged = 0
    for row in ds.images.data[:10]:
        preds, s = umfc.stream_step(s, row[None, :], ds.text_bank, tiny)
        flagged += int(np.count_nonzero(preds.flags & umfc.Predictions.UNCALIBRATED))
    print(f"cold start with batch_size=1: {flagged} of the first 10 answers "
          f"were uncalibrated seeds")

    # snapshot and resume
    with tempfile.TemporaryDirectory() as td:
        snap = Path(td) / "mid.state"
        umfc.snapshot_state(state, ema_cfg, snap)
        restored, restored_cfg = umfc.restore_state(snap)
        nxt = ds.images.data[:100]
        a, _ = umfc.stream_step(state, nxt, ds.text_bank, ema_cfg)
        b, _ = umfc.stream_step(restored, nxt, ds.text_bank, restored_cfg)
        same = np.array_equal(a.probs, b.probs)
        print(f"snapshot -> restore -> next batch identical: {same}")


if __name__ == "__main__":
    main()
