"""Quickstart: remove domain bias from embeddings without labels or training.

Generates the synthetic benchmark (classes drawn across several visual
domains, each domain adding its own offset to every feature), then
compares plain zero-shot classification against the calibrated
transductive run.
"""

import numpy as np

import umfc


def main():
    ds = umfc.default_benchmark()
    images = ds.images
    print(f"benchmark: {images.n} samples, "
          f"{len(ds.text_bank.names)} classes, "
          f"{np.unique(images.domain_labels).size} domains, dim {images.dim}")

    zero_shot = umfc.oracle_zero_shot(ds)
    zs_table = umfc.per_domain_accuracy(zero_shot.labels, images.class_labels, images.domain_labels)
    print("\nzero-shot accuracy (no calibration):")
    print(zs_table.to_tsv())

    # cluster the image features, treat cluster means as domain
    # surrogates, re-express every feature relative to its cluster,
    # and shift the text bank by the cluster-to-average transitions
    cfg = umfc.EngineConfig(clusters=3)
    preds, state = umfc.transduce(images, ds.text_bank, cfg)
    # preds is one Predictions: probs (N x K), labels, top, clusters, flags
    table = umfc.per_domain_accuracy(preds.labels, images.class_labels, images.domain_labels)
    print("calibrated accuracy (same data, no labels used):")
    print(table.to_tsv())

    gain = table.overall() - zs_table.overall()
    print(f"macro gain from calibration: {gain:+.4f}")
    print(f"text shift norms per cluster: "
          f"{np.round(np.linalg.norm(state.calib_text_shifts, axis=1), 4)}")


if __name__ == "__main__":
    main()
