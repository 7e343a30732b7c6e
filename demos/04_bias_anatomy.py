"""Anatomy of domain bias: see it, measure it, watch calibration remove it.

Three measurements on the synthetic benchmark:

  1. prediction histogram: biased text vectors drag predictions toward
     the classes associated with each domain
  2. domain probe: softmax affinity of each class vector over domain
     anchors, before and after the text-side shift
  3. transition directions: the image-space offset between two domains'
     means points the same way as the planted cross-domain direction,
     which is what makes a text-side correction possible at all
"""

import numpy as np

import umfc


def main():
    ds = umfc.default_benchmark()
    k = len(ds.text_bank.names)

    zs = umfc.oracle_zero_shot(ds)
    hist = umfc.prediction_histogram(zs.labels, k)
    truth = np.bincount(np.asarray(ds.images.class_labels), minlength=k)
    print("zero-shot prediction counts vs the true 150-per-class split:")
    for c, n in hist.top():
        print(f"  {ds.text_bank.names[c]:>10}: {n:4d} (true {truth[c]})")

    raw = umfc.domain_bias_probe(ds.text_bank, ds.domain_anchor_texts)
    print(f"\nraw bank domain affinity (aggregate): "
          f"{np.round(raw.aggregate, 4)}  "
          f"KL to uniform {umfc.kl_to_uniform(raw.aggregate):.3e}")

    preds, state = umfc.transduce(ds.images, ds.text_bank, umfc.EngineConfig(clusters=3))
    shifted = umfc.calibrate_bank(ds.text_bank, state.calib_text_shifts)
    cal = umfc.domain_bias_probe(shifted, ds.domain_anchor_texts)
    print(f"after text calibration:                 "
          f"{np.round(cal.aggregate, 4)}  "
          f"KL to uniform {umfc.kl_to_uniform(cal.aggregate):.3e}")

    hist2 = umfc.prediction_histogram(preds.labels, k)
    spread_before = max(hist.counts) - min(hist.counts)
    spread_after = max(hist2.counts) - min(hist2.counts)
    print(f"\nprediction-count spread: {spread_before} before, {spread_after} after")

    table = umfc.transition_direction_check(ds.images, ds.true_transition_directions)
    print(f"measured vs planted transition directions, "
          f"min cosine: {table.min_off_diagonal():.6f}")


if __name__ == "__main__":
    main()
