//! Quantized fixed-point inference: the i16/i32 fast path against the
//! f64 reference, artifact-shaped end to end.
//!
//! The paper's computational bottleneck is per-tile inference; the
//! quantized kernels attack exactly that loop. This bench times both
//! paths over real tile feature batches, checks that the fixed-point
//! model keeps (at least) 99% of the reference accuracy, and writes
//! `BENCH_quantized_inference.json` at the repo root so future PRs have
//! a speedup floor to compare against: the mask path should stay at or
//! above 2x over f64 batch inference.

use kodan::specialize::{tile_features, tile_labels};
use kodan_bench::harness::{time, write_baseline, Protocol};
use kodan_bench::{banner, bench_world, BENCH_SEED};
use kodan_geodata::features::FEATURE_DIM;
use kodan_geodata::tile::tile_frame;
use kodan_ml::eval::{accuracy_retention, ConfusionMatrix};
use kodan_ml::train::TrainConfig;
use kodan_ml::Mlp;

/// Native tile resolution at grid 6 over 132-px frames.
const RESOLUTION: usize = 22;

/// Hidden width of the widest zoo configuration — the worst case for
/// the accumulator envelope and the best case for vectorization.
const HIDDEN: usize = 20;

/// 25 samples of 20 batches (a batch is ~1-2 ms). The median discards
/// scheduler stalls and frequency excursions that a single long mean
/// would average in.
const PROTOCOL: Protocol = Protocol::timed(25, 20);

fn main() {
    banner(
        "Quantized fixed-point inference: i16/i32 vs f64",
        "per-pixel tile prediction over real feature batches (20 hidden units)",
    );
    let world = bench_world();
    let train_frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    let eval_frame = world.render_frame(13.0, -70.0, 0.0, 132, 150.0);
    let train_tiles = tile_frame(&train_frame, 6);
    let eval_tiles = tile_frame(&eval_frame, 6);

    let mut train_x: Vec<f64> = Vec::new();
    let mut train_y: Vec<bool> = Vec::new();
    for tile in train_tiles.iter().take(12) {
        train_x.extend(tile_features(tile, RESOLUTION));
        train_y.extend(tile_labels(tile, RESOLUTION));
    }
    let model = Mlp::fit_flat(
        &train_x,
        FEATURE_DIM,
        &train_y,
        HIDDEN,
        &TrainConfig::fast(BENCH_SEED),
    );
    let quantized = model.quantize();

    let mut eval_x: Vec<f64> = Vec::new();
    let mut eval_y: Vec<bool> = Vec::new();
    for tile in &eval_tiles {
        eval_x.extend(tile_features(tile, RESOLUTION));
        eval_y.extend(tile_labels(tile, RESOLUTION));
    }
    let predictions = eval_y.len();

    let mut probs: Vec<f64> = Vec::new();
    let mut mask: Vec<bool> = Vec::new();
    let f64_mask_t = time(PROTOCOL, || {
        model.predict_proba_batch_into(&eval_x, FEATURE_DIM, &mut probs);
        mask.clear();
        mask.extend(probs.iter().map(|p| *p >= 0.5));
        mask.len()
    });
    let quantized_proba_t = time(PROTOCOL, || {
        quantized.predict_proba_batch_into(&eval_x, FEATURE_DIM, &mut probs);
        probs.len()
    });
    let quantized_mask_t = time(PROTOCOL, || {
        quantized.predict_mask_batch_into(&eval_x, FEATURE_DIM, &mut mask);
        mask.len()
    });
    let (f64_mask_s, quantized_proba_s, quantized_mask_s) =
        (f64_mask_t.median, quantized_proba_t.median, quantized_mask_t.median);
    let speedup_mask = if quantized_mask_s > 0.0 {
        f64_mask_s / quantized_mask_s
    } else {
        0.0
    };
    let speedup_proba = if quantized_proba_s > 0.0 {
        f64_mask_s / quantized_proba_s
    } else {
        0.0
    };

    // Accuracy retention on the same evaluation batch: the fixed-point
    // model must keep at least 99% of the f64 model's accuracy.
    model.predict_proba_batch_into(&eval_x, FEATURE_DIM, &mut probs);
    let f64_mask: Vec<bool> = probs.iter().map(|p| *p >= 0.5).collect();
    quantized.predict_mask_batch_into(&eval_x, FEATURE_DIM, &mut mask);
    let reference = ConfusionMatrix::from_predictions(&f64_mask, &eval_y);
    let candidate = ConfusionMatrix::from_predictions(&mask, &eval_y);
    let retention = accuracy_retention(&reference, &candidate);
    let agreement = f64_mask
        .iter()
        .zip(&mask)
        .filter(|(a, b)| a == b)
        .count() as f64
        / predictions as f64;

    let (f64_ops, _) = model.ops_split();
    let int_ops = quantized.int_ops_per_prediction();
    write_baseline(
        "quantized_inference",
        &format!("seconds_per_{predictions}_prediction_batch"),
        PROTOCOL,
        |w| {
            f64_mask_t.write(w, "f64_mask_s");
            quantized_proba_t.write(w, "quantized_proba_s");
            quantized_mask_t.write(w, "quantized_mask_s");
            w.float(Some("speedup_mask"), speedup_mask);
            w.float(Some("speedup_proba"), speedup_proba);
            w.float(Some("f64_accuracy"), reference.accuracy());
            w.float(Some("quantized_accuracy"), candidate.accuracy());
            w.float(Some("accuracy_retention"), retention);
            w.float(Some("mask_agreement"), agreement);
            w.uint(Some("f64_ops_per_prediction"), f64_ops as u64);
            w.uint(Some("int_ops_per_prediction"), int_ops as u64);
            w.string(
                Some("budget_note"),
                "future PRs should keep speedup_mask >= 2.0 and accuracy_retention >= 0.99",
            );
        },
    );
    println!();
    println!(
        "f64 {:.3} ms  q-proba {:.3} ms  q-mask {:.3} ms  speedup {:.2}x/{:.2}x  retention {:.4}",
        f64_mask_s * 1e3,
        quantized_proba_s * 1e3,
        quantized_mask_s * 1e3,
        speedup_proba,
        speedup_mask,
        retention
    );
    assert!(
        retention >= 0.99,
        "quantized model lost accuracy: retention {retention:.4}"
    );
}
