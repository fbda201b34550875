//! Micro-benchmarks of the hot substrate paths: frame rendering,
//! tiling + resize, feature extraction, model inference, k-means, and
//! orbit propagation. These quantify the simulator's own cost (not the
//! paper's results) and guard against performance regressions in the
//! inner loops. Print-only: no baseline file.

use kodan::specialize::{tile_features, SpecializedModel};
use kodan_bench::harness::{time, Protocol};
use kodan_cote::orbit::Orbit;
use kodan_cote::propagate::propagate;
use kodan_cote::time::Duration;
use kodan_geodata::frame::World;
use kodan_geodata::pixel::CHANNELS;
use kodan_geodata::resize::resize_channels;
use kodan_geodata::tile::tile_frame;
use kodan_ml::kmeans::KMeans;
use kodan_ml::matrix::Matrix;
use kodan_ml::metrics::DistanceMetric;
use kodan_ml::quant::{quantize_input_into, QuantizedMatrix};
use kodan_ml::train::TrainConfig;
use kodan_ml::zoo::ModelArch;
use std::hint::black_box;

/// Every lane: 11 samples of 20 calls (the slowest lane, frame
/// rendering, is ~6 ms a call).
const PROTOCOL: Protocol = Protocol::timed(11, 20);

/// Times one lane and prints its median and interquartile range.
fn lane<R>(name: &str, body: impl FnMut() -> R) {
    let t = time(PROTOCOL, body);
    println!(
        "{name:<32} {:>12.3} us/call  [q1 {:.3}, q3 {:.3}]",
        t.median * 1e6,
        t.q1 * 1e6,
        t.q3 * 1e6
    );
}

fn main() {
    kodan_bench::banner(
        "Substrate micro-benchmarks",
        "render, tile, resize, features, inference, matvec, k-means, propagation",
    );
    let world = World::new(42);
    lane("render_frame_66px", || {
        world.render_frame(black_box(12.0), black_box(-71.0), 0.0, 66, 150.0)
    });

    let frame = world.render_frame(12.0, -71.0, 0.0, 132, 150.0);
    lane("tile_frame_grid6", || tile_frame(black_box(&frame), 6));
    let tiles = tile_frame(&frame, 6);
    lane("resize_tile_22_to_28", || {
        resize_channels(black_box(tiles[0].channels()), 22, CHANNELS, 28)
    });
    lane("tile_features_r22", || tile_features(black_box(&tiles[0]), 22));

    let model = SpecializedModel::train_global(
        &tiles,
        ModelArch::ResNet50DilatedPpm,
        2_000,
        &TrainConfig::fast(1),
    );
    lane("model_predict_tile", || model.predict_tile(black_box(&tiles[0])));
    let mut quantized = model.clone();
    quantized.quantize_in_place();
    lane("model_predict_tile_quantized", || {
        quantized.predict_tile(black_box(&tiles[0]))
    });

    // The inner-loop kernel pair: one f64 matvec against its i16/i32
    // fixed-point counterpart at an MLP-layer shape (20 hidden units
    // over 12 features, the widest zoo configuration).
    let rows = 20;
    let cols = 12;
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| ((i * 37 % 101) as f64 / 101.0) - 0.5)
        .collect();
    let w = Matrix::from_flat(rows, cols, data);
    let x: Vec<f64> = (0..cols).map(|i| (i as f64 / cols as f64) - 0.5).collect();
    let mut out = vec![0.0f64; rows];
    lane("matvec_f64_20x12", || {
        w.matvec_into(black_box(&x), &mut out);
        black_box(out[0])
    });
    let wq = QuantizedMatrix::from_f64(&w);
    let mut xq = vec![0i32; cols];
    quantize_input_into(&x, &mut xq);
    let mut acc = vec![0i32; rows];
    lane("matvec_i16_20x12", || {
        wq.matvec_into(black_box(&xq), &mut acc);
        black_box(acc[0])
    });

    let tiles_11 = tile_frame(&frame, 11);
    let labels: Vec<Vec<f64>> = tiles_11.iter().map(|t| t.label_vector().to_vec()).collect();
    lane("kmeans_k6_121tiles", || {
        KMeans::fit(black_box(&labels), 6, DistanceMetric::Euclidean, 42)
    });

    let orbit = Orbit::sun_synchronous(705_000.0);
    let mut t = 0.0f64;
    lane("propagate_orbit", || {
        t += 1.0;
        propagate(black_box(&orbit), orbit.epoch() + Duration::from_seconds(t))
    });
}
