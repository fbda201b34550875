//! Representative dataset assembly and train/validation splits.
//!
//! The paper's one-time transformation step starts from "a representative
//! dataset" of satellite imagery with classification vector labels and
//! per-pixel masks (Section 4). This module assembles the procedural
//! equivalent: frames sampled along polar ground-track latitudes, carrying
//! per-pixel truth, to be tiled and labeled on demand.

use crate::frame::{FrameImage, World};
use crate::tile::{tile_frame, TileImage};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Configuration for dataset generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Seed for frame placement (the world has its own seed).
    pub seed: u64,
    /// Number of frames to sample.
    pub frame_count: usize,
    /// Native frame resolution in pixels. Must be divisible by every tile
    /// grid that will be evaluated (132 covers the paper's 3/4/6/11).
    pub frame_px: usize,
    /// Frame ground extent, kilometers.
    pub frame_km: f64,
    /// Maximum |latitude| sampled (matches the WRS grid limit).
    pub max_latitude_deg: f64,
    /// Time span (days) over which frames are spread.
    pub time_span_days: f64,
}

impl DatasetConfig {
    /// A small, fast configuration for unit tests.
    pub fn small(seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed,
            frame_count: 12,
            frame_px: 66,
            frame_km: 150.0,
            max_latitude_deg: 82.6,
            time_span_days: 4.0,
        }
    }

    /// The default evaluation configuration: enough frames for stable
    /// accuracy/precision statistics at the paper's tile grids.
    pub fn evaluation(seed: u64) -> DatasetConfig {
        DatasetConfig {
            seed,
            frame_count: 64,
            frame_px: 132,
            frame_km: 150.0,
            max_latitude_deg: 82.6,
            time_span_days: 16.0,
        }
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig::evaluation(0)
    }
}

/// A set of frames with ground truth: the representative dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    frames: Vec<FrameImage>,
}

impl Dataset {
    /// Samples a representative dataset from a world.
    ///
    /// Frame centers follow polar-orbit statistics: the latitude of a
    /// ground-track point is `arcsin(sin(u))`-distributed (denser near the
    /// turning latitudes), and longitudes are uniform. Capture times are
    /// spread over the configured span so cloud systems vary.
    ///
    /// # Panics
    ///
    /// Panics if `frame_count` is zero.
    pub fn sample(world: &World, config: &DatasetConfig) -> Dataset {
        assert!(config.frame_count > 0, "dataset needs frames");
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed ^ 0xDA7A);
        let max_lat = config.max_latitude_deg.to_radians();
        // Draw frame placements sequentially (determinism), render in
        // parallel (frames are independent).
        let placements: Vec<(f64, f64, f64)> = (0..config.frame_count)
            .map(|_| {
                // Uniform argument-of-latitude -> arcsine latitude density.
                let u: f64 = rng.random_range(0.0..std::f64::consts::TAU);
                let lat = (u.sin() * max_lat.sin()).asin().to_degrees();
                let lon: f64 = rng.random_range(-180.0..180.0);
                let t: f64 = rng.random_range(0.0..config.time_span_days);
                (lat, lon, t)
            })
            .collect();
        let frames = render_parallel(world, &placements, config.frame_px, config.frame_km);
        Dataset { frames }
    }

    /// Builds a dataset from existing frames.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty.
    pub fn from_frames(frames: Vec<FrameImage>) -> Dataset {
        assert!(!frames.is_empty(), "dataset needs frames");
        Dataset { frames }
    }

    /// The frames in this dataset.
    pub fn frames(&self) -> &[FrameImage] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Always false (construction requires frames).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Tiles every frame on a `grid` x `grid` lattice and returns all
    /// tiles.
    pub fn tiles(&self, grid: usize) -> Vec<TileImage> {
        self.frames
            .iter()
            .flat_map(|f| tile_frame(f, grid))
            .collect()
    }

    /// Dataset-wide cloud (low-value) pixel fraction.
    pub fn cloud_fraction(&self) -> f64 {
        // Serial left-to-right accumulation in frame order pins the
        // (non-associative) f64 reduction order.
        let mut total = 0.0;
        for frame in &self.frames {
            total += frame.cloud_fraction();
        }
        total / self.frames.len() as f64
    }

    /// Splits frames into train and validation subsets.
    ///
    /// Splitting at frame granularity avoids leaking pixels of one frame
    /// into both sides (tiles of a frame share cloud systems). Each side
    /// keeps at least one frame when the dataset has two or more, whatever
    /// `train_fraction` says (NaN counts as 0); a single frame goes to
    /// training and leaves validation empty, and an empty dataset splits
    /// into two empty ones.
    pub fn split(&self, train_fraction: f64, seed: u64) -> (Dataset, Dataset) {
        let mut indices: Vec<usize> = (0..self.frames.len()).collect();
        let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0x5917);
        // Fisher-Yates shuffle.
        for i in (1..indices.len()).rev() {
            let j = rng.random_range(0..=i);
            indices.swap(i, j);
        }
        let n = indices.len();
        let n_train = ((n as f64) * train_fraction).round() as usize;
        let n_train = n_train.min(n.saturating_sub(1)).max(1).min(n);
        let (train_idx, val_idx) = indices.split_at(n_train);
        let train = train_idx
            .iter()
            .filter_map(|&i| self.frames.get(i).cloned())
            .collect();
        let val = val_idx
            .iter()
            .filter_map(|&i| self.frames.get(i).cloned())
            .collect();
        (Dataset { frames: train }, Dataset { frames: val })
    }
}

/// Renders frames at the given placements across worker threads, keeping
/// output order. Thread count adapts to the host; results are identical
/// to sequential rendering because each frame depends only on its
/// placement and the (shared, immutable) world. The calling thread
/// allocates every frame and the workers only fill them, so the frames
/// stay out of per-thread allocator arenas.
fn render_parallel(
    world: &World,
    placements: &[(f64, f64, f64)],
    frame_px: usize,
    frame_km: f64,
) -> Vec<FrameImage> {
    let mut frames: Vec<FrameImage> =
        placements.iter().map(|_| FrameImage::blank(frame_px)).collect();
    let render = |frames: &mut [FrameImage], placements: &[(f64, f64, f64)]| {
        for (frame, &(lat, lon, t)) in frames.iter_mut().zip(placements) {
            world.render_into(frame, lat, lon, t, frame_km);
        }
    };
    // geodata sits below kodan_core in the dependency graph and cannot
    // use par; disjoint chunks of the frames give the same guarantee.
    // lint:allow(thread-discipline): par lives above geodata in the dep graph; the probe only sizes the pool, never the output
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(placements.len().max(1));
    if workers <= 1 || placements.len() < 4 {
        render(&mut frames, placements);
        return frames;
    }
    let chunk = placements.len().div_ceil(workers);
    // lint:allow(thread-discipline): scoped spawn fills disjoint chunks of the frames, so output equals the serial render order
    let result = crossbeam::scope(|scope| {
        for (frame_chunk, place_chunk) in frames.chunks_mut(chunk).zip(placements.chunks(chunk)) {
            scope.spawn(move |_| render(frame_chunk, place_chunk));
        }
    });
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_dataset() -> Dataset {
        let world = World::new(42);
        Dataset::sample(&world, &DatasetConfig::small(1))
    }

    #[test]
    fn sampling_honors_frame_count_and_size() {
        let ds = small_dataset();
        assert_eq!(ds.len(), 12);
        for f in ds.frames() {
            assert_eq!(f.width(), 66);
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let world = World::new(42);
        let a = Dataset::sample(&world, &DatasetConfig::small(1));
        let b = Dataset::sample(&world, &DatasetConfig::small(1));
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_sample_different_frames() {
        let world = World::new(42);
        let a = Dataset::sample(&world, &DatasetConfig::small(1));
        let b = Dataset::sample(&world, &DatasetConfig::small(2));
        assert_ne!(a, b);
    }

    #[test]
    fn latitudes_stay_within_grid_limit() {
        let ds = small_dataset();
        for f in ds.frames() {
            assert!(f.center_lat_deg().abs() <= 82.6 + 1e-9);
        }
    }

    #[test]
    fn cloud_fraction_near_target() {
        let world = World::new(42); // default 52% target
        let mut config = DatasetConfig::small(3);
        config.frame_count = 48;
        let ds = Dataset::sample(&world, &config);
        let cf = ds.cloud_fraction();
        assert!((0.3..0.75).contains(&cf), "cloud fraction = {cf}");
    }

    #[test]
    fn tiles_cover_all_frames() {
        let ds = small_dataset();
        let tiles = ds.tiles(3);
        assert_eq!(tiles.len(), 12 * 9);
    }

    #[test]
    fn split_partitions_frames() {
        let ds = small_dataset();
        let (train, val) = ds.split(0.75, 7);
        assert_eq!(train.len() + val.len(), ds.len());
        assert_eq!(train.len(), 9);
        // No frame appears on both sides.
        for tf in train.frames() {
            assert!(!val.frames().contains(tf));
        }
    }

    #[test]
    fn split_is_deterministic() {
        let ds = small_dataset();
        let (a_train, _) = ds.split(0.5, 9);
        let (b_train, _) = ds.split(0.5, 9);
        assert_eq!(a_train, b_train);
    }

    #[test]
    fn degenerate_splits_are_total() {
        let ds = small_dataset();
        let sizes = |d: &Dataset, fraction: f64| {
            let (train, val) = d.split(fraction, 0);
            (train.len(), val.len())
        };
        // Out-of-range fractions still leave a frame on each side.
        assert_eq!(sizes(&ds, 1.0), (11, 1));
        assert_eq!(sizes(&ds, 0.0), (1, 11));
        assert_eq!(sizes(&ds, f64::NAN), (1, 11));
        // Too few frames to split: nothing panics, a side stays empty.
        let one = Dataset {
            frames: ds.frames().iter().take(1).cloned().collect(),
        };
        assert_eq!(sizes(&one, 0.7), (1, 0));
        let none = Dataset { frames: Vec::new() };
        assert_eq!(sizes(&none, 0.7), (0, 0));
    }
}
