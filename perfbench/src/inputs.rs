//! Seeded inputs and the reference answers every measured answer is
//! checked against.

use ssam_core::device::{DeviceQuery, SsamConfig, SsamDevice};
use ssam_datasets::generator::generate;
use ssam_datasets::PaperDataset;
use ssam_knn::{Neighbor, VectorStore};

use crate::stats::Rng;

/// The generated data of one workload.
pub struct Inputs {
    pub train: VectorStore,
    /// Query pool: seeded perturbations of the held-out queries.
    pub pool: Vec<Vec<f32>>,
    pub k: usize,
}

/// Generates `rows` database vectors shaped like `dataset` and a pool of
/// `pool` queries, all from `seed`.
///
/// Pool entry `j` is held-out query `j mod H` plus isotropic noise a
/// tenth of the within-cluster spread, so the entries are distinct
/// queries that still land where real queries do.
pub fn generate_inputs(dataset: PaperDataset, rows: usize, pool: usize, seed: u64) -> Inputs {
    let full = dataset.spec();
    let mut spec = full.clone().scaled(rows as f64 / full.train as f64);
    spec.train = rows;
    spec.seed = Rng::new(seed, 1).next_u64();
    let data = generate(&spec);
    let held = data.queries;
    let dims = spec.dims;
    let sigma = 0.1 * f64::from(spec.cluster_spread) / (dims as f64).sqrt();
    let mut rng = Rng::new(seed, 2);
    let pool = (0..pool)
        .map(|j| {
            held.get((j % held.len()) as u32)
                .iter()
                .map(|&x| x + (sigma * rng.normal()) as f32)
                .collect()
        })
        .collect();
    Inputs {
        train: data.train,
        pool,
        k: spec.k,
    }
}

/// The device configuration every workload uses: faults off, the kernel
/// optimizer on, and the executor chosen explicitly.
pub fn device_config(fast_path: bool) -> SsamConfig {
    SsamConfig {
        optimize_kernels: true,
        fast_path,
        ..SsamConfig::default()
    }
}

pub fn build_device(train: &VectorStore, fast_path: bool) -> SsamDevice {
    let mut dev = SsamDevice::new(device_config(fast_path));
    dev.load_vectors(train);
    dev
}

pub fn euclidean(queries: &[Vec<f32>]) -> Vec<DeviceQuery<'_>> {
    queries.iter().map(|q| DeviceQuery::Euclidean(q)).collect()
}

/// Bit-exact answer equality: same ids, same distance bits, same order.
pub fn same_answer(got: &[Neighbor], want: &[Neighbor]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.id == w.id && g.dist.to_bits() == w.dist.to_bits())
}

/// Reference answers for every pool query, from a device instance of
/// its own (analytic fast path, batches of 16), split over two threads.
pub fn references(train: &VectorStore, pool: &[Vec<f32>], k: usize) -> Vec<Vec<Neighbor>> {
    let half = pool.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = pool
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let mut dev = build_device(train, true);
                    let mut out = Vec::with_capacity(part.len());
                    for batch in part.chunks(16) {
                        let r = dev
                            .query_batch(&euclidean(batch), k)
                            .expect("reference batch");
                        out.extend(r.results.into_iter().map(|r| r.neighbors));
                    }
                    out
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    })
}

/// Confirms a sample of the references on the cycle simulator; returns
/// one message per disagreement.
pub fn oracle_check(
    train: &VectorStore,
    pool: &[Vec<f32>],
    refs: &[Vec<Neighbor>],
    k: usize,
    sample: usize,
) -> Vec<String> {
    let step = (pool.len() / sample.max(1)).max(1);
    let picks: Vec<usize> = (0..pool.len()).step_by(step).take(sample).collect();
    let queries: Vec<Vec<f32>> = picks.iter().map(|&i| pool[i].clone()).collect();
    let mut sim = build_device(train, false);
    let got = sim
        .query_batch(&euclidean(&queries), k)
        .expect("oracle batch");
    picks
        .iter()
        .zip(&got.results)
        .filter(|(&i, r)| !same_answer(&r.neighbors, &refs[i]))
        .map(|(&i, _)| format!("cycle simulator disagrees with the reference on pool query {i}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_per_seed_and_differ_across_seeds() {
        let a = generate_inputs(PaperDataset::GloVe, 300, 40, 5);
        let b = generate_inputs(PaperDataset::GloVe, 300, 40, 5);
        let c = generate_inputs(PaperDataset::GloVe, 300, 40, 6);
        assert_eq!(a.train.as_flat(), b.train.as_flat());
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.train.as_flat(), c.train.as_flat());
        assert_eq!(a.train.len(), 300);
        assert_eq!(a.train.dims(), 100);
        assert_eq!(a.k, 6);
        // Perturbed: no two pool entries coincide.
        for i in 0..a.pool.len() {
            for j in i + 1..a.pool.len() {
                assert_ne!(a.pool[i], a.pool[j]);
            }
        }
    }

    #[test]
    fn references_agree_with_the_oracle() {
        let inp = generate_inputs(PaperDataset::GloVe, 256, 20, 3);
        let refs = references(&inp.train, &inp.pool, inp.k);
        assert_eq!(refs.len(), 20);
        assert!(refs.iter().all(|r| r.len() == inp.k));
        assert!(oracle_check(&inp.train, &inp.pool, &refs, inp.k, 4).is_empty());
        let mut wrong = refs.clone();
        wrong[0].swap(0, 1);
        assert!(!oracle_check(&inp.train, &inp.pool, &wrong, inp.k, 20).is_empty());
    }
}
