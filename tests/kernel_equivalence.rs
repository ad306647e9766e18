//! Cross-kernel equivalence: the separable (`K₁ ⊗ … ⊗ K_d`)
//! Gibbs-kernel path must be a drop-in replacement for the dense path —
//! same math, different sum grouping — and must honour the workspace's
//! byte-identity-across-thread-counts determinism contract on its own.
//!
//! Three layers of pinning (ISSUE 5 acceptance, extended to `d` axes):
//!
//! 1. **Matvec level** (proptest): separable-vs-dense agreement within
//!    `1e-9` relative on random grids and ε — for the legacy two-axis
//!    representation and for random `d ∈ {2, 3, 4}` product grids —
//!    separable self byte-identity across thread counts, and bitwise
//!    agreement of the `d = 2` `SeparableNd` path with the legacy
//!    `Separable` path.
//! 2. **Barycentre level**: `entropic_barycentre_grid_nd` on two axes under
//!    `dense` vs `separable` agrees within `1e-9` (L1 over the whole
//!    pmf, which sums to 1).
//! 3. **End to end**: an `nQ = 24` joint design + repair with the
//!    separable kernel forced on is byte-identical across
//!    `OTR_THREADS ∈ {1, 2, 7}`, and so is a 3-feature `nQ = 12`
//!    (1 728 product states) joint design + repair (the same shape as
//!    `tests/parallel_determinism.rs`, which pins the `auto` path under
//!    whatever `OTR_KERNEL` says).

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use ot_fair_repair::ot::{entropic_barycentre_grid_nd, BarycentreConfig, KernelRep};
use ot_fair_repair::prelude::*;

/// Serializes the tests that mutate the shared `OTR_THREADS` process
/// environment (cf. `tests/parallel_determinism.rs`).
static OTR_THREADS_ENV_LOCK: Mutex<()> = Mutex::new(());

/// Dense kernel over the flattened product grid — the reference the
/// separable representation is checked against.
fn dense_of_grid(gx: &[f64], gy: &[f64], eps: f64) -> KernelRep {
    let points: Vec<(f64, f64)> = gx
        .iter()
        .flat_map(|&x| gy.iter().map(move |&y| (x, y)))
        .collect();
    KernelRep::dense_square(points.len(), eps, 1, |i, j| {
        let dx = points[i].0 - points[j].0;
        let dy = points[i].1 - points[j].1;
        dx * dx + dy * dy
    })
}

/// Dense kernel over a flattened `d`-axis product grid (row-major, last
/// axis fastest) — the reference the n-d separable representation is
/// checked against.
fn dense_of_grid_nd(axes: &[Vec<f64>], eps: f64) -> KernelRep {
    let d = axes.len();
    let n: usize = axes.iter().map(Vec::len).product();
    let points: Vec<Vec<f64>> = (0..n)
        .map(|mut r| {
            let mut c = vec![0.0; d];
            for a in (0..d).rev() {
                let na = axes[a].len();
                c[a] = axes[a][r % na];
                r /= na;
            }
            c
        })
        .collect();
    KernelRep::dense_square(n, eps, 1, |i, j| {
        points[i]
            .iter()
            .zip(&points[j])
            .map(|(x, y)| (x - y) * (x - y))
            .sum()
    })
}

/// Random strictly increasing axis grid of `n` points in a bounded
/// range (monotonicity is not required by the kernel math, but mirrors
/// the grids the joint design builds).
fn arb_grid(n: core::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    (n, -3.0f64..3.0, 0.1f64..4.0).prop_map(|(len, lo, span)| {
        (0..len)
            .map(|i| lo + span * i as f64 / len.max(2) as f64)
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Separable-vs-dense matvec agreement within 1e-9 relative on
    /// random grids, ε, and input vectors.
    #[test]
    fn separable_matvec_matches_dense_within_1e9(
        gx in arb_grid(2usize..13),
        gy in arb_grid(2usize..13),
        eps in 0.02f64..2.0,
        seed in 0u64..1_000,
    ) {
        let n = gx.len() * gy.len();
        // A deterministic pseudo-random positive input vector.
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let z = otr_zig(seed, i as u64);
                0.05 + (z % 1_000) as f64 / 1_000.0
            })
            .collect();
        let dense = dense_of_grid(&gx, &gy, eps);
        let sep = KernelRep::separable_grid2d(&gx, &gy, eps);
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        dense.matvec(&v, &mut a, &mut scratch, 1);
        sep.matvec(&v, &mut b, &mut scratch, 1);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300),
                "cell {}: dense {} vs separable {}", i, x, y
            );
        }
    }

    /// d-axis separable-vs-dense matvec agreement within 1e-9 relative
    /// on random `d ∈ {2, 3, 4}` product grids, ε, and input vectors —
    /// the n-d generalization of the two-axis case above.
    #[test]
    fn separable_nd_matvec_matches_dense_within_1e9(
        axes in proptest::collection::vec(arb_grid(2usize..6), 2usize..5),
        eps in 0.02f64..2.0,
        seed in 0u64..1_000,
    ) {
        let n: usize = axes.iter().map(Vec::len).product();
        let v: Vec<f64> = (0..n)
            .map(|i| {
                let z = otr_zig(seed, i as u64);
                0.05 + (z % 1_000) as f64 / 1_000.0
            })
            .collect();
        let dense = dense_of_grid_nd(&axes, eps);
        let refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let sep = KernelRep::separable_grid_nd(&refs, eps);
        let mut a = vec![0.0; n];
        let mut b = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        dense.matvec(&v, &mut a, &mut scratch, 1);
        sep.matvec(&v, &mut b, &mut scratch, 1);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1e-300),
                "d = {}, cell {}: dense {} vs separable {}", axes.len(), i, x, y
            );
        }
    }

    /// At `d = 2` the n-d representation must reproduce the legacy
    /// two-axis `Separable` matvec **to the bit**, for any thread
    /// count — the regression pin that lets every 2-feature production
    /// path route through `SeparableNd`.
    #[test]
    fn separable_nd_d2_bitwise_matches_legacy_separable(
        gx in arb_grid(2usize..13),
        gy in arb_grid(2usize..13),
        eps in 0.02f64..2.0,
    ) {
        let n = gx.len() * gy.len();
        let v: Vec<f64> = (0..n).map(|i| ((i * 17) % 29) as f64 / 29.0).collect();
        let legacy = KernelRep::separable_grid2d(&gx, &gy, eps);
        let nd = KernelRep::separable_grid_nd(&[&gx, &gy], eps);
        for threads in [1usize, 2, 7] {
            let mut a = vec![0.0; n];
            let mut b = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            legacy.matvec(&v, &mut a, &mut scratch, threads);
            nd.matvec(&v, &mut b, &mut scratch, threads);
            let bits_a: Vec<u64> = a.iter().map(|x| x.to_bits()).collect();
            let bits_b: Vec<u64> = b.iter().map(|x| x.to_bits()).collect();
            prop_assert!(bits_a == bits_b, "bytes differ at threads = {}", threads);
        }
    }

    /// The n-d separable matvec's bytes never depend on the thread
    /// count either.
    #[test]
    fn separable_nd_matvec_byte_identical_across_threads(
        axes in proptest::collection::vec(arb_grid(2usize..6), 3usize..5),
        eps in 0.02f64..2.0,
    ) {
        let n: usize = axes.iter().map(Vec::len).product();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64 / 31.0).collect();
        let refs: Vec<&[f64]> = axes.iter().map(Vec::as_slice).collect();
        let kernel = KernelRep::separable_grid_nd(&refs, eps);
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 7] {
            let mut out = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            kernel.matvec(&v, &mut out, &mut scratch, threads);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => prop_assert!(&bits == r, "bytes differ at threads = {}", threads),
            }
        }
    }

    /// The separable matvec's bytes never depend on the thread count.
    #[test]
    fn separable_matvec_byte_identical_across_threads(
        gx in arb_grid(2usize..13),
        gy in arb_grid(2usize..13),
        eps in 0.02f64..2.0,
    ) {
        let n = gx.len() * gy.len();
        let v: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64 / 31.0).collect();
        let kernel = KernelRep::separable_grid2d(&gx, &gy, eps);
        let mut reference: Option<Vec<u64>> = None;
        for threads in [1usize, 2, 7] {
            let mut out = vec![0.0; n];
            let mut scratch = vec![0.0; n];
            kernel.matvec(&v, &mut out, &mut scratch, threads);
            let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => prop_assert!(&bits == r, "bytes differ at threads = {}", threads),
            }
        }
    }
}

/// SplitMix64-style mixing for the proptest input vectors (local copy;
/// the contract here is only determinism, not stream quality).
fn otr_zig(base: u64, stream: u64) -> u64 {
    let mut z = base.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Separable-vs-dense **barycentre** agreement within 1e-9 (L1 over a
/// pmf of total mass 1), through the full Bregman iteration.
#[test]
fn separable_vs_dense_barycentre_within_1e9() {
    let gx: Vec<f64> = (0..12).map(|i| -1.5 + 0.27 * i as f64).collect();
    let gy: Vec<f64> = (0..10).map(|i| -1.2 + 0.31 * i as f64).collect();
    let pmf = |mx: f64, my: f64, sd: f64| -> Vec<f64> {
        let mut p: Vec<f64> = gx
            .iter()
            .flat_map(|&x| {
                gy.iter().map(move |&y| {
                    (-0.5 * (((x - mx) / sd).powi(2) + ((y - my) / sd).powi(2))).exp()
                })
            })
            .collect();
        let total: f64 = p.iter().sum();
        for v in &mut p {
            *v = (*v / total).max(1e-14);
        }
        p
    };
    let a = pmf(-0.4, -0.1, 0.5);
    let b = pmf(0.5, 0.8, 0.6);
    // A tight tolerance parks both iterate sequences well inside 1e-9
    // of the shared fixed point before they stop.
    let base = BarycentreConfig {
        tol: 1e-12,
        ..BarycentreConfig::new(0.12, 50_000)
    };
    let (dense, _) = entropic_barycentre_grid_nd(
        &[&a, &b],
        &[0.5, 0.5],
        &[&gx, &gy],
        &BarycentreConfig {
            kernel: KernelChoice::Dense,
            ..base
        },
    )
    .unwrap();
    let (sep, _) = entropic_barycentre_grid_nd(
        &[&a, &b],
        &[0.5, 0.5],
        &[&gx, &gy],
        &BarycentreConfig {
            kernel: KernelChoice::Separable,
            ..base
        },
    )
    .unwrap();
    let l1: f64 = dense.iter().zip(&sep).map(|(x, y)| (x - y).abs()).sum();
    assert!(l1 < 1e-9, "separable vs dense barycentre L1 = {l1:e}");
}

/// End-to-end joint dense-vs-separable agreement at design level: the
/// two representations must place the same transport cost on every
/// `(u, s)` plan to within solver tolerance.
#[test]
fn joint_design_transport_costs_agree_across_kernels() {
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(23);
    let research = spec.sample_dataset(400, &mut rng).unwrap();
    let mut dense_cfg = JointRepairConfig {
        n_q: 8,
        epsilon: 0.25,
        kernel: KernelChoice::Dense,
        ..JointRepairConfig::default()
    };
    dense_cfg.eps_scaling = Some(EpsSchedule::geometric(1.0, 0.5));
    let sep_cfg = JointRepairConfig {
        kernel: KernelChoice::Separable,
        ..dense_cfg
    };
    let dense = JointRepairPlan::design(&research, dense_cfg).unwrap();
    let sep = JointRepairPlan::design(&research, sep_cfg).unwrap();
    for u in 0..2u8 {
        for s in 0..2u8 {
            let cd = dense.expected_transport_cost(u, s).unwrap();
            let cs = sep.expected_transport_cost(u, s).unwrap();
            assert!(
                (cd - cs).abs() < 1e-6 * (1.0 + cd.abs()),
                "(u={u}, s={s}): dense {cd} vs separable {cs}"
            );
        }
    }
}

/// The acceptance pin: an `nQ = 24` joint design + repair with the
/// separable kernel forced on — `24⁴ = 331 776` logical kernel cells,
/// every matvec running as two axis passes — is **byte-identical**
/// across `OTR_THREADS ∈ {1, 2, 7}`.
#[test]
fn separable_joint_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let spec = SimulationSpec::paper_defaults();
    let mut rng = StdRng::seed_from_u64(41);
    let split = spec.generate(300, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 24,
        // Modest max-cost/eps keeps the debug-build iteration count
        // test-friendly; byte identity is eps-independent.
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        kernel: KernelChoice::Separable,
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let plan = JointRepairPlan::design(&split.research, cfg).unwrap();
        let out = plan.repair_dataset_par(&split.archive, 29).unwrap();
        let bytes: Vec<u64> = out
            .points()
            .iter()
            .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
            .collect();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// Three-feature paper-style spec: the `d = 2` defaults extended with a
/// third feature whose `(u, s)`-conditional means follow the same
/// pattern.
fn spec_3features() -> SimulationSpec {
    SimulationSpec {
        means: [
            [vec![-1.0, -1.0, -0.5], vec![0.0, 0.0, 0.0]],
            [vec![1.0, 1.0, 0.5], vec![0.0, 0.0, 0.0]],
        ],
        sigma: 1.0,
        covs: None,
        pr_u0: 0.5,
        pr_s0_given_u: [0.3, 0.1],
    }
}

/// The n-d acceptance pin: a **3-feature** `nQ = 12` joint design
/// (1 728 product states — past the `OTR_KERNEL_CELLS` chunking
/// threshold at `1 728 × 36` separable work cells) with the separable
/// kernel forced on, plus the repair of the archive through it, is
/// **byte-identical** across `OTR_THREADS ∈ {1, 2, 7}`. The explicit
/// `KernelChoice::Separable` ignores `OTR_KERNEL`, so this pin holds on
/// both CI kernel legs.
#[test]
fn separable_nd_3feature_joint_repair_byte_identical_across_otr_threads_env() {
    let _env = OTR_THREADS_ENV_LOCK
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(43);
    let split = spec_3features().generate(400, 400, &mut rng).unwrap();
    let cfg = JointRepairConfig {
        n_q: 12,
        epsilon: 0.25,
        eps_scaling: Some(EpsSchedule::geometric(1.0, 0.5)),
        kernel: KernelChoice::Separable,
        threads: 0, // auto: defer to OTR_THREADS
        ..JointRepairConfig::default()
    };
    let mut reference: Option<Vec<u64>> = None;
    for threads in ["1", "2", "7"] {
        std::env::set_var("OTR_THREADS", threads);
        let (plan, report) = JointRepairPlan::design_with_report(&split.research, cfg).unwrap();
        assert_eq!(report.dims, 3);
        assert_eq!(report.kernel, "separable");
        let out = plan.repair_dataset_par(&split.archive, 29).unwrap();
        let bytes: Vec<u64> = out
            .points()
            .iter()
            .flat_map(|p| p.x.iter().map(|v| v.to_bits()))
            .collect();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "OTR_THREADS = {threads}"),
        }
    }
    std::env::remove_var("OTR_THREADS");
}

/// 3-feature dense-vs-separable design agreement: both representations
/// must place the same transport cost on every `(u, s)` plan to within
/// solver tolerance (the d = 3 analogue of the 2-feature test above,
/// small enough — 216 states — for the dense kernel to stay cheap).
#[test]
fn joint_3feature_design_transport_costs_agree_across_kernels() {
    let mut rng = StdRng::seed_from_u64(47);
    let research = spec_3features().sample_dataset(500, &mut rng).unwrap();
    let mut dense_cfg = JointRepairConfig {
        n_q: 6,
        epsilon: 0.25,
        kernel: KernelChoice::Dense,
        ..JointRepairConfig::default()
    };
    dense_cfg.eps_scaling = Some(EpsSchedule::geometric(1.0, 0.5));
    let sep_cfg = JointRepairConfig {
        kernel: KernelChoice::Separable,
        ..dense_cfg
    };
    let dense = JointRepairPlan::design(&research, dense_cfg).unwrap();
    let sep = JointRepairPlan::design(&research, sep_cfg).unwrap();
    for u in 0..2u8 {
        for s in 0..2u8 {
            let cd = dense.expected_transport_cost(u, s).unwrap();
            let cs = sep.expected_transport_cost(u, s).unwrap();
            assert!(
                (cd - cs).abs() < 1e-6 * (1.0 + cd.abs()),
                "(u={u}, s={s}): dense {cd} vs separable {cs}"
            );
        }
    }
}
