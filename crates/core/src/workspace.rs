//! The slot-solve engine: reusable per-SBS workspaces, a borrowing
//! per-SBS subproblem view, and the deterministic parallel fan-out that
//! exploits the paper's exact per-SBS decomposition.
//!
//! Every solver layer dispatches per-SBS work through this module:
//!
//! * [`SlotWorkspace`] — preallocated buffers for one `(n, t)` slot
//!   solve of `P2` (demand, multipliers, bounds, the compressed
//!   free-entry arrays, fast-knapsack order, and projected-gradient
//!   scratch) plus the per-SBS reward table of `P1`. One workspace per
//!   worker thread amortizes every allocation of the primal-dual hot
//!   path across iterations.
//! * [`SbsSubproblem`] — a view borrowing one SBS's slice of the
//!   demand trace, cost model and multiplier tensor without cloning.
//! * [`Parallelism`] + [`parallel_map_with`] — the fan-out knob.
//!   Because the objective (eq. 9) and constraints (eq. 1–3) separate
//!   per SBS, per-SBS jobs are embarrassingly parallel; results are
//!   collected by SBS index and reduced in SBS order, so parallel and
//!   sequential execution produce **bitwise identical** results.

use crate::caching::CachingSupport;
use crate::cost::CostModel;
use crate::fastslot::{solve_bs_only_slot_into, FastSlotScratch};
use crate::plan::{CachePlan, CacheState};
use crate::problem::ProblemInstance;
use crate::sparse::NonzeroEntry;
use crate::tensor::Tensor4;
use crate::CoreError;
use jocal_optim::pgd::{minimize_with_scratch, PgdOptions, PgdScratch};
use jocal_optim::projection::project_box_budget;
use jocal_sim::topology::{ContentId, Sbs, SbsId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted by [`Parallelism::Auto`]: set
/// `JOCAL_THREADS=k` to pin the worker count without touching code.
pub const THREADS_ENV_VAR: &str = "JOCAL_THREADS";

/// How to fan per-SBS work out over OS threads.
///
/// The decomposition is exact and the reduction order is fixed, so the
/// choice affects wall-clock time only — never the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Run everything on the calling thread.
    Sequential,
    /// Use [`std::thread::available_parallelism`] workers, unless the
    /// `JOCAL_THREADS` environment variable overrides the count.
    #[default]
    Auto,
    /// Use exactly this many worker threads (`0` behaves like `Auto`).
    Threads(usize),
}

impl Parallelism {
    /// Resolves the worker count for `jobs` independent jobs. Never
    /// exceeds `jobs` (a single-SBS instance always runs inline, so
    /// nested fan-outs cannot oversubscribe).
    #[must_use]
    pub fn workers(self, jobs: usize) -> usize {
        if jobs <= 1 {
            return 1;
        }
        let requested = match self {
            Parallelism::Sequential => 1,
            Parallelism::Threads(k) if k > 0 => k,
            Parallelism::Auto | Parallelism::Threads(_) => std::env::var(THREADS_ENV_VAR)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&k| k > 0)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                }),
        };
        requested.min(jobs)
    }
}

/// Runs `run(state, i)` for every `i in 0..jobs` and returns the results
/// indexed by job, fanning out over [`Parallelism::workers`] scoped
/// threads. `make_state` builds one per-worker state (e.g. a
/// [`SlotWorkspace`]) that is reused across all jobs that worker claims.
///
/// Jobs are claimed from a shared atomic counter (work stealing), but
/// results are returned **by job index**, so the output — and any
/// in-order reduction over it — is independent of scheduling.
///
/// # Panics
///
/// Propagates panics from worker closures.
pub fn parallel_map_with<W, R, M, F>(
    parallelism: Parallelism,
    jobs: usize,
    make_state: M,
    run: F,
) -> Vec<R>
where
    R: Send,
    M: Fn() -> W + Sync,
    F: Fn(&mut W, usize) -> R + Sync,
{
    let workers = parallelism.workers(jobs);
    if workers <= 1 {
        let mut state = make_state();
        return (0..jobs).map(|i| run(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = make_state();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        out.push((i, run(&mut state, i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("jocal worker thread panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    for chunk in per_worker {
        for (i, r) in chunk {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|r| r.expect("every job index is claimed exactly once"))
        .collect()
}

/// [`parallel_map_with`] without per-worker state.
pub fn parallel_map<R, F>(parallelism: Parallelism, jobs: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_with(parallelism, jobs, || (), |(), i| run(i))
}

/// Plain (non-atomic) counters a worker's [`SlotWorkspace`] accumulates
/// across slot solves.
///
/// These are the sharded half of the telemetry story: each worker
/// thread counts into its own workspace with ordinary integer adds (no
/// atomics, no locks in the solve path), the deltas ride back on the
/// per-SBS job results, and the driving thread merges them **in SBS
/// order** — so enabling telemetry can never perturb the deterministic
/// fan-out or its reduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotSolveStats {
    /// Slot solves performed (including trivial/empty slots).
    pub solves: u64,
    /// Slots answered without running PGD (empty or fully pinned).
    pub trivial_slots: u64,
    /// Slots seeded by the fast-knapsack closed form before the PGD
    /// polish.
    pub fastpath_hits: u64,
    /// Total PGD iterations across slot solves.
    pub pgd_iterations: u64,
    /// Total projection-oracle invocations.
    pub pgd_projections: u64,
    /// PGD runs that met the residual tolerance.
    pub pgd_converged: u64,
    /// PGD runs stopped by the iteration budget.
    pub pgd_budget_exhausted: u64,
    /// Line searches abandoned at the step floor.
    pub pgd_step_floor_hits: u64,
    /// Slot solves answered via the sparse nonzero-indexed path.
    pub sparse_slots: u64,
    /// Slot solves answered via the dense full-block path.
    pub dense_slots: u64,
}

impl SlotSolveStats {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &SlotSolveStats) {
        self.solves += other.solves;
        self.trivial_slots += other.trivial_slots;
        self.fastpath_hits += other.fastpath_hits;
        self.pgd_iterations += other.pgd_iterations;
        self.pgd_projections += other.pgd_projections;
        self.pgd_converged += other.pgd_converged;
        self.pgd_budget_exhausted += other.pgd_budget_exhausted;
        self.pgd_step_floor_hits += other.pgd_step_floor_hits;
        self.sparse_slots += other.sparse_slots;
        self.dense_slots += other.dense_slots;
    }

    /// Takes the accumulated counts, resetting `self` to zero.
    pub fn take(&mut self) -> SlotSolveStats {
        std::mem::take(self)
    }
}

/// Preallocated working memory for per-SBS slot solves.
///
/// Input buffers (`omega_*`, `lambda`, `linear`, `upper`, `warm`) are
/// filled by [`SbsSubproblem`] or directly by a caller, then
/// [`SlotWorkspace::solve_filled_slot`] consumes them. All other fields
/// are internal scratch. One workspace per worker thread; never shared.
#[derive(Debug, Clone, Default)]
pub struct SlotWorkspace {
    /// Per-class BS-side weights `ω_m` (length `M`).
    pub omega_bs: Vec<f64>,
    /// Per-class SBS-side weights `ω̂_m` (length `M`).
    pub omega_sbs: Vec<f64>,
    /// Demand `λ_{m,k}` flattened as `m·K + k` (length `M·K`).
    pub lambda: Vec<f64>,
    /// Linear coefficients (the multipliers `μ`), same layout.
    pub linear: Vec<f64>,
    /// Per-entry upper bounds (`1` for `P2`, `x_{n,k}` for fixed cache).
    pub upper: Vec<f64>,
    /// Warm-start fractions in the full `m·K + k` layout; consulted by
    /// [`SlotWorkspace::solve_filled_slot`] when `use_warm` is set.
    pub warm: Vec<f64>,
    /// `P1` reward rows `r[t][j] = Σ_m μ^t_{n,m,k}` over the SBS's
    /// support, filled by `SbsSubproblem::fill_rewards`.
    pub rewards: Vec<Vec<f64>>,
    /// Initial cache indicator per supported content, filled by
    /// `SbsSubproblem::fill_initial_cache`.
    pub initially_cached: Vec<bool>,
    /// Solve counters accumulated across [`Self::solve_filled_slot`]
    /// calls; drained by the observed fan-out drivers via
    /// [`SlotSolveStats::take`].
    pub stats: SlotSolveStats,
    // Internal scratch for the compressed slot solve.
    a: Vec<f64>,
    b: Vec<f64>,
    free: Vec<usize>,
    fpos: Vec<usize>,
    fa: Vec<f64>,
    fb: Vec<f64>,
    flinear: Vec<f64>,
    fupper: Vec<f64>,
    flambda: Vec<f64>,
    flo: Vec<f64>,
    fy: Vec<f64>,
    fastslot: FastSlotScratch,
    pgd: PgdScratch,
}

/// Tolerance/iteration budget used for the per-slot convex solves.
pub(crate) fn slot_pgd_options() -> PgdOptions {
    PgdOptions {
        max_iters: 600,
        tol: 1e-7,
        initial_step: 1.0,
        backtrack: 0.5,
        min_step: 1e-16,
        accelerated: true,
    }
}

impl SlotWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves one `(n, t)` slot of `P2` from the filled input buffers
    /// (`omega_bs`, `omega_sbs`, `lambda`, `linear`, `upper`), writing
    /// the optimal fractions into `out` (length `M·K`) and returning the
    /// slot objective. When `use_warm` is set, `self.warm` seeds the
    /// iteration; otherwise the fast knapsack path or a zero start is
    /// used.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] on inconsistent buffer
    /// lengths and propagates sub-solver failures.
    pub fn solve_filled_slot(
        &mut self,
        cost_model: &CostModel,
        bandwidth: f64,
        use_warm: bool,
        out: &mut [f64],
    ) -> Result<f64, CoreError> {
        let m_total = self.omega_bs.len();
        if self.omega_sbs.len() != m_total {
            return Err(CoreError::shape("omega_sbs length mismatch"));
        }
        self.stats.solves += 1;
        self.stats.dense_slots += 1;
        if m_total == 0 || self.lambda.is_empty() {
            self.stats.trivial_slots += 1;
            out.fill(0.0);
            return Ok(0.0);
        }
        if !self.lambda.len().is_multiple_of(m_total) {
            return Err(CoreError::shape(format!(
                "lambda length {} not a multiple of {m_total} classes",
                self.lambda.len()
            )));
        }
        let n_entries = self.lambda.len();
        if self.linear.len() != n_entries || self.upper.len() != n_entries {
            return Err(CoreError::shape("linear/upper length mismatch"));
        }
        if out.len() != n_entries {
            return Err(CoreError::shape(format!(
                "slot output length {} != {n_entries} entries",
                out.len()
            )));
        }
        let k_total = n_entries / m_total;

        let SlotWorkspace {
            omega_bs,
            omega_sbs,
            lambda,
            linear,
            upper,
            warm,
            a,
            b,
            free,
            fa,
            fb,
            flinear,
            fupper,
            flambda,
            flo,
            fy,
            fastslot,
            pgd,
            stats,
            ..
        } = self;

        // Per-entry aggregate coefficients (ω λ toward the BS, ω̂ λ toward
        // the SBS) and the total weighted demand u₀ = Σ ω λ.
        a.clear();
        a.resize(n_entries, 0.0);
        b.clear();
        b.resize(n_entries, 0.0);
        for m in 0..m_total {
            for k in 0..k_total {
                let i = m * k_total + k;
                a[i] = omega_bs[m] * lambda[i];
                b[i] = omega_sbs[m] * lambda[i];
            }
        }
        let u0: f64 = a.iter().sum();

        // Entries pinned at 0 by their upper bound (or carrying zero
        // demand and a non-negative price) cannot improve the objective:
        // compress them out. This is a large win when a fixed cache
        // zeroes most items.
        free.clear();
        free.extend(
            (0..n_entries).filter(|&i| upper[i] > 0.0 && (lambda[i] > 0.0 || linear[i] < 0.0)),
        );

        if free.is_empty() {
            stats.trivial_slots += 1;
            out.fill(0.0);
            return Ok(cost_model.bs_cost.value(u0) + cost_model.sbs_cost.value(0.0));
        }

        let gather = |dst: &mut Vec<f64>, src: &[f64]| {
            dst.clear();
            dst.extend(free.iter().map(|&i| src[i]));
        };
        gather(fa, a);
        gather(fb, b);
        gather(flinear, linear);
        gather(fupper, upper);
        gather(flambda, lambda);
        flo.clear();
        flo.resize(free.len(), 0.0);

        // Fast path (the paper's evaluation setting): with no SBS-side
        // cost the slot problem is a knapsack-structured scalar fixed
        // point. The closed-form point is optimal up to knapsack-jump
        // corner cases, so it is used as a warm start for a short
        // projected-gradient polish — replacing hundreds of cold
        // iterations with a handful.
        let mut pgd_opts = slot_pgd_options();
        let have_warm = use_warm && warm.len() == n_entries;
        if !have_warm && fb.iter().all(|&v| v == 0.0) && flinear.iter().all(|&v| v >= 0.0) {
            solve_bs_only_slot_into(
                cost_model.bs_cost,
                u0,
                &*fa,
                &*flinear,
                &*flambda,
                &*fupper,
                bandwidth,
                fastslot,
                fy,
            )?;
            stats.fastpath_hits += 1;
            pgd_opts.max_iters = 80;
        } else {
            fy.clear();
            if have_warm {
                fy.extend(free.iter().map(|&i| warm[i]));
            } else {
                fy.resize(free.len(), 0.0);
            }
        }

        let bs = cost_model.bs_cost;
        let sbs = cost_model.sbs_cost;
        let objective = |y: &[f64]| -> f64 {
            let served_bs: f64 = fa.iter().zip(y).map(|(ai, yi)| ai * yi).sum();
            let served_sbs: f64 = fb.iter().zip(y).map(|(bi, yi)| bi * yi).sum();
            let lin: f64 = flinear.iter().zip(y).map(|(ci, yi)| ci * yi).sum();
            bs.value(u0 - served_bs) + sbs.value(served_sbs) + lin
        };
        let gradient = |y: &[f64], g: &mut [f64]| {
            let served_bs: f64 = fa.iter().zip(y.iter()).map(|(ai, yi)| ai * yi).sum();
            let served_sbs: f64 = fb.iter().zip(y.iter()).map(|(bi, yi)| bi * yi).sum();
            let dphi = bs.derivative(u0 - served_bs);
            let dpsi = sbs.derivative(served_sbs);
            for (gi, ((&ai, &bi), &ci)) in g
                .iter_mut()
                .zip(fa.iter().zip(fb.iter()).zip(flinear.iter()))
            {
                *gi = -dphi * ai + dpsi * bi + ci;
            }
        };
        let project = |y: &mut [f64]| {
            let p = project_box_budget(&*y, &*flo, &*fupper, &*flambda, bandwidth)
                .expect("box-budget projection cannot fail: 0 is feasible");
            y.copy_from_slice(&p);
        };

        let run = minimize_with_scratch(objective, gradient, project, fy, pgd_opts, pgd)?;
        stats.pgd_iterations += run.iterations as u64;
        stats.pgd_projections += run.projections as u64;
        stats.pgd_step_floor_hits += run.step_floor_hits as u64;
        if run.converged {
            stats.pgd_converged += 1;
        } else {
            stats.pgd_budget_exhausted += 1;
        }
        out.fill(0.0);
        for (slot, &i) in free.iter().enumerate() {
            out[i] = fy[slot];
        }
        Ok(run.objective)
    }

    /// Solves one `(n, t)` slot of `P2` from its nonzero demand entries
    /// only, writing the optimal fractions *compactly* into `out` — one
    /// value per indexed entry, in entry order (entries bounded to zero
    /// by the cache get an explicit `0.0`) — and returning the slot
    /// objective. Callers scatter `out[j]` to flat position
    /// `entries[j].idx`; every position outside the index is zero at
    /// the optimum and must already hold `0.0` in the destination.
    ///
    /// Bit-identical to filling the dense buffers and calling
    /// [`SlotWorkspace::solve_filled_slot`]: zero-λ entries contribute
    /// exactly `+0.0` to every accumulated sum and are provably zero at
    /// the optimum (their objective term is `μ·y` with `μ ≥ 0`), so
    /// skipping them in index order reproduces the dense free set,
    /// coefficients and `u₀` to the bit (see [`crate::sparse`]). Runtime
    /// and output size are `O(nnz)` — no `O(M·K)` pass anywhere.
    ///
    /// Only the per-class weight buffers (`omega_bs`, `omega_sbs`) need
    /// to be filled beforehand; demand, multipliers, bounds and warm
    /// start all arrive through `input`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ShapeMismatch`] on inconsistent input
    /// lengths and propagates sub-solver failures.
    pub fn solve_sparse_slot(
        &mut self,
        cost_model: &CostModel,
        bandwidth: f64,
        input: SparseSlotInput<'_>,
        out: &mut [f64],
    ) -> Result<f64, CoreError> {
        let m_total = self.omega_bs.len();
        if self.omega_sbs.len() != m_total {
            return Err(CoreError::shape("omega_sbs length mismatch"));
        }
        self.stats.solves += 1;
        self.stats.sparse_slots += 1;
        let n_entries = m_total * input.k_total;
        if out.len() != input.entries.len() {
            return Err(CoreError::shape(format!(
                "compact slot output length {} != {} indexed entries",
                out.len(),
                input.entries.len()
            )));
        }
        if n_entries == 0 {
            self.stats.trivial_slots += 1;
            out.fill(0.0);
            return Ok(0.0);
        }
        if let Some(linear) = input.linear {
            if linear.len() != n_entries {
                return Err(CoreError::shape("linear length mismatch"));
            }
            // Dual feasibility (μ ≥ 0) is what makes the nonzero index a
            // superset of the dense free set: a zero-λ entry can only
            // enter the dense free set through `linear < 0`.
            debug_assert!(linear.iter().all(|&v| v >= 0.0));
        }
        let have_warm = input.warm.is_some_and(|w| w.len() == n_entries);

        let SlotWorkspace {
            omega_bs,
            omega_sbs,
            free,
            fpos,
            fa,
            fb,
            flinear,
            fupper,
            flambda,
            flo,
            fy,
            fastslot,
            pgd,
            stats,
            ..
        } = self;

        // Single pass over the nonzeros: accumulate u₀ = Σ ω λ in index
        // order (bit-equal to the dense sum — zero terms add +0.0) and
        // gather the compressed arrays for the free entries directly.
        // `free` keeps each member's flat `m·K + k` index (for warm and
        // multiplier reads), `fpos` its ordinal in `entries` (for the
        // compact output scatter).
        free.clear();
        fpos.clear();
        fa.clear();
        fb.clear();
        flinear.clear();
        fupper.clear();
        flambda.clear();
        let mut u0 = 0.0;
        for (j, e) in input.entries.iter().enumerate() {
            let i = e.idx as usize;
            debug_assert!(i < n_entries, "nonzero index out of block bounds");
            debug_assert!(e.lambda > 0.0, "indexed entry must be nonzero");
            let m = i / input.k_total;
            let ai = omega_bs[m] * e.lambda;
            u0 += ai;
            let up = match input.cached {
                Some((state, n)) => {
                    if state.contains(n, ContentId(i % input.k_total)) {
                        1.0
                    } else {
                        0.0
                    }
                }
                None => 1.0,
            };
            if up > 0.0 {
                free.push(i);
                fpos.push(j);
                fa.push(ai);
                fb.push(omega_sbs[m] * e.lambda);
                flinear.push(input.linear.map_or(0.0, |l| l[i]));
                fupper.push(up);
                flambda.push(e.lambda);
            }
        }

        if free.is_empty() {
            stats.trivial_slots += 1;
            out.fill(0.0);
            return Ok(cost_model.bs_cost.value(u0) + cost_model.sbs_cost.value(0.0));
        }
        flo.clear();
        flo.resize(free.len(), 0.0);

        let mut pgd_opts = slot_pgd_options();
        if !have_warm && fb.iter().all(|&v| v == 0.0) && flinear.iter().all(|&v| v >= 0.0) {
            solve_bs_only_slot_into(
                cost_model.bs_cost,
                u0,
                &*fa,
                &*flinear,
                &*flambda,
                &*fupper,
                bandwidth,
                fastslot,
                fy,
            )?;
            stats.fastpath_hits += 1;
            pgd_opts.max_iters = 80;
        } else {
            fy.clear();
            if have_warm {
                let warm = input.warm.expect("have_warm implies a warm block");
                fy.extend(free.iter().map(|&i| warm[i]));
            } else {
                fy.resize(free.len(), 0.0);
            }
        }

        let bs = cost_model.bs_cost;
        let sbs = cost_model.sbs_cost;
        let objective = |y: &[f64]| -> f64 {
            let served_bs: f64 = fa.iter().zip(y).map(|(ai, yi)| ai * yi).sum();
            let served_sbs: f64 = fb.iter().zip(y).map(|(bi, yi)| bi * yi).sum();
            let lin: f64 = flinear.iter().zip(y).map(|(ci, yi)| ci * yi).sum();
            bs.value(u0 - served_bs) + sbs.value(served_sbs) + lin
        };
        let gradient = |y: &[f64], g: &mut [f64]| {
            let served_bs: f64 = fa.iter().zip(y.iter()).map(|(ai, yi)| ai * yi).sum();
            let served_sbs: f64 = fb.iter().zip(y.iter()).map(|(bi, yi)| bi * yi).sum();
            let dphi = bs.derivative(u0 - served_bs);
            let dpsi = sbs.derivative(served_sbs);
            for (gi, ((&ai, &bi), &ci)) in g
                .iter_mut()
                .zip(fa.iter().zip(fb.iter()).zip(flinear.iter()))
            {
                *gi = -dphi * ai + dpsi * bi + ci;
            }
        };
        let project = |y: &mut [f64]| {
            let p = project_box_budget(&*y, &*flo, &*fupper, &*flambda, bandwidth)
                .expect("box-budget projection cannot fail: 0 is feasible");
            y.copy_from_slice(&p);
        };

        let run = minimize_with_scratch(objective, gradient, project, fy, pgd_opts, pgd)?;
        stats.pgd_iterations += run.iterations as u64;
        stats.pgd_projections += run.projections as u64;
        stats.pgd_step_floor_hits += run.step_floor_hits as u64;
        if run.converged {
            stats.pgd_converged += 1;
        } else {
            stats.pgd_budget_exhausted += 1;
        }
        out.fill(0.0);
        for (slot, &j) in fpos.iter().enumerate() {
            out[j] = fy[slot];
        }
        Ok(run.objective)
    }
}

/// Inputs for [`SlotWorkspace::solve_sparse_slot`]: the nonzero view of
/// one `(n, t)` demand block plus the dense side inputs that are read
/// *at* nonzero positions only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseSlotInput<'a> {
    /// Catalog size `K`, decomposing flat `m·K + k` entry indices.
    pub k_total: usize,
    /// The block's nonzero demand entries, in index order.
    pub entries: &'a [NonzeroEntry],
    /// Dense linear-coefficient block (the multipliers `μ ≥ 0`), or
    /// `None` for all-zero coefficients.
    pub linear: Option<&'a [f64]>,
    /// Cache state bounding `y ≤ x`; `None` leaves all entries free.
    pub cached: Option<(&'a CacheState, SbsId)>,
    /// Dense warm-start block, consulted at free entries.
    pub warm: Option<&'a [f64]>,
}

/// A borrowed view of one SBS's share of a [`ProblemInstance`]: its
/// classes, demand slice, cost model and capacities — everything the
/// per-SBS `P1`/`P2` sub-solvers need, with no cloning.
#[derive(Debug, Clone, Copy)]
pub struct SbsSubproblem<'a> {
    problem: &'a ProblemInstance,
    n: SbsId,
    sbs: &'a Sbs,
    num_contents: usize,
}

impl<'a> SbsSubproblem<'a> {
    /// Creates the view for SBS `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range for the problem's network.
    #[must_use]
    pub fn new(problem: &'a ProblemInstance, n: SbsId) -> Self {
        let sbs = problem.network().sbs(n).expect("validated SBS index");
        SbsSubproblem {
            problem,
            n,
            sbs,
            num_contents: problem.network().num_contents(),
        }
    }

    /// The SBS index this view covers.
    #[must_use]
    pub fn sbs_id(&self) -> SbsId {
        self.n
    }

    /// The problem instance this view borrows from.
    #[must_use]
    pub fn problem(&self) -> &'a ProblemInstance {
        self.problem
    }

    /// The underlying SBS (capacity, bandwidth, classes).
    #[must_use]
    pub fn sbs(&self) -> &'a Sbs {
        self.sbs
    }

    /// Bandwidth budget `B_n`.
    #[must_use]
    pub fn bandwidth(&self) -> f64 {
        self.sbs.bandwidth()
    }

    /// Length `M_n · K` of one flattened `(m, k)` slot block.
    #[must_use]
    pub fn block_len(&self) -> usize {
        self.sbs.num_classes() * self.num_contents
    }

    /// Fills the per-class weight buffers `ω`, `ω̂`.
    pub fn fill_weights(&self, ws: &mut SlotWorkspace) {
        ws.omega_bs.clear();
        ws.omega_sbs.clear();
        for class in self.sbs.classes() {
            ws.omega_bs.push(class.omega_bs);
            ws.omega_sbs.push(class.omega_sbs);
        }
    }

    /// Fills the demand buffer with slot `t`'s `λ` block (zero-copy
    /// source).
    pub fn fill_demand(&self, t: usize, ws: &mut SlotWorkspace) {
        ws.lambda.clear();
        ws.lambda
            .extend_from_slice(self.problem.demand().sbs_slot_slice(t, self.n));
    }

    /// Fills the linear-coefficient buffer from the multiplier tensor's
    /// slot block.
    pub fn fill_linear(&self, mu: &Tensor4, t: usize, ws: &mut SlotWorkspace) {
        ws.linear.clear();
        ws.linear.extend_from_slice(mu.sbs_slot_slice(t, self.n));
    }

    /// Fills the `P2` upper bounds: all ones (any entry may be served).
    pub fn fill_upper_ones(&self, ws: &mut SlotWorkspace) {
        ws.upper.clear();
        ws.upper.resize(self.block_len(), 1.0);
    }

    /// Fills the upper bounds from a fixed caching plan: `y_{m,k} ≤
    /// x_{n,k}` (eq. 2 coupling with the cache held integral).
    pub fn fill_upper_from_cache(&self, x: &CachePlan, t: usize, ws: &mut SlotWorkspace) {
        let k_total = self.num_contents;
        ws.upper.clear();
        ws.upper.resize(self.block_len(), 0.0);
        for k in 0..k_total {
            if x.state(t).contains(self.n, ContentId(k)) {
                for m in 0..self.sbs.num_classes() {
                    ws.upper[m * k_total + k] = 1.0;
                }
            }
        }
    }

    /// Fills the linear-coefficient buffer with zeros (no multiplier
    /// term).
    pub fn fill_linear_zero(&self, ws: &mut SlotWorkspace) {
        ws.linear.clear();
        ws.linear.resize(self.block_len(), 0.0);
    }

    /// Fills the `P1` reward table over the whole horizon, compacted to
    /// the SBS's support: `r[t][j] = Σ_m μ^t_{n,m,k}` for the `j`-th
    /// content `k` of `support.contents(n)`.
    ///
    /// Only active coordinates are summed, in ascending `m` per
    /// content. Every skipped term is a zero multiplier, and adding
    /// zero to a sum that starts at `+0.0` keeps its bits, so each
    /// reward equals the full dense sum.
    pub(crate) fn fill_rewards(
        &self,
        mu: &Tensor4,
        support: &CachingSupport,
        ws: &mut SlotWorkspace,
    ) {
        let horizon = mu.horizon();
        let width = support.contents(self.n).len();
        let mu = mu.as_slice();
        ws.rewards.resize(horizon, Vec::new());
        for (t, row) in ws.rewards.iter_mut().enumerate() {
            row.clear();
            row.resize(width, 0.0);
            for (idx, j) in support.slot(t, self.n) {
                row[j] += mu[idx];
            }
        }
        ws.rewards.truncate(horizon);
    }

    /// Fills the initial-cache indicator of the SBS's support from the
    /// problem's pre-horizon state.
    pub(crate) fn fill_initial_cache(&self, support: &CachingSupport, ws: &mut SlotWorkspace) {
        let initial = self.problem.initial_cache();
        ws.initially_cached.clear();
        ws.initially_cached.extend(
            support
                .contents(self.n)
                .iter()
                .map(|&k| initial.contains(self.n, k)),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jocal_sim::topology::{MuClass, Network};

    #[test]
    fn workers_resolution() {
        assert_eq!(Parallelism::Sequential.workers(8), 1);
        assert_eq!(Parallelism::Threads(4).workers(8), 4);
        assert_eq!(Parallelism::Threads(16).workers(8), 8);
        assert_eq!(Parallelism::Threads(3).workers(1), 1);
        assert_eq!(Parallelism::Auto.workers(0), 1);
        assert!(Parallelism::Auto.workers(64) >= 1);
    }

    #[test]
    fn parallel_map_matches_sequential_and_orders_results() {
        let square = |i: usize| (i * i) as u64;
        let seq: Vec<u64> = (0..33).map(square).collect();
        for par in [
            Parallelism::Sequential,
            Parallelism::Threads(2),
            Parallelism::Threads(7),
        ] {
            let got = parallel_map(par, 33, square);
            assert_eq!(got, seq, "{par:?}");
        }
    }

    #[test]
    fn per_worker_state_is_reused() {
        // Each worker counts its own jobs; totals must cover all jobs.
        let counts = parallel_map_with(
            Parallelism::Threads(3),
            20,
            || 0usize,
            |state, _i| {
                *state += 1;
                *state
            },
        );
        assert_eq!(counts.len(), 20);
        // Every job got a positive per-worker sequence number.
        assert!(counts.iter().all(|&c| c >= 1));
    }

    #[test]
    fn subproblem_view_matches_network() {
        let net = Network::builder(3)
            .sbs(
                1,
                5.0,
                1.0,
                vec![
                    MuClass::new(0.1, 0.0, 1.0).unwrap(),
                    MuClass::new(0.2, 0.0, 2.0).unwrap(),
                ],
            )
            .unwrap()
            .build()
            .unwrap();
        let demand = jocal_sim::demand::DemandTrace::zeros(&net, 2);
        let problem = ProblemInstance::fresh(net, demand).unwrap();
        let sub = SbsSubproblem::new(&problem, SbsId(0));
        assert_eq!(sub.block_len(), 6);
        assert_eq!(sub.bandwidth(), 5.0);
        let mut ws = SlotWorkspace::new();
        sub.fill_weights(&mut ws);
        assert_eq!(ws.omega_bs, vec![0.1, 0.2]);
        sub.fill_demand(0, &mut ws);
        assert_eq!(ws.lambda.len(), 6);
        let mu = Tensor4::zeros(problem.network(), 2);
        let full = CachingSupport::new(&problem.clone().with_dense_oracle(), &mu);
        sub.fill_rewards(&mu, &full, &mut ws);
        assert_eq!(ws.rewards.len(), 2);
        assert_eq!(ws.rewards[0], vec![0.0; 3]);
        sub.fill_initial_cache(&full, &mut ws);
        assert_eq!(ws.initially_cached, vec![false; 3]);
        // Zero demand, zero multipliers, empty cache: nothing to support.
        let compact = CachingSupport::new(&problem, &mu);
        assert!(compact.contents(SbsId(0)).is_empty());
        sub.fill_rewards(&mu, &compact, &mut ws);
        assert_eq!(ws.rewards, vec![Vec::<f64>::new(); 2]);
    }
}
