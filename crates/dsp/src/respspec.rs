//! Elastic response spectra (process #16 — the pipeline's dominant cost).
//!
//! For every oscillator period `T` and damping ratio `ζ`, the peak response
//! of a single-degree-of-freedom system driven by the ground acceleration is
//! computed: relative displacement `SD`, relative velocity `SV`, and absolute
//! acceleration `SA` (plus the pseudo-quantities `PSV = ω·SD`,
//! `PSA = ω²·SD`).
//!
//! Two solvers are provided:
//!
//! * [`ResponseMethod::Duhamel`] — direct evaluation of the Duhamel
//!   convolution integral, `O(D²)` in the record length per period. This is
//!   the method class behind the paper's stated sequential complexity of
//!   `O(9000 · N · D²)` for process #16, and is kept as the faithful
//!   reproduction of the legacy Fortran kernel.
//! * [`ResponseMethod::NigamJennings`] — the exact piecewise-linear
//!   recurrence (Nigam & Jennings, 1969), `O(D)` per period; used as the
//!   fast alternative and as an ablation of the paper's "advanced
//!   optimization" future work.
//!
//! The Nigam–Jennings recurrence runs in state-transition form: per
//! `(period, damping)` the exact step is a fixed 2×2 matrix on the state
//! `(u, v)` plus a fixed 2×2 matrix on the forcing `(a0, a1)`, both taken
//! once from the stepwise solution `nj_step`, so the time loop is 10
//! multiplies and 7 adds with no division. One generic loop serves the
//! scalar backend (one oscillator) and the SIMD backend (four periods per
//! block), so the backends are bitwise-equal; on x86-64 the four-lane loop
//! also has an AVX2 clone chosen at run time, with the same bits.

use crate::backend::{DspBackend, LANES};
use crate::error::DspError;

/// Solver used for the SDOF time-history integration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ResponseMethod {
    /// Direct Duhamel integral, `O(D²)` per period (legacy-faithful).
    Duhamel,
    /// Exact recursive solution for piecewise-linear input, `O(D)` per period,
    /// applied as a fixed state-transition matrix per oscillator: no
    /// division per step. Ordinates agree with the stepwise form of the
    /// recurrence to within 1e-8 relative.
    NigamJennings,
}

/// Peak SDOF responses for one `(period, damping)` pair.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SdofPeaks {
    /// Peak relative displacement.
    pub sd: f64,
    /// Peak relative velocity.
    pub sv: f64,
    /// Peak absolute acceleration.
    pub sa: f64,
}

/// A full response spectrum over a period grid at one damping ratio.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ResponseSpectrum {
    /// Oscillator periods (s), ascending.
    pub periods: Vec<f64>,
    /// Damping ratio (fraction of critical, e.g. 0.05).
    pub damping: f64,
    /// Peak relative displacement per period.
    pub sd: Vec<f64>,
    /// Peak relative velocity per period.
    pub sv: Vec<f64>,
    /// Peak absolute acceleration per period.
    pub sa: Vec<f64>,
}

impl ResponseSpectrum {
    /// Pseudo-velocity spectrum `PSV = ω · SD`.
    pub fn psv(&self) -> Vec<f64> {
        self.periods
            .iter()
            .zip(&self.sd)
            .map(|(&t, &sd)| 2.0 * std::f64::consts::PI / t * sd)
            .collect()
    }

    /// Pseudo-acceleration spectrum `PSA = ω² · SD`.
    pub fn psa(&self) -> Vec<f64> {
        self.periods
            .iter()
            .zip(&self.sd)
            .map(|(&t, &sd)| {
                let w = 2.0 * std::f64::consts::PI / t;
                w * w * sd
            })
            .collect()
    }

    /// Number of spectral ordinates.
    pub fn len(&self) -> usize {
        self.periods.len()
    }

    /// True when the spectrum has no ordinates.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }
}

/// The standard 91-period grid used by classic Vol.3 processing: log-spaced
/// between 0.04 s and 15 s.
pub fn standard_periods() -> Vec<f64> {
    log_spaced_periods(0.04, 15.0, 91)
}

/// `count` log-spaced periods between `t_lo` and `t_hi` seconds.
pub fn log_spaced_periods(t_lo: f64, t_hi: f64, count: usize) -> Vec<f64> {
    assert!(
        t_lo > 0.0 && t_hi > t_lo && count >= 2,
        "bad period grid spec"
    );
    let l0 = t_lo.ln();
    let step = (t_hi.ln() - l0) / (count - 1) as f64;
    (0..count).map(|i| (l0 + step * i as f64).exp()).collect()
}

/// The damping set archived in `R` files: 0%, 2%, 5%, 10%, 20% of critical.
pub const STANDARD_DAMPINGS: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.20];

/// Computes the peak response of one SDOF oscillator.
///
/// `period` in seconds, `damping` as a fraction of critical in `[0, 0.99]`.
pub fn sdof_peaks(
    acc: &[f64],
    dt: f64,
    period: f64,
    damping: f64,
    method: ResponseMethod,
) -> Result<SdofPeaks, DspError> {
    validate_sdof_args(acc, dt, period, damping)?;
    Ok(match method {
        ResponseMethod::Duhamel => duhamel_peaks(acc, dt, period, damping),
        ResponseMethod::NigamJennings => nigam_jennings_peaks(acc, dt, period, damping),
    })
}

fn validate_sdof_args(acc: &[f64], dt: f64, period: f64, damping: f64) -> Result<(), DspError> {
    if acc.len() < 2 {
        return Err(DspError::TooShort {
            needed: 2,
            got: acc.len(),
        });
    }
    if !(dt.is_finite() && dt > 0.0) {
        return Err(DspError::InvalidSampling(dt));
    }
    if !(period.is_finite() && period > 0.0) {
        return Err(DspError::InvalidArgument(format!(
            "period {period} must be > 0"
        )));
    }
    if !(0.0..0.99).contains(&damping) {
        return Err(DspError::InvalidArgument(format!(
            "damping {damping} must be in [0, 0.99)"
        )));
    }
    Ok(())
}

/// Per-period SDOF constants shared by both solvers and both backends.
///
/// Computed once per period by [`sdof_consts`] so the scalar and 4-lane
/// kernels see exactly the same values (the transcendentals here are the
/// only `exp`/`sin_cos` calls in the Nigam–Jennings path).
#[derive(Debug, Clone, Copy)]
struct SdofConsts {
    /// Natural circular frequency `ω = 2π/T`.
    w: f64,
    /// Damped frequency `ωd = ω·√(1-ζ²)`.
    wd: f64,
    /// Decay rate `ζω`.
    bw: f64,
    /// `ω²`.
    w2: f64,
    /// Step decay `e^{-ζω·dt}`.
    e: f64,
    /// `sin(ωd·dt)`.
    s: f64,
    /// `cos(ωd·dt)`.
    c: f64,
}

fn sdof_consts(dt: f64, period: f64, damping: f64) -> SdofConsts {
    let w = 2.0 * std::f64::consts::PI / period;
    let wd = w * (1.0 - damping * damping).sqrt();
    let bw = damping * w;
    let w2 = w * w;
    let e = (-bw * dt).exp();
    let (s, c) = (wd * dt).sin_cos();
    SdofConsts {
        w,
        wd,
        bw,
        w2,
        e,
        s,
        c,
    }
}

/// One Nigam–Jennings step: advances `(u, v)` across one sample interval
/// with ground acceleration linear from `a0` to `a1`, returning
/// `(u', v', absolute acceleration)`.
///
/// The single statement of the physics: [`NjLanes::new`] applies it to
/// unit states and unit forcings to build the state-transition matrices the
/// time loop runs on.
#[inline(always)]
fn nj_step(k: &SdofConsts, dt: f64, u: f64, v: f64, a0: f64, a1: f64) -> (f64, f64, f64) {
    let gamma = (a1 - a0) / dt;

    // Particular solution u_p = cc + dd·τ for forcing -(a0 + γτ).
    let dd = -gamma / k.w2;
    let cc = (-a0 - 2.0 * k.bw * dd) / k.w2;

    // Homogeneous constants from initial conditions at τ = 0.
    let p = u - cc;
    let q = (v - dd + k.bw * p) / k.wd;

    // Advance to τ = dt.
    let rot = p * k.c + q * k.s;
    let u_next = k.e * rot + cc + dd * dt;
    let v_next = k.e * (-k.bw * rot + k.wd * (q * k.c - p * k.s)) + dd;

    let a_abs = -(2.0 * k.bw * v_next + k.w2 * u_next);
    (u_next, v_next, a_abs)
}

/// One Duhamel accumulation term at lag `lag`, and the sample evaluation.
/// Shared between backends for the same bitwise-equality reason as
/// [`nj_step`].
#[inline(always)]
fn duhamel_term(k: &SdofConsts, a: f64, lag: f64, sum_sin: &mut f64, sum_cos: &mut f64) {
    let decay = (-k.bw * lag).exp();
    let (s, c) = (k.wd * lag).sin_cos();
    *sum_sin += a * decay * s;
    *sum_cos += a * decay * c;
}

/// Converts the Duhamel convolution sums at one output sample into
/// `(u, v, absolute acceleration)`.
#[inline(always)]
fn duhamel_sample(k: &SdofConsts, dt: f64, sum_sin: f64, sum_cos: f64) -> (f64, f64, f64) {
    let u = -(dt / k.wd) * sum_sin;
    // u'(t) = d/dt of the integral: -(dt) * [cos kernel - (ζω/ωd) sin kernel]
    let v = -dt * (sum_cos - (k.bw / k.wd) * sum_sin);
    let a_abs = -(2.0 * k.bw * v + k.w * k.w * u);
    (u, v, a_abs)
}

/// Direct Duhamel integral: `u(t) = -(1/ωd) ∫ a(τ) e^{-ζω(t-τ)} sin(ωd(t-τ)) dτ`,
/// evaluated with the rectangle rule at every output sample — `O(D²)`.
/// Velocity comes from the companion cosine kernel; absolute acceleration
/// from the equation of motion.
fn duhamel_peaks(acc: &[f64], dt: f64, period: f64, damping: f64) -> SdofPeaks {
    let k = sdof_consts(dt, period, damping);
    let n = acc.len();

    let mut sd = 0.0f64;
    let mut sv = 0.0f64;
    let mut sa = 0.0f64;

    for j in 0..n {
        // u(t_j), u'(t_j) via the convolution sums.
        let mut sum_sin = 0.0;
        let mut sum_cos = 0.0;
        let tj = j as f64 * dt;
        for (i, &a) in acc.iter().take(j + 1).enumerate() {
            let lag = tj - i as f64 * dt;
            duhamel_term(&k, a, lag, &mut sum_sin, &mut sum_cos);
        }
        let (u, v, a_abs) = duhamel_sample(&k, dt, sum_sin, sum_cos);
        sd = sd.max(u.abs());
        sv = sv.max(v.abs());
        sa = sa.max(a_abs.abs());
    }

    SdofPeaks { sd, sv, sa }
}

/// Duhamel peaks for four periods at once. The lag grid is shared across
/// lanes; the per-lane transcendentals (the dominant cost) stay scalar libm
/// calls, so this form is about bitwise-matched lane layout, not speedup —
/// the Nigam–Jennings lane kernel is where the across-period win lives.
fn duhamel_peaks_x4(
    acc: &[f64],
    dt: f64,
    periods: &[f64; LANES],
    damping: f64,
) -> [SdofPeaks; LANES] {
    let k: [SdofConsts; LANES] = std::array::from_fn(|l| sdof_consts(dt, periods[l], damping));
    let n = acc.len();

    let mut sd = [0.0f64; LANES];
    let mut sv = [0.0f64; LANES];
    let mut sa = [0.0f64; LANES];

    for j in 0..n {
        let mut sum_sin = [0.0f64; LANES];
        let mut sum_cos = [0.0f64; LANES];
        let tj = j as f64 * dt;
        for (i, &a) in acc.iter().take(j + 1).enumerate() {
            let lag = tj - i as f64 * dt;
            for l in 0..LANES {
                duhamel_term(&k[l], a, lag, &mut sum_sin[l], &mut sum_cos[l]);
            }
        }
        for l in 0..LANES {
            let (u, v, a_abs) = duhamel_sample(&k[l], dt, sum_sin[l], sum_cos[l]);
            sd[l] = sd[l].max(u.abs());
            sv[l] = sv[l].max(v.abs());
            sa[l] = sa[l].max(a_abs.abs());
        }
    }

    std::array::from_fn(|l| SdofPeaks {
        sd: sd[l],
        sv: sv[l],
        sa: sa[l],
    })
}

/// Nigam–Jennings coefficients for `N` oscillators, one lane each, in
/// state-transition form.
///
/// [`nj_step`] is linear in the state `(u, v)` and in the forcing
/// `(a0, a1)`, so one step is
///
/// ```text
/// [u']   [a11 a12] [u]   [b11 b12] [a0]
/// [v'] = [a21 a22] [v] + [b21 b22] [a1],   a_abs = -(c1·v' + c2·u')
/// ```
///
/// with `A`'s columns the step from a unit state and zero forcing and `B`'s
/// the step from rest under unit forcing. Both are taken from [`nj_step`]
/// itself, which stays the single statement of the physics; the time loop
/// then needs no division. Each coefficient is a `[f64; N]` array because
/// that layout is what LLVM packs into vector registers.
struct NjLanes<const N: usize> {
    a11: [f64; N],
    a12: [f64; N],
    a21: [f64; N],
    a22: [f64; N],
    b11: [f64; N],
    b12: [f64; N],
    b21: [f64; N],
    b22: [f64; N],
    /// `2ζω`.
    c1: [f64; N],
    /// `ω²`.
    c2: [f64; N],
}

impl<const N: usize> NjLanes<N> {
    fn new(dt: f64, periods: &[f64; N], damping: f64) -> Self {
        let k = periods.map(|t| sdof_consts(dt, t, damping));
        // One column of A or B per lane: (u', v') after one step from the
        // given state and forcing.
        let column = |u: f64, v: f64, a0: f64, a1: f64| {
            let next = k.map(|k| nj_step(&k, dt, u, v, a0, a1));
            (next.map(|s| s.0), next.map(|s| s.1))
        };
        let (a11, a21) = column(1.0, 0.0, 0.0, 0.0);
        let (a12, a22) = column(0.0, 1.0, 0.0, 0.0);
        let (b11, b21) = column(0.0, 0.0, 1.0, 0.0);
        let (b12, b22) = column(0.0, 0.0, 0.0, 1.0);
        NjLanes {
            a11,
            a12,
            a21,
            a22,
            b11,
            b12,
            b21,
            b22,
            c1: k.map(|k| 2.0 * k.bw),
            c2: k.map(|k| k.w2),
        }
    }
}

/// Running peaks of `N` oscillators, one array per quantity.
struct LanePeaks<const N: usize> {
    sd: [f64; N],
    sv: [f64; N],
    sa: [f64; N],
}

impl<const N: usize> LanePeaks<N> {
    fn lanes(self) -> [SdofPeaks; N] {
        std::array::from_fn(|l| SdofPeaks {
            sd: self.sd[l],
            sv: self.sv[l],
            sa: self.sa[l],
        })
    }
}

/// Raises the running peak `m` to `x`. For the non-NaN `m` every kernel
/// keeps, this equals `m.max(x)` (NaN `x` included) and lowers to one
/// `maxpd`.
#[inline(always)]
fn raise(m: &mut f64, x: f64) {
    if x > *m {
        *m = x;
    }
}

/// The Nigam–Jennings time loop for `N` independent oscillators over one
/// sweep of the record: `N = 1` is the scalar kernel, `N = LANES` the lane
/// kernel. Per lane the expression order is the same for every `N`, which
/// is what makes the backends bitwise-equal. The forcing terms come first
/// in each sum, so the loop-carried chain through `(u, v)` is one multiply
/// and two adds.
#[inline(always)]
fn nj_lanes_peaks<const N: usize>(acc: &[f64], k: &NjLanes<N>) -> LanePeaks<N> {
    let mut u = [0.0f64; N];
    let mut v = [0.0f64; N];
    let mut sd = [0.0f64; N];
    let mut sv = [0.0f64; N];
    // At rest, absolute acceleration -(2ζω v + ω² u) is zero.
    let mut sa = [0.0f64; N];

    let mut a0 = acc[0];
    for &a1 in &acc[1..] {
        // Statement by statement across the lanes, not lane by lane: this
        // shape keeps each array in one vector register (two on SSE2).
        let u_next: [f64; N] = std::array::from_fn(|l| {
            k.b11[l] * a0 + k.b12[l] * a1 + k.a11[l] * u[l] + k.a12[l] * v[l]
        });
        let v_next: [f64; N] = std::array::from_fn(|l| {
            k.b21[l] * a0 + k.b22[l] * a1 + k.a21[l] * u[l] + k.a22[l] * v[l]
        });
        for l in 0..N {
            let a_abs = -(k.c1[l] * v_next[l] + k.c2[l] * u_next[l]);
            raise(&mut sd[l], u_next[l].abs());
            raise(&mut sv[l], v_next[l].abs());
            raise(&mut sa[l], a_abs.abs());
        }
        u = u_next;
        v = v_next;
        a0 = a1;
        // Guard against numerical blow-up on absurd inputs.
        debug_assert!(u.iter().chain(&v).all(|x| x.is_finite()));
    }

    LanePeaks { sd, sv, sa }
}

/// Exact recurrence for piecewise-linear ground acceleration
/// (Nigam–Jennings). For each step the analytic solution of
/// `u'' + 2ζω u' + ω² u = -a_g(τ)` with `a_g` linear on the step advances
/// `(u, v)` — `O(D)`, applied as the fixed state-transition matrices of
/// [`NjLanes`].
fn nigam_jennings_peaks(acc: &[f64], dt: f64, period: f64, damping: f64) -> SdofPeaks {
    let [p] = nj_lanes_peaks(acc, &NjLanes::new(dt, &[period], damping)).lanes();
    p
}

/// Nigam–Jennings peaks for four periods at once — the across-period lane
/// layout: each period's `(u, v)` recurrence is an independent serial chain,
/// so four of them advance in lockstep over one sweep of the record. The
/// scalar kernel is latency-bound on its single dependent chain; the four
/// independent chains here are what the SIMD backend's throughput comes
/// from. Per lane the arithmetic is the scalar kernel's, so the two are
/// bitwise-equal by construction.
///
/// On x86-64 the same body is also compiled with AVX2 enabled and chosen at
/// run time when the CPU has it: the default target only has SSE2, which
/// splits each `[f64; 4]` across two registers. Neither clone uses fused
/// multiply-add, so both give the same bits.
fn nigam_jennings_peaks_x4(
    acc: &[f64],
    dt: f64,
    periods: &[f64; LANES],
    damping: f64,
) -> [SdofPeaks; LANES] {
    let k = NjLanes::new(dt, periods, damping);
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { nj_lanes_peaks_avx2(acc, &k) }.lanes();
    }
    nj_lanes_peaks_portable(acc, &k).lanes()
}

/// [`nj_lanes_peaks`] at [`LANES`] for the build's own target features.
/// Kept out of line so the lane layout of the peaks stays the kernel's own,
/// not that of the caller's `SdofPeaks`.
#[inline(never)]
fn nj_lanes_peaks_portable(acc: &[f64], k: &NjLanes<LANES>) -> LanePeaks<LANES> {
    nj_lanes_peaks(acc, k)
}

/// [`nj_lanes_peaks`] at [`LANES`] compiled for AVX2: one 256-bit register
/// per coefficient.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn nj_lanes_peaks_avx2(acc: &[f64], k: &NjLanes<LANES>) -> LanePeaks<LANES> {
    nj_lanes_peaks(acc, k)
}

/// Peaks for four periods at once with the given solver.
fn sdof_peaks_x4(
    acc: &[f64],
    dt: f64,
    periods: &[f64; LANES],
    damping: f64,
    method: ResponseMethod,
) -> [SdofPeaks; LANES] {
    match method {
        ResponseMethod::Duhamel => duhamel_peaks_x4(acc, dt, periods, damping),
        ResponseMethod::NigamJennings => nigam_jennings_peaks_x4(acc, dt, periods, damping),
    }
}

/// Computes a response spectrum over `periods` at one damping ratio.
pub fn response_spectrum(
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    damping: f64,
    method: ResponseMethod,
) -> Result<ResponseSpectrum, DspError> {
    response_spectrum_with(acc, dt, periods, damping, method, DspBackend::Auto)
}

/// As [`response_spectrum`] with an explicit [`DspBackend`].
///
/// The SIMD backend integrates periods in blocks of four (each period's SDOF
/// is an independent chain — the perfect lane layout for this
/// `O(periods × points)` loop); a last block of one to three periods is
/// padded by repeating its last period. Backends are bitwise-equal.
pub fn response_spectrum_with(
    acc: &[f64],
    dt: f64,
    periods: &[f64],
    damping: f64,
    method: ResponseMethod,
    backend: DspBackend,
) -> Result<ResponseSpectrum, DspError> {
    let mut sd = Vec::with_capacity(periods.len());
    let mut sv = Vec::with_capacity(periods.len());
    let mut sa = Vec::with_capacity(periods.len());
    match backend.resolve() {
        DspBackend::Scalar => {
            for &t in periods {
                let p = sdof_peaks(acc, dt, t, damping, method)?;
                sd.push(p.sd);
                sv.push(p.sv);
                sa.push(p.sa);
            }
        }
        _ => {
            for chunk in periods.chunks(LANES) {
                for &t in chunk {
                    validate_sdof_args(acc, dt, t, damping)?;
                }
                // A short last block repeats its last period; lanes are
                // independent, so the extra lanes are simply dropped.
                let block: [f64; LANES] = std::array::from_fn(|l| chunk[l.min(chunk.len() - 1)]);
                for p in sdof_peaks_x4(acc, dt, &block, damping, method)
                    .into_iter()
                    .take(chunk.len())
                {
                    sd.push(p.sd);
                    sv.push(p.sv);
                    sa.push(p.sa);
                }
            }
        }
    }
    Ok(ResponseSpectrum {
        periods: periods.to_vec(),
        damping,
        sd,
        sv,
        sa,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    /// The stepwise Nigam–Jennings form: [`nj_step`] re-derived at every
    /// step. The reference the state-transition kernel is held to.
    fn nigam_jennings_peaks_stepwise(acc: &[f64], dt: f64, period: f64, damping: f64) -> SdofPeaks {
        let k = sdof_consts(dt, period, damping);
        let (mut u, mut v) = (0.0f64, 0.0f64);
        let (mut sd, mut sv, mut sa) = (0.0f64, 0.0f64, 0.0f64);
        for w in acc.windows(2) {
            let (u_next, v_next, a_abs) = nj_step(&k, dt, u, v, w[0], w[1]);
            u = u_next;
            v = v_next;
            sd = sd.max(u.abs());
            sv = sv.max(v.abs());
            sa = sa.max(a_abs.abs());
        }
        SdofPeaks { sd, sv, sa }
    }

    fn tone(f: f64, dt: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * PI * f * i as f64 * dt).sin())
            .collect()
    }

    #[test]
    fn period_grids() {
        let p = standard_periods();
        assert_eq!(p.len(), 91);
        assert!((p[0] - 0.04).abs() < 1e-12);
        assert!((p[90] - 15.0).abs() < 1e-9);
        for w in p.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    #[should_panic]
    fn bad_period_grid_panics() {
        log_spaced_periods(1.0, 0.5, 10);
    }

    #[test]
    fn argument_validation() {
        let acc = vec![1.0, 2.0, 3.0];
        assert!(sdof_peaks(&acc, 0.01, 0.0, 0.05, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.01, 1.0, -0.1, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.01, 1.0, 1.0, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&acc, 0.0, 1.0, 0.05, ResponseMethod::NigamJennings).is_err());
        assert!(sdof_peaks(&[1.0], 0.01, 1.0, 0.05, ResponseMethod::NigamJennings).is_err());
    }

    #[test]
    fn resonant_response_grows() {
        // An oscillator driven at its own frequency responds much more
        // strongly than one far off resonance.
        let dt = 0.005;
        let n = 4000;
        let f0 = 2.0; // 0.5 s period
        let acc = tone(f0, dt, n);
        let on = sdof_peaks(&acc, dt, 0.5, 0.05, ResponseMethod::NigamJennings).unwrap();
        // A stiff oscillator far above the driving frequency barely deflects.
        let off = sdof_peaks(&acc, dt, 0.05, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert!(on.sd > 100.0 * off.sd, "on {} off {}", on.sd, off.sd);
    }

    #[test]
    fn steady_state_amplitude_matches_theory() {
        // Driven SDOF at resonance with damping ζ reaches dynamic
        // amplification 1/(2ζ) over the static response a0/ω².
        let dt = 0.002;
        let n = 60_000; // long record so the transient dies out
        let period = 0.75;
        let zeta = 0.05;
        let f0 = 1.0 / period;
        let acc = tone(f0, dt, n);
        let p = sdof_peaks(&acc, dt, period, zeta, ResponseMethod::NigamJennings).unwrap();
        let w = 2.0 * PI / period;
        let want = 1.0 / (2.0 * zeta) / (w * w); // amplitude 1 forcing
        assert!(
            (p.sd - want).abs() / want < 0.03,
            "sd {} vs theory {}",
            p.sd,
            want
        );
    }

    #[test]
    fn short_period_sa_approaches_pga() {
        // A very stiff oscillator rides the ground: SA -> PGA.
        let dt = 0.001;
        let n = 8000;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                (2.0 * PI * 1.0 * t).sin() * (-((t - 4.0) / 2.0).powi(2)).exp() * 50.0
            })
            .collect();
        let pga = acc.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        let p = sdof_peaks(&acc, dt, 0.02, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert!((p.sa - pga).abs() / pga < 0.05, "sa {} pga {}", p.sa, pga);
    }

    #[test]
    fn duhamel_and_nigam_jennings_agree() {
        let dt = 0.01;
        let n = 600;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                (2.0 * PI * 1.3 * t).sin() * (-(t - 3.0f64).powi(2) / 4.0).exp() * 20.0
            })
            .collect();
        for &period in &[0.2, 0.5, 1.0, 2.0] {
            for &z in &[0.02, 0.05, 0.10] {
                let a = sdof_peaks(&acc, dt, period, z, ResponseMethod::Duhamel).unwrap();
                let b = sdof_peaks(&acc, dt, period, z, ResponseMethod::NigamJennings).unwrap();
                // Duhamel uses a rectangle rule: agreement is first-order in dt.
                let tol = 0.08;
                assert!(
                    (a.sd - b.sd).abs() / b.sd.max(1e-12) < tol,
                    "sd T={period} z={z}: duhamel {} nj {}",
                    a.sd,
                    b.sd
                );
                assert!(
                    (a.sa - b.sa).abs() / b.sa.max(1e-12) < tol,
                    "sa T={period} z={z}: duhamel {} nj {}",
                    a.sa,
                    b.sa
                );
            }
        }
    }

    #[test]
    fn more_damping_means_less_response() {
        let dt = 0.005;
        let acc = tone(1.0, dt, 8000);
        let mut last = f64::INFINITY;
        for &z in &[0.02, 0.05, 0.10, 0.20] {
            let p = sdof_peaks(&acc, dt, 1.0, z, ResponseMethod::NigamJennings).unwrap();
            assert!(p.sd < last, "damping {z} did not reduce response");
            last = p.sd;
        }
    }

    #[test]
    fn zero_damping_supported() {
        let dt = 0.01;
        let acc = tone(0.8, dt, 1000);
        let p = sdof_peaks(&acc, dt, 0.7, 0.0, ResponseMethod::NigamJennings).unwrap();
        assert!(p.sd.is_finite() && p.sd > 0.0);
    }

    #[test]
    fn spectrum_shapes() {
        let dt = 0.01;
        let acc = tone(2.0, dt, 3000);
        let periods = log_spaced_periods(0.1, 5.0, 30);
        let spec =
            response_spectrum(&acc, dt, &periods, 0.05, ResponseMethod::NigamJennings).unwrap();
        assert_eq!(spec.len(), 30);
        assert!(!spec.is_empty());
        // Peak of SD-based pseudo-acceleration near the driving period 0.5 s.
        let psa = spec.psa();
        let max_idx = psa
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let peak_period = spec.periods[max_idx];
        assert!(
            (peak_period - 0.5).abs() < 0.15,
            "psa peak at {peak_period} s, expected ~0.5 s"
        );
        // PSV = w * SD consistency
        let psv = spec.psv();
        #[allow(clippy::needless_range_loop)]
        for i in 0..spec.len() {
            let w = 2.0 * PI / spec.periods[i];
            assert!((psv[i] - w * spec.sd[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn pseudo_velocity_close_to_velocity_at_moderate_damping() {
        // For light damping and mid periods PSV ≈ SV (classic result).
        let dt = 0.005;
        let n = 20_000;
        let acc: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                ((2.0 * PI * 1.1 * t).sin() + 0.6 * (2.0 * PI * 2.7 * t).sin())
                    * (-((t - 25.0) / 12.0).powi(2)).exp()
                    * 30.0
            })
            .collect();
        let p = sdof_peaks(&acc, dt, 1.0, 0.05, ResponseMethod::NigamJennings).unwrap();
        let w = 2.0 * PI / 1.0;
        let psv = w * p.sd;
        assert!((psv - p.sv).abs() / p.sv < 0.25, "psv {psv} sv {}", p.sv);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_clone_matches_portable_lane_kernel() {
        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let dt = 0.005;
        let acc: Vec<f64> = (0..5000)
            .map(|i| ((i * 37 % 211) as f64 - 105.0) * 0.7)
            .collect();
        for &damping in &STANDARD_DAMPINGS {
            for block in standard_periods().chunks_exact(LANES) {
                let k = NjLanes::new(dt, block.try_into().unwrap(), damping);
                // SAFETY: AVX2 support was checked at the top of the test.
                let fast = unsafe { nj_lanes_peaks_avx2(&acc, &k) };
                let portable = nj_lanes_peaks_portable(&acc, &k);
                for (a, b) in [
                    (fast.sd, portable.sd),
                    (fast.sv, portable.sv),
                    (fast.sa, portable.sa),
                ] {
                    assert_eq!(
                        a.map(f64::to_bits),
                        b.map(f64::to_bits),
                        "{block:?} z={damping}"
                    );
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The state-transition kernel stays within 1e-8 relative of the
        /// stepwise form over the standard period range, every archived
        /// damping and the sampling intervals of real records.
        #[test]
        fn state_transition_matches_stepwise_form(
            acc in prop::collection::vec(-500.0f64..500.0, 2..1500),
            dt in prop::sample::select(vec![0.005, 0.01, 0.02]),
            period in 0.04f64..15.0,
        ) {
            for &damping in &STANDARD_DAMPINGS {
                let got = sdof_peaks(&acc, dt, period, damping, ResponseMethod::NigamJennings)
                    .unwrap();
                let want = nigam_jennings_peaks_stepwise(&acc, dt, period, damping);
                for (name, g, w) in [
                    ("sd", got.sd, want.sd),
                    ("sv", got.sv, want.sv),
                    ("sa", got.sa, want.sa),
                ] {
                    prop_assert!(
                        (g - w).abs() <= 1e-8 * w.abs(),
                        "{} T={} dt={} z={}: {} vs stepwise {}",
                        name, period, dt, damping, g, w
                    );
                }
            }
        }
    }
}
