//! Crafted oblivious adversaries for the stress experiments.
//!
//! All of these fix the entire interleaving up front from structural
//! knowledge only (the program, the scheme, the constants) — never from the
//! processors' random choices — so they are legitimate oblivious A-PRAM
//! adversaries.

use apex_clock::ClockConfig;
use apex_core::AgreementConfig;
use apex_sim::sched::UniformRandom;
use apex_sim::{rng::schedule_rng, BoxedSchedule, ScheduleKind, Script};

/// Estimated work units per subphase for a scheme run under `cfg`: nominal
/// clock pace × the full per-cycle footprint (ω plus the amortized clock
/// read/update interleave, which is a ~40% constant at practical n).
pub fn estimated_subphase_work(cfg: &AgreementConfig) -> u64 {
    let footprint = cfg.omega
        + ClockConfig::for_n(cfg.n).read_cost() / cfg.clock_read_period.max(1)
        + ClockConfig::update_cost() / cfg.update_period.max(1);
    cfg.nominal_cycles_per_phase() * footprint
}

/// The *resonant sleeper*: sleeps tuned to ~1½ subphases, so a processor
/// that loads a stale value *early* in a Compute subphase (while `NewVal`
/// entries are still undecided) wakes *late in the following Copy
/// subphase*, delivering the stale write where it splits readers — the
/// regime where deterministic-scheme executions of nondeterministic
/// programs break (E10) and clobber counts peak (E2). Short awake bursts
/// maximize the number of loaded sleep transitions per run.
///
/// The multiplier is empirically resonant: the measured violation rate of
/// the deterministic baseline peaks at 1.5–1.75 subphases and collapses to
/// zero at exactly 2.0 (wakes then land in the same subphase parity, where
/// the stamp filters neutralize every stale write) — see E10.
pub fn resonant_sleepy(cfg: &AgreementConfig, sleepy_frac: f64) -> ScheduleKind {
    sleepy_with_multiple(cfg, sleepy_frac, 6)
}

/// A sleeper with `asleep = quarters/4 × subphase` (E10 sweeps the
/// resonance curve with this).
pub fn sleepy_with_multiple(
    cfg: &AgreementConfig,
    sleepy_frac: f64,
    quarters: u64,
) -> ScheduleKind {
    let subphase = estimated_subphase_work(cfg);
    ScheduleKind::Sleepy {
        sleepy_frac,
        awake: (subphase / 64).max(64),
        asleep: (subphase * quarters / 4).max(1024),
    }
}

/// The Fig.-3 interleaving: two designated processors are driven in
/// half-cycle-offset lockstep (every other processor runs in between), so
/// whenever both land on the same bin their cycles overlap exactly as in
/// the paper's oscillation figure — one is always mid-cycle when the other
/// writes. The rest of the machine proceeds round-robin.
pub fn fig3_interleave(n: usize, cfg: &AgreementConfig, rounds: u64, seed: u64) -> BoxedSchedule {
    assert!(n >= 2);
    let half = (cfg.omega / 2).max(1);
    let mut script = Script::new();
    for _ in 0..rounds {
        // P0 runs half a cycle, then P1 runs half, alternating; the other
        // processors keep the clock and the rest of the system moving.
        script = script.run(0, half).run(1, half);
        for p in 2..n {
            script = script.run(p, 1);
        }
    }
    Box::new(script.then(Box::new(UniformRandom::new(n, schedule_rng(seed)))))
}

/// A *gun volley* for the replica-K sweep (E11): a block of processors runs
/// in very short bursts and sleeps past the workload's variable-rewrite
/// distance, so a copier that loaded an agreed value before sleeping fires
/// it **after the destination variable has been legitimately rewritten** —
/// the stale write then *masks* the newer value in one replica, which is
/// exactly what the K-replication defends against (README.md, "Design notes: replicated program variables").
///
/// `rewrite_steps` is the distance in PRAM steps between consecutive writes
/// to the same variable (4 for the `random_walks` workload).
pub fn gun_volley(cfg: &AgreementConfig, gun_frac: f64, rewrite_steps: u64) -> ScheduleKind {
    let subphase = estimated_subphase_work(cfg);
    ScheduleKind::Sleepy {
        sleepy_frac: gun_frac,
        awake: (subphase / 256).max(32),
        asleep: (subphase * (2 * rewrite_steps) + subphase / 2).max(512),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resonant_sleep_scales_with_config() {
        let small = AgreementConfig::for_n(16, 5);
        let large = AgreementConfig::for_n(256, 5);
        let (
            ScheduleKind::Sleepy {
                asleep: a_small, ..
            },
            ScheduleKind::Sleepy {
                asleep: a_large, ..
            },
        ) = (resonant_sleepy(&small, 0.5), resonant_sleepy(&large, 0.5))
        else {
            panic!("resonant_sleepy must be a Sleepy kind")
        };
        assert!(a_large > a_small * 4, "sleep must track subphase work");
    }

    #[test]
    fn fig3_schedule_is_total_and_prefix_dominated_by_p0_p1() {
        let cfg = AgreementConfig::for_n(8, 1);
        let mut s = fig3_interleave(8, &cfg, 100, 1);
        let mut h = vec![0u64; 8];
        let prefix = 100 * (cfg.omega / 2 * 2 + 6);
        for _ in 0..prefix {
            h[s.next().0] += 1;
        }
        assert!(
            h[0] > h[2] && h[1] > h[2],
            "P0/P1 dominate the scripted prefix: {h:?}"
        );
        // Fallback continues forever.
        for _ in 0..1000 {
            s.next();
        }
    }

    #[test]
    fn gun_volley_has_short_awake_long_sleep() {
        let cfg = AgreementConfig::for_n(64, 5);
        let ScheduleKind::Sleepy { awake, asleep, .. } = gun_volley(&cfg, 0.25, 4) else {
            panic!()
        };
        assert!(asleep > awake * 16);
    }
}
