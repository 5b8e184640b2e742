//! CONGEST node program for Theorem 1.2 (randomized weighted MDS).
//!
//! The schedule chains the Lemma 4.1 rounds of
//! [`super::weighted::WeightedProgram`] with the sampling phases of
//! Lemma 4.6 (`r₁` = partial iterations, `t` = phases, `r₂` = iterations
//! per phase):
//!
//! | round | action |
//! |---|---|
//! | 0, 1 | `Weight` / `Tau` setup |
//! | 2+2i, 3+2i (i < r₁) | Lemma 4.1 iteration i (A/B as in the weighted program) |
//! | base+2j, base+2j+1 (j < t·r₂, base = 2+2r₁) | Lemma 4.6 phase ⌊j/r₂⌋+1, iteration (j mod r₂)+1: sample from Γ with the public probability schedule, announce `Joined`/`Dominated` |
//! | base+2t·r₂ | fallback elections (provably unreachable; kept for f64 safety) |
//! | base+2t·r₂+1 | elected nodes join; all halt |
//!
//! Sampling decisions are the *same coin flips* the centralized solver
//! makes — `det_rand::bernoulli(seed, [TAG, phase, iter, node], p)` — so
//! the two implementations produce identical dominating sets and packing
//! values, which the tests assert. The setup rounds, the Lemma 4.1
//! iteration (the code Theorem 1.1 runs), the digest, the raise, the
//! announce and the completion are the primal-dual core's
//! (`primal_dual`); this program adds the Lemma 4.6 sampling. Its
//! per-neighbor mirrors are the core's [`NodeProgram::PortState`], so the
//! program itself allocates nothing.

use arbodom_congest::{
    det_rand, Globals, Inbox, NodeCtx, NodeProgram, Outbox, RunOptions, Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use super::primal_dual::{run_primal_dual, Node, NodeOutput, Port};
use crate::extend::{sampling_probability, ExtendConfig, EXTEND_RAND_TAG};
use crate::partial::PartialConfig;
use crate::randomized::Config;
use crate::{DsResult, Result};

/// Which theorem's parameterization the program runs.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Theorem 1.2: Lemma 4.1 with (ε, λ) then Lemma 4.6 with (λ, γ).
    Theorem12(Config),
    /// Theorem 1.3: Lemma 4.6 alone with `S = ∅`, `λ = 1/(Δ+1)`,
    /// `γ = Δ^{1/k}` (Δ read from the public globals at round 2).
    Theorem13(crate::general::Config),
}

/// The Theorem 1.2 / Theorem 1.3 node program.
#[derive(Debug)]
pub struct RandomizedProgram {
    mode: Mode,
    epsilon: f64,
    gamma: f64,
    seed: u64,
    node: Node,
    /// The packing value at the end of Lemma 4.1 (the certificate entry;
    /// the γ-multiplied working values are internal to Lemma 4.6).
    x_certificate: f64,
    // ---- schedule (filled at round 2) ----
    r1: usize,
    t_phases: usize,
    r_iters: usize,
}

impl RandomizedProgram {
    /// Creates the Theorem 1.2 program for a node of the given degree.
    /// Construction allocates nothing: the per-neighbor mirrors are run
    /// state the simulator sizes, so `_degree` is unused.
    pub fn new(cfg: Config, _degree: usize) -> Self {
        Self::with_mode(Mode::Theorem12(cfg))
    }

    /// Creates the Theorem 1.3 program (Lemma 4.6 alone, `S = ∅`); like
    /// [`RandomizedProgram::new`], it allocates nothing.
    pub fn new_general(cfg: crate::general::Config, _degree: usize) -> Self {
        Self::with_mode(Mode::Theorem13(cfg))
    }

    fn with_mode(mode: Mode) -> Self {
        RandomizedProgram {
            mode,
            // ε and γ are finalized at round 2 (Theorem 1.3 needs Δ).
            epsilon: 0.0,
            gamma: 0.0,
            seed: 0,
            node: Node::default(),
            x_certificate: 0.0,
            r1: 0,
            t_phases: 0,
            r_iters: 0,
        }
    }

    /// Round 2: the parameters and the schedule, from the public Δ.
    fn schedule(&mut self, max_degree: usize) {
        let lambda = match self.mode {
            Mode::Theorem12(cfg) => {
                self.epsilon = cfg.epsilon();
                self.gamma = cfg.gamma();
                self.seed = cfg.seed;
                let pcfg =
                    PartialConfig::new(self.epsilon, cfg.lambda()).expect("validated at run entry");
                self.r1 = pcfg.iterations(max_degree);
                cfg.lambda()
            }
            Mode::Theorem13(cfg) => {
                self.gamma = cfg.gamma(max_degree);
                self.seed = cfg.seed;
                // Theorem 1.3 takes S = ∅: no Lemma 4.1 iterations.
                1.0 / (max_degree + 1) as f64
            }
        };
        let ecfg =
            ExtendConfig::new(lambda, self.gamma, self.seed).expect("validated at run entry");
        self.t_phases = ecfg.phases();
        self.r_iters = ecfg.iterations_per_phase(max_degree);
    }

    /// `X_v` over the *undominated* closed neighbors (Lemma 4.6).
    fn x_sum_undominated(&self, ports: &[Port]) -> f64 {
        let mut sum = if self.node.dominated {
            0.0
        } else {
            self.node.x
        };
        for port in ports {
            if !port.dominated {
                sum += port.x;
            }
        }
        sum
    }
}

impl NodeProgram for RandomizedProgram {
    type Message = ProtocolMsg;
    type PortState = Port;
    type Output = NodeOutput;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [Port],
        out: &mut Outbox<ProtocolMsg>,
    ) -> bool {
        let rd = ctx.round;
        if rd < 2 {
            self.node.setup(ctx, inbox, ports, out);
            return false;
        }
        let dp1 = (ctx.globals.max_degree + 1) as f64;
        if rd == 2 {
            self.node.init_packing(inbox, ports, dp1);
            self.schedule(ctx.globals.max_degree);
        }
        let step = rd - 2;
        let base = 2 * self.r1;
        if step <= base {
            // ---- Lemma 4.1 phase: Theorem 1.1's iteration ----
            self.node
                .lemma41(step, self.r1, 1.0 + self.epsilon, inbox, ports, out);
            if step < base {
                return false;
            }
            // Step 2r₁ finished the last Lemma 4.1 iteration: snapshot the
            // certificate values. Lemma 4.6 starts in the same round.
            self.x_certificate = self.node.x;
        }
        let k = step - base;
        let fallback = 2 * self.t_phases * self.r_iters;
        if k > fallback {
            // Elected nodes join; all halt.
            self.node.accept_election(inbox);
            return true;
        }
        if k == fallback {
            // Fallback elections (provably unreachable; kept for f64
            // safety).
            self.node.digest(inbox, ports);
            self.node.elect(ctx, ports, out);
            return false;
        }
        // ---- Lemma 4.6 phase ⌊j/r₂⌋+1, iteration (j mod r₂)+1 ----
        if k % 2 == 1 {
            self.node.announce(inbox, ports, out);
            return false;
        }
        let j = k / 2;
        let phase = j / self.r_iters + 1;
        let iter = j % self.r_iters + 1;
        if j > 0 {
            self.node.digest(inbox, ports);
            if iter == 1 {
                // Phase boundary: the γ-raise of the previous phase's end.
                self.node.raise(ports, self.gamma);
            }
        }
        if !self.node.in_s
            && !self.node.in_s_prime
            && self.x_sum_undominated(ports) >= self.node.weight as f64 / self.gamma
        {
            let p = sampling_probability(self.gamma, dp1, iter, self.r_iters);
            let key = [
                EXTEND_RAND_TAG,
                phase as u64,
                iter as u64,
                u64::from(ctx.id.get()),
            ];
            if det_rand::bernoulli(self.seed, &key, p) {
                self.node.in_s_prime = true;
                self.node.join(out);
            }
        }
        false
    }

    fn output(&self) -> NodeOutput {
        self.node.output(self.x_certificate)
    }
}

/// Runs Theorem 1.2 as a real message-passing computation.
///
/// The rounds run on `threads` worker threads through
/// [`run_parallel`](arbodom_congest::run_parallel); `0` and `1` both run
/// them inline on the calling thread. Randomness is drawn through
/// [`det_rand`], so outputs and telemetry are bit-identical at any thread
/// count.
///
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_randomized(
    g: &Graph,
    cfg: &Config,
    opts: &RunOptions,
    threads: usize,
) -> Result<(DsResult, Telemetry)> {
    let pcfg = PartialConfig::new(cfg.epsilon(), cfg.lambda())?;
    let ecfg = ExtendConfig::new(cfg.lambda(), cfg.gamma(), cfg.seed)?;
    let iterations =
        pcfg.iterations(g.max_degree()) + ecfg.phases() * ecfg.iterations_per_phase(g.max_degree());
    let globals = Globals::new(g, cfg.seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| RandomizedProgram::new(*cfg, g.degree(v));
    run_primal_dual(g, &globals, make, opts, threads, iterations)
}

/// Runs Theorem 1.3 as a real message-passing computation: Lemma 4.6
/// alone over the initial packing `τ_v/(Δ+1)`, with `γ = Δ^{1/k}` —
/// `O(k²)` rounds of single-byte traffic after setup.
///
/// The rounds run on `threads` worker threads through
/// [`run_parallel`](arbodom_congest::run_parallel); `0` and `1` both run
/// them inline on the calling thread. Outputs and telemetry are
/// bit-identical at any thread count.
///
/// # Errors
///
/// Propagates configuration validation and simulation errors.
pub fn run_general(
    g: &Graph,
    cfg: &crate::general::Config,
    opts: &RunOptions,
    threads: usize,
) -> Result<(DsResult, Telemetry)> {
    let ecfg = ExtendConfig::new(
        1.0 / (g.max_degree() + 1) as f64,
        cfg.gamma(g.max_degree()),
        cfg.seed,
    )?;
    let iterations = ecfg.phases() * ecfg.iterations_per_phase(g.max_degree());
    let globals = Globals::new(g, cfg.seed);
    let make = |v: NodeId, g: &Graph| RandomizedProgram::new_general(*cfg, g.degree(v));
    run_primal_dual(g, &globals, make, opts, threads, iterations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{randomized, verify};
    use arbodom_congest::MeterMode;
    use arbodom_graph::{generators, weights::WeightModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strict() -> RunOptions {
        RunOptions {
            meter: MeterMode::Strict,
            ..RunOptions::default()
        }
    }

    #[test]
    fn matches_centralized_exactly() {
        let mut rng = StdRng::seed_from_u64(161);
        for alpha in [1usize, 3] {
            for t in [1usize, 2] {
                let g = generators::forest_union(120, alpha, &mut rng);
                let g = WeightModel::Uniform { lo: 1, hi: 25 }.assign(&g, &mut rng);
                let cfg = Config::new(alpha, t, 97).unwrap();
                let central = randomized::solve(&g, &cfg).unwrap();
                let (dist, telemetry) = run_randomized(&g, &cfg, &strict(), 1).unwrap();
                assert_eq!(central.in_ds, dist.in_ds, "α={alpha} t={t}");
                assert!(telemetry.is_congest_compliant());
            }
        }
    }

    #[test]
    fn certificate_matches_partial_packing() {
        let mut rng = StdRng::seed_from_u64(162);
        let g = generators::forest_union(100, 2, &mut rng);
        let cfg = Config::new(2, 2, 5).unwrap();
        let central = randomized::solve(&g, &cfg).unwrap();
        let (dist, _) = run_randomized(&g, &cfg, &strict(), 1).unwrap();
        assert_eq!(
            central.certificate.as_ref().unwrap().values(),
            dist.certificate.as_ref().unwrap().values()
        );
    }

    #[test]
    fn dominating_and_compliant_on_general_graphs() {
        let mut rng = StdRng::seed_from_u64(163);
        let g = generators::gnp(150, 0.06, &mut rng);
        let cfg = Config::new(4, 2, 31).unwrap();
        let (sol, telemetry) = run_randomized(&g, &cfg, &strict(), 1).unwrap();
        assert!(verify::is_dominating_set(&g, &sol.in_ds));
        assert!(telemetry.is_congest_compliant());
        assert!(telemetry.max_message_bits <= 8 + 8 * 10);
    }

    #[test]
    fn round_count_matches_schedule() {
        let mut rng = StdRng::seed_from_u64(164);
        let g = generators::forest_union(80, 2, &mut rng);
        let cfg = Config::new(2, 1, 0).unwrap();
        let pcfg = PartialConfig::new(cfg.epsilon(), cfg.lambda()).unwrap();
        let ecfg = ExtendConfig::new(cfg.lambda(), cfg.gamma(), 0).unwrap();
        let r1 = pcfg.iterations(g.max_degree());
        let ext = ecfg.phases() * ecfg.iterations_per_phase(g.max_degree());
        let (_, telemetry) = run_randomized(&g, &cfg, &strict(), 1).unwrap();
        assert_eq!(telemetry.rounds, 2 + 2 * r1 + 2 * ext + 2);
    }

    #[test]
    fn general_mode_matches_centralized() {
        let mut rng = StdRng::seed_from_u64(166);
        for k in [1usize, 2, 3] {
            let g = generators::gnp(130, 0.08, &mut rng);
            let g = WeightModel::Uniform { lo: 1, hi: 15 }.assign(&g, &mut rng);
            let cfg = crate::general::Config::new(k, 55).unwrap();
            let central = crate::general::solve(&g, &cfg).unwrap();
            let (dist, telemetry) = run_general(&g, &cfg, &strict(), 1).unwrap();
            assert_eq!(central.in_ds, dist.in_ds, "k={k}");
            assert_eq!(
                central.certificate.as_ref().unwrap().values(),
                dist.certificate.as_ref().unwrap().values(),
                "k={k}"
            );
            assert!(telemetry.is_congest_compliant());
        }
    }

    #[test]
    fn general_mode_round_count_quadratic_in_k() {
        let mut rng = StdRng::seed_from_u64(167);
        let g = generators::gnp(200, 0.1, &mut rng);
        let rounds: Vec<usize> = [1usize, 2, 4]
            .iter()
            .map(|&k| {
                let cfg = crate::general::Config::new(k, 3).unwrap();
                run_general(&g, &cfg, &strict(), 1).unwrap().1.rounds
            })
            .collect();
        assert!(rounds[1] > rounds[0] && rounds[2] > rounds[1], "{rounds:?}");
    }

    #[test]
    fn different_seeds_differ() {
        let mut rng = StdRng::seed_from_u64(165);
        let g = generators::forest_union(200, 3, &mut rng);
        let (a, _) = run_randomized(&g, &Config::new(3, 2, 1).unwrap(), &strict(), 1).unwrap();
        let (b, _) = run_randomized(&g, &Config::new(3, 2, 2).unwrap(), &strict(), 1).unwrap();
        assert_ne!(a.in_ds, b.in_ds);
    }
}
