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
//! the two implementations produce identical dominating sets, which the
//! tests assert. Per-neighbor mirrors are the program's
//! [`NodeProgram::PortState`] ([`RandomizedPort`]), so the program itself
//! allocates nothing.

use arbodom_congest::{
    det_rand, run_parallel, Globals, Inbox, NodeCtx, NodeProgram, Outgoing, RunOptions, Step,
    Telemetry,
};
use arbodom_graph::{Graph, NodeId};

use super::msg::ProtocolMsg;
use crate::extend::{sampling_probability, ExtendConfig, EXTEND_RAND_TAG};
use crate::partial::PartialConfig;
use crate::randomized::Config;
use crate::{DsResult, PackingCertificate, Result};

/// Per-node output of the randomized program.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeOutput {
    /// Membership in `S ∪ S′`.
    pub in_ds: bool,
    /// The packing value at the end of Lemma 4.1 (the certificate entry;
    /// the γ-multiplied working values are internal to Lemma 4.6).
    pub x_certificate: f64,
}

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
    lambda: f64,
    gamma: f64,
    seed: u64,
    // ---- own state ----
    weight: u64,
    tau: u64,
    x: f64,
    x_certificate: f64,
    in_s: bool,
    in_s_prime: bool,
    dominated: bool,
    announced: bool,
    // ---- schedule (filled at round 2) ----
    r1: usize,
    t_phases: usize,
    r_iters: usize,
}

/// What a Theorem 1.2 / 1.3 node mirrors about the neighbor behind one
/// port: its weight, its packing value `x` and whether it is dominated.
/// The program's [`NodeProgram::PortState`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RandomizedPort {
    weight: u64,
    x: f64,
    dominated: bool,
}

impl RandomizedProgram {
    /// Creates the Theorem 1.2 program for a node of the given degree.
    /// Construction allocates nothing: the per-neighbor mirrors
    /// ([`RandomizedPort`]) are run state the simulator sizes, so
    /// `_degree` is unused.
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
            // λ and γ are finalized at round 2 (Theorem 1.3 needs Δ).
            epsilon: 0.0,
            lambda: 0.0,
            gamma: 0.0,
            seed: 0,
            weight: 0,
            tau: 0,
            x: 0.0,
            x_certificate: 0.0,
            in_s: false,
            in_s_prime: false,
            dominated: false,
            announced: false,
            r1: 0,
            t_phases: 0,
            r_iters: 0,
        }
    }

    fn apply_dominated_events(inbox: Inbox<'_, ProtocolMsg>, ports: &mut [RandomizedPort]) {
        for (port, &msg) in inbox {
            match msg {
                ProtocolMsg::Dominated | ProtocolMsg::Joined => {
                    ports[port].dominated = true;
                }
                _ => {}
            }
        }
    }

    fn raise_undominated(&mut self, factor: f64, ports: &mut [RandomizedPort]) {
        if !self.dominated {
            self.x *= factor;
        }
        for port in ports {
            if !port.dominated {
                port.x *= factor;
            }
        }
    }

    /// `X_u` over all closed neighbors (Lemma 4.1 semantics).
    fn x_sum_all(&self, ports: &[RandomizedPort]) -> f64 {
        let mut sum = self.x;
        for port in ports {
            sum += port.x;
        }
        sum
    }

    /// `X_u` over *undominated* closed neighbors (Lemma 4.6 semantics).
    fn x_sum_undominated(&self, ports: &[RandomizedPort]) -> f64 {
        let mut sum = if self.dominated { 0.0 } else { self.x };
        for port in ports {
            if !port.dominated {
                sum += port.x;
            }
        }
        sum
    }

    fn cheapest_dominator(&self, ctx: &NodeCtx<'_>, ports: &[RandomizedPort]) -> Option<usize> {
        let mut best: (u64, NodeId) = (self.weight, ctx.id);
        let mut best_port = None;
        for (p, (&u, port)) in ctx.neighbors.iter().zip(ports).enumerate() {
            let cand = (port.weight, u);
            if cand < best {
                best = cand;
                best_port = Some(p);
            }
        }
        best_port
    }

    fn part_b(
        &mut self,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [RandomizedPort],
    ) -> Vec<Outgoing<ProtocolMsg>> {
        let mut heard_join = false;
        for (port, &msg) in inbox {
            if msg == ProtocolMsg::Joined {
                ports[port].dominated = true;
                heard_join = true;
            }
        }
        if heard_join {
            self.dominated = true;
        }
        if self.dominated && !self.announced {
            self.announced = true;
            return vec![Outgoing::broadcast(ProtocolMsg::Dominated)];
        }
        Vec::new()
    }
}

impl NodeProgram for RandomizedProgram {
    type Message = ProtocolMsg;
    type PortState = RandomizedPort;
    type Output = NodeOutput;

    fn round(
        &mut self,
        ctx: &NodeCtx<'_>,
        inbox: Inbox<'_, ProtocolMsg>,
        ports: &mut [RandomizedPort],
    ) -> Step<ProtocolMsg> {
        let rd = ctx.round;
        match rd {
            0 => {
                self.weight = ctx.weight;
                Step::continue_with(vec![Outgoing::broadcast(ProtocolMsg::Weight(self.weight))])
            }
            1 => {
                for (port, &msg) in inbox {
                    if let ProtocolMsg::Weight(w) = msg {
                        ports[port].weight = w;
                    }
                }
                self.tau = ports
                    .iter()
                    .map(|port| port.weight)
                    .chain(std::iter::once(self.weight))
                    .min()
                    .expect("nonempty");
                Step::continue_with(vec![Outgoing::broadcast(ProtocolMsg::Tau(self.tau))])
            }
            _ => {
                if rd == 2 {
                    let dp1 = (ctx.globals.max_degree + 1) as f64;
                    self.x = self.tau as f64 / dp1;
                    for (port, &msg) in inbox {
                        if let ProtocolMsg::Tau(t) = msg {
                            ports[port].x = t as f64 / dp1;
                        }
                    }
                    match self.mode {
                        Mode::Theorem12(cfg) => {
                            self.epsilon = cfg.epsilon();
                            self.lambda = cfg.lambda();
                            self.gamma = cfg.gamma();
                            self.seed = cfg.seed;
                            let pcfg = PartialConfig::new(self.epsilon, self.lambda)
                                .expect("validated at run entry");
                            self.r1 = pcfg.iterations(ctx.globals.max_degree);
                        }
                        Mode::Theorem13(cfg) => {
                            self.epsilon = 0.0;
                            self.lambda = 1.0 / (ctx.globals.max_degree + 1) as f64;
                            self.gamma = cfg.gamma(ctx.globals.max_degree);
                            self.seed = cfg.seed;
                            self.r1 = 0; // Theorem 1.3 takes S = ∅
                        }
                    }
                    let ecfg = ExtendConfig::new(self.lambda, self.gamma, self.seed)
                        .expect("validated at run entry");
                    self.t_phases = ecfg.phases();
                    self.r_iters = ecfg.iterations_per_phase(ctx.globals.max_degree);
                }
                let base = 2 + 2 * self.r1;
                let fallback_round = base + 2 * self.t_phases * self.r_iters;
                if rd < base {
                    // ---- Lemma 4.1 phase ----
                    let i = (rd - 2) / 2;
                    if (rd - 2) % 2 == 0 {
                        if i > 0 {
                            Self::apply_dominated_events(inbox, ports);
                            self.raise_undominated(1.0 + self.epsilon, ports);
                        }
                        if !self.in_s {
                            let threshold = self.weight as f64 / (1.0 + self.epsilon);
                            if self.x_sum_all(ports) >= threshold {
                                self.in_s = true;
                                self.dominated = true;
                                self.announced = true;
                                return Step::continue_with(vec![Outgoing::broadcast(
                                    ProtocolMsg::Joined,
                                )]);
                            }
                        }
                        Step::idle()
                    } else {
                        Step::continue_with(self.part_b(inbox, ports))
                    }
                } else if rd < fallback_round {
                    // ---- Lemma 4.6 phase ----
                    let j = (rd - base) / 2;
                    let phase = j / self.r_iters + 1;
                    let iter = j % self.r_iters + 1;
                    if (rd - base) % 2 == 0 {
                        Self::apply_dominated_events(inbox, ports);
                        if j == 0 {
                            // Finish the last Lemma 4.1 iteration and
                            // snapshot the certificate values.
                            if self.r1 > 0 {
                                self.raise_undominated(1.0 + self.epsilon, ports);
                            }
                            self.x_certificate = self.x;
                        } else if iter == 1 {
                            // Phase boundary: the γ-raise of the previous
                            // phase's end.
                            self.raise_undominated(self.gamma, ports);
                        }
                        if !self.in_s && !self.in_s_prime {
                            let gamma_threshold = self.weight as f64 / self.gamma;
                            if self.x_sum_undominated(ports) >= gamma_threshold {
                                let dp1 = (ctx.globals.max_degree + 1) as f64;
                                let p = sampling_probability(self.gamma, dp1, iter, self.r_iters);
                                if det_rand::bernoulli(
                                    self.seed,
                                    &[
                                        EXTEND_RAND_TAG,
                                        phase as u64,
                                        iter as u64,
                                        u64::from(ctx.id.get()),
                                    ],
                                    p,
                                ) {
                                    self.in_s_prime = true;
                                    self.dominated = true;
                                    self.announced = true;
                                    return Step::continue_with(vec![Outgoing::broadcast(
                                        ProtocolMsg::Joined,
                                    )]);
                                }
                            }
                        }
                        Step::idle()
                    } else {
                        Step::continue_with(self.part_b(inbox, ports))
                    }
                } else if rd == fallback_round {
                    Self::apply_dominated_events(inbox, ports);
                    if self.r1 == 0 && self.t_phases * self.r_iters == 0 {
                        self.x_certificate = self.x;
                    }
                    if self.dominated {
                        return Step::idle();
                    }
                    match self.cheapest_dominator(ctx, ports) {
                        None => {
                            self.in_s_prime = true;
                            Step::idle()
                        }
                        Some(port) => {
                            Step::continue_with(vec![Outgoing::to_port(port, ProtocolMsg::Elect)])
                        }
                    }
                } else {
                    if inbox.iter().any(|(_, &m)| m == ProtocolMsg::Elect) {
                        self.in_s_prime = true;
                    }
                    Step::halt()
                }
            }
        }
    }

    fn output(&self) -> NodeOutput {
        NodeOutput {
            in_ds: self.in_s || self.in_s_prime,
            x_certificate: self.x_certificate,
        }
    }
}

/// Runs Theorem 1.2 as a real message-passing computation.
///
/// The rounds run on `threads` worker threads through [`run_parallel`];
/// `0` and `1` both run them inline on the calling thread. Randomness is
/// drawn through [`det_rand`], so outputs and telemetry are bit-identical
/// at any thread count.
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
    let globals = Globals::new(g, cfg.seed).with_arboricity(cfg.alpha);
    let make = |v: NodeId, g: &Graph| RandomizedProgram::new(*cfg, g.degree(v));
    let run_out = run_parallel(g, &globals, make, opts, threads)?;
    let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
    let x: Vec<f64> = run_out.outputs.iter().map(|o| o.x_certificate).collect();
    let iterations =
        pcfg.iterations(g.max_degree()) + ecfg.phases() * ecfg.iterations_per_phase(g.max_degree());
    Ok((
        DsResult::from_flags(g, in_ds, iterations, Some(PackingCertificate::new(x))),
        run_out.telemetry,
    ))
}

/// Runs Theorem 1.3 as a real message-passing computation: Lemma 4.6
/// alone over the initial packing `τ_v/(Δ+1)`, with `γ = Δ^{1/k}` —
/// `O(k²)` rounds of single-byte traffic after setup.
///
/// The rounds run on `threads` worker threads through [`run_parallel`];
/// `0` and `1` both run them inline on the calling thread. Outputs and
/// telemetry are bit-identical at any thread count.
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
    let globals = Globals::new(g, cfg.seed);
    let make = |v: NodeId, g: &Graph| RandomizedProgram::new_general(*cfg, g.degree(v));
    let run_out = run_parallel(g, &globals, make, opts, threads)?;
    let in_ds: Vec<bool> = run_out.outputs.iter().map(|o| o.in_ds).collect();
    let x: Vec<f64> = run_out.outputs.iter().map(|o| o.x_certificate).collect();
    let iterations = ecfg.phases() * ecfg.iterations_per_phase(g.max_degree());
    Ok((
        DsResult::from_flags(g, in_ds, iterations, Some(PackingCertificate::new(x))),
        run_out.telemetry,
    ))
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
