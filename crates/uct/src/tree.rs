//! Generic UCT tree with one-node-per-round materialization.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A tree-structured decision space: paths of actions from the root to a
/// leaf at `depth()`.
pub trait SearchSpace {
    /// Action type (for join ordering: a table id).
    type Action: Copy + Eq + std::fmt::Debug;

    /// Actions available after the prefix `path` (empty at the root).
    /// Must be non-empty for every prefix shorter than [`depth`](Self::depth).
    fn actions(&self, path: &[Self::Action]) -> Vec<Self::Action>;

    /// Length of complete paths.
    fn depth(&self) -> usize;
}

/// UCT tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct UctConfig {
    /// Exploration weight `w` in `r_c + w * sqrt(ln(v_p)/v_c)`.
    /// `sqrt(2)` gives the formal regret bound; Skinner-C uses `1e-6`.
    pub exploration: f64,
    /// RNG seed (selection below the materialized frontier is random).
    pub seed: u64,
}

impl Default for UctConfig {
    fn default() -> Self {
        UctConfig {
            exploration: std::f64::consts::SQRT_2,
            seed: 0x5EED_5EED,
        }
    }
}

#[derive(Debug, Clone)]
struct Node<A> {
    visits: u64,
    reward_sum: f64,
    /// One slot per available action; `usize::MAX` = not materialized.
    actions: Vec<A>,
    children: Vec<usize>,
}

const UNEXPANDED: usize = usize::MAX;

/// A detached copy of a tree's materialized nodes (visit counts, reward
/// sums, child structure), taken with [`UctTree::snapshot`] and restored
/// with [`UctTree::with_snapshot`].
///
/// Snapshots are how learned join-order knowledge survives a query
/// execution: the service layer stores one per query template and
/// warm-starts the next execution of that template from it, so the
/// learner resumes with its priors instead of re-exploring from scratch.
#[derive(Debug, Clone)]
pub struct TreeSnapshot<A> {
    nodes: Vec<Node<A>>,
    rounds: u64,
}

/// Plain-data view of one snapshot node, the unit of the snapshot
/// (de)serialization surface ([`TreeSnapshot::to_parts`] /
/// [`TreeSnapshot::from_parts`]). Field order is the wire order used by
/// the service's learning-cache persistence.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotNode<A> {
    /// Times this node was visited by `update`.
    pub visits: u64,
    /// Sum of observed rewards at this node.
    pub reward_sum: f64,
    /// Available actions, one per child slot.
    pub actions: Vec<A>,
    /// Child node indices, `usize::MAX` for unexpanded slots.
    pub children: Vec<usize>,
}

impl<A> TreeSnapshot<A> {
    /// Number of materialized nodes captured.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Choose/update rounds the source tree had completed.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Approximate heap footprint in bytes (cache accounting).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<A>>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.actions.len() * std::mem::size_of::<A>()
                        + n.children.len() * std::mem::size_of::<usize>()
                })
                .sum::<usize>()
    }

    /// Fraction of the root's child visits concentrated on its
    /// most-visited child, in `(0, 1]` — a cheap convergence signal.
    /// Near `1.0` the learner has settled on one first table (and, by
    /// UCB1's exploitation bias, almost certainly one full order);
    /// near `1/arity` it is still exploring. `None` when the root is
    /// absent or no child has been materialized/visited yet.
    ///
    /// The service layer gates adaptive admission on this: a cached
    /// template only forfeits fan-out once its learning has actually
    /// converged, not merely because a cache entry exists.
    pub fn root_best_share(&self) -> Option<f64> {
        let root = self.nodes.first()?;
        let mut total = 0u64;
        let mut best = 0u64;
        for &c in &root.children {
            if c == UNEXPANDED {
                continue;
            }
            let v = self.nodes.get(c)?.visits;
            total += v;
            best = best.max(v);
        }
        (total > 0).then(|| best as f64 / total as f64)
    }

    /// Decompose into plain-data nodes plus the round count, for
    /// serialization (the learning-cache persistence of
    /// `skinner-service`). `usize::MAX` children in the output mark
    /// unexpanded slots, mirroring the internal representation.
    pub fn to_parts(&self) -> (Vec<SnapshotNode<A>>, u64)
    where
        A: Clone,
    {
        let nodes = self
            .nodes
            .iter()
            .map(|n| SnapshotNode {
                visits: n.visits,
                reward_sum: n.reward_sum,
                actions: n.actions.clone(),
                children: n.children.clone(),
            })
            .collect();
        (nodes, self.rounds)
    }

    /// Rebuild a snapshot from [`to_parts`](Self::to_parts) data.
    /// Returns `None` unless the reassembled tree is one the learner can
    /// produce: structurally sound (action/child arity matches, child
    /// indices in bounds) and every `reward_sum` finite and in
    /// `[0, visits]` — the defense that lets the persistence loader
    /// reject a corrupt or hand-mangled record instead of panicking
    /// later inside `choose`, or starving arms behind a NaN bound.
    pub fn from_parts(nodes: Vec<SnapshotNode<A>>, rounds: u64) -> Option<Self> {
        let snap = TreeSnapshot {
            nodes: nodes
                .into_iter()
                .map(|n| Node {
                    visits: n.visits,
                    reward_sum: n.reward_sum,
                    actions: n.actions,
                    children: n.children,
                })
                .collect(),
            rounds,
        };
        snap.well_formed().then_some(snap)
    }

    /// Sanity: the root exists, child slots match action slots, every
    /// child index is in range, and every reward sum is one `update` can
    /// reach (it clamps each reward to `[0, 1]`). A NaN sum would make
    /// every UCB bound NaN, and `pick_child` would pick arm 0 forever.
    fn well_formed(&self) -> bool {
        !self.nodes.is_empty()
            && self.nodes.iter().all(|n| {
                n.actions.len() == n.children.len()
                    && n.children
                        .iter()
                        .all(|&c| c == UNEXPANDED || c < self.nodes.len())
                    && (0.0..=n.visits as f64).contains(&n.reward_sum)
            })
    }
}

/// One cross-query prior: an estimated mean reward for the arm reached
/// by following `prefix` from the root (`[t]` seeds a root arm,
/// `[t, u]` seeds arm `u` of the node reached via `t`, and so on).
#[derive(Debug, Clone, PartialEq)]
pub struct PriorEntry<A> {
    /// Action path from the root to the seeded arm; never empty.
    pub prefix: Vec<A>,
    /// Estimated mean reward of that arm, clamped to `[0, 1]` at
    /// injection time like every observed reward.
    pub estimate: f64,
}

/// Cross-query priors for [`UctTree::with_priors`]: a table of arm
/// estimates plus the virtual visit count each seeded arm starts with.
///
/// Plain data by design — the knowledge store serializes prior tables
/// the same way the learning cache serializes [`TreeSnapshot`]s, and
/// these public fields are that (de)serialization surface.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArmPriors<A> {
    /// Seeded arms. Entries whose prefixes name unknown actions (or
    /// whose parent arm is not itself seeded) are ignored.
    pub entries: Vec<PriorEntry<A>>,
    /// Virtual visits given to every arm of a seeded node. Small values
    /// (2–4) mean one or two real slices already outvote a wrong prior;
    /// `0` disables seeding entirely.
    pub weight: u64,
}

/// The UCT search tree (paper §4.1).
///
/// `choose` walks the materialized tree with the UCB1 rule, then extends
/// the path randomly to a leaf. `update` registers the observed reward
/// along the chosen path and materializes *at most one* new node — the
/// first node of the path that lies outside the tree — exactly as the
/// paper's UCT variant prescribes.
#[derive(Debug)]
pub struct UctTree<S: SearchSpace> {
    space: S,
    nodes: Vec<Node<S::Action>>,
    config: UctConfig,
    rng: SmallRng,
    rounds: u64,
}

impl<S: SearchSpace> UctTree<S> {
    /// Create a tree over `space`.
    pub fn new(space: S, config: UctConfig) -> UctTree<S> {
        let rng = SmallRng::seed_from_u64(config.seed);
        let mut tree = UctTree {
            space,
            nodes: Vec::new(),
            config,
            rng,
            rounds: 0,
        };
        let root_actions = tree.space.actions(&[]);
        tree.nodes.push(Node {
            visits: 0,
            reward_sum: 0.0,
            children: vec![UNEXPANDED; root_actions.len()],
            actions: root_actions,
        });
        tree
    }

    /// Create a tree over `space` warm-started from a prior execution's
    /// [`TreeSnapshot`]. The snapshot is adopted only if it is
    /// structurally sound and its root actions match this space's (the
    /// template-keyed cache guarantees that in practice; a mismatch —
    /// e.g. a snapshot taken against a differently-shaped query — falls
    /// back to a cold tree rather than corrupting selection).
    pub fn with_snapshot(space: S, config: UctConfig, snapshot: &TreeSnapshot<S::Action>) -> Self {
        let mut tree = UctTree::new(space, config);
        if snapshot.well_formed() && snapshot.nodes[0].actions == tree.nodes[0].actions {
            tree.nodes = snapshot.nodes.clone();
            tree.rounds = snapshot.rounds;
        }
        tree
    }

    /// Create a tree over `space` seeded with cross-query priors via
    /// *optimistic initialization*: every arm of a seeded node is
    /// materialized with `priors.weight` virtual visits — arms named by
    /// a prior get their estimated mean, the rest get the *best* seeded
    /// estimate at that node, so unknown arms start tied with the most
    /// promising known one instead of being starved.
    ///
    /// This shifts exploration *order* only and never prunes: every arm
    /// keeps a positive visit count (so UCB1's log term guarantees it
    /// is revisited), every permutation stays reachable, and the round
    /// count stays `0` (a merely prior-seeded tree never reads as
    /// converged). Malformed entries — empty prefixes, unknown actions,
    /// prefixes under unseeded parents — are skipped; with `weight == 0`
    /// or no valid entries the tree is exactly cold.
    pub fn with_priors(space: S, config: UctConfig, priors: &ArmPriors<S::Action>) -> Self {
        let mut tree = UctTree::new(space, config);
        if priors.weight == 0 || priors.entries.is_empty() {
            return tree;
        }
        // Group seeded arms by parent prefix; seed shallow nodes first
        // so a parent's child node exists before its own arms seed.
        type SeededArms<A> = Vec<(Vec<A>, Vec<(A, f64)>)>;
        let mut by_parent: SeededArms<S::Action> = Vec::new();
        for e in &priors.entries {
            let Some((&arm, parent)) = e.prefix.split_last() else {
                continue;
            };
            let est = e.estimate.clamp(0.0, 1.0);
            match by_parent.iter_mut().find(|(p, _)| p == parent) {
                Some((_, arms)) => arms.push((arm, est)),
                None => by_parent.push((parent.to_vec(), vec![(arm, est)])),
            }
        }
        by_parent.sort_by_key(|(p, _)| p.len());
        for (parent, arms) in by_parent {
            // Walk to the parent node; every hop must already be
            // materialized (it is, whenever the parent arm was seeded).
            let mut node = 0usize;
            let mut reachable = true;
            for a in &parent {
                let Some(slot) = tree.nodes[node].actions.iter().position(|x| x == a) else {
                    reachable = false;
                    break;
                };
                let child = tree.nodes[node].children[slot];
                if child == UNEXPANDED {
                    reachable = false;
                    break;
                }
                node = child;
            }
            if !reachable {
                continue;
            }
            let known: Vec<(usize, f64)> = arms
                .iter()
                .filter_map(|&(a, est)| {
                    tree.nodes[node]
                        .actions
                        .iter()
                        .position(|&x| x == a)
                        .map(|s| (s, est))
                })
                .collect();
            if known.is_empty() {
                continue;
            }
            // Optimistic default for arms no prior names: tie them with
            // the best known arm rather than starving them.
            let default = known.iter().map(|&(_, e)| e).fold(f64::MIN, f64::max);
            let arity = tree.nodes[node].actions.len();
            let mut total_visits = 0u64;
            let mut total_reward = 0.0f64;
            for slot in 0..arity {
                if tree.nodes[node].children[slot] != UNEXPANDED {
                    continue; // already seeded (duplicate parent entry)
                }
                let est = known
                    .iter()
                    .find(|&&(s, _)| s == slot)
                    .map_or(default, |&(_, e)| e);
                let action = tree.nodes[node].actions[slot];
                let mut path = parent.clone();
                path.push(action);
                let child_actions = tree.space.actions(&path);
                let new_id = tree.nodes.len();
                tree.nodes.push(Node {
                    visits: priors.weight,
                    reward_sum: est * priors.weight as f64,
                    children: vec![UNEXPANDED; child_actions.len()],
                    actions: child_actions,
                });
                tree.nodes[node].children[slot] = new_id;
                total_visits += priors.weight;
                total_reward += est * priors.weight as f64;
            }
            tree.nodes[node].visits += total_visits;
            tree.nodes[node].reward_sum += total_reward;
        }
        tree
    }

    /// Detach a copy of the materialized tree for cross-execution reuse.
    pub fn snapshot(&self) -> TreeSnapshot<S::Action>
    where
        S::Action: Clone,
    {
        TreeSnapshot {
            nodes: self.nodes.clone(),
            rounds: self.rounds,
        }
    }

    /// The underlying search space.
    pub fn space(&self) -> &S {
        &self.space
    }

    /// Number of materialized nodes (reported in Figures 7a / 8a).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Completed choose/update rounds.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Select a complete path (join order) for the next time slice.
    pub fn choose(&mut self) -> Vec<S::Action> {
        let depth = self.space.depth();
        let mut path = Vec::with_capacity(depth);
        let mut node = 0usize;
        let mut in_tree = true;
        while path.len() < depth {
            if in_tree {
                let pick = self.pick_child(node);
                let action = self.nodes[node].actions[pick];
                let child = self.nodes[node].children[pick];
                path.push(action);
                if child == UNEXPANDED {
                    in_tree = false;
                } else {
                    node = child;
                }
            } else {
                // Below the materialized frontier: uniform random rollout.
                let actions = self.space.actions(&path);
                debug_assert!(!actions.is_empty(), "search space dead end at {path:?}");
                let a = actions[self.rng.gen_range(0..actions.len())];
                path.push(a);
            }
        }
        path
    }

    /// UCB1 child selection among a node's actions. Unvisited children
    /// have an infinite upper bound and are tried first (random among
    /// them, per the paper's random tie-breaking).
    fn pick_child(&mut self, node: usize) -> usize {
        let unvisited: Vec<usize> = {
            let n = &self.nodes[node];
            n.children
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == UNEXPANDED || self.nodes[c].visits == 0)
                .map(|(i, _)| i)
                .collect()
        };
        if !unvisited.is_empty() {
            return unvisited[self.rng.gen_range(0..unvisited.len())];
        }
        let n = &self.nodes[node];
        let ln_parent = (n.visits.max(1) as f64).ln();
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for (i, &c) in n.children.iter().enumerate() {
            let child = &self.nodes[c];
            let mean = child.reward_sum / child.visits as f64;
            let bound = mean + self.config.exploration * (ln_parent / child.visits as f64).sqrt();
            if bound > best_score {
                best_score = bound;
                best = i;
            }
        }
        best
    }

    /// Register `reward` (clamped to `[0, 1]`) for the previously chosen
    /// `path`; materializes at most one new node.
    ///
    /// The caller is responsible for normalizing rewards *per slice*, not
    /// per unit of work: Skinner-C feeds cursor-progress deltas here,
    /// which stay comparable across orders because every slice has the
    /// same step budget.
    pub fn update(&mut self, path: &[S::Action], reward: f64) {
        let reward = reward.clamp(0.0, 1.0);
        self.rounds += 1;
        let mut node = 0usize;
        self.nodes[node].visits += 1;
        self.nodes[node].reward_sum += reward;
        let mut expanded = false;
        for (depth, &action) in path.iter().enumerate() {
            let slot = match self.nodes[node].actions.iter().position(|&a| a == action) {
                Some(s) => s,
                // Stale path (e.g. replayed from another tree): stop here.
                None => return,
            };
            let child = self.nodes[node].children[slot];
            if child == UNEXPANDED {
                if expanded {
                    // Only the first off-tree node materializes this round.
                    return;
                }
                expanded = true;
                let child_actions = self.space.actions(&path[..=depth]);
                let new_id = self.nodes.len();
                self.nodes.push(Node {
                    visits: 0,
                    reward_sum: 0.0,
                    children: vec![UNEXPANDED; child_actions.len()],
                    actions: child_actions,
                });
                self.nodes[node].children[slot] = new_id;
                node = new_id;
            } else {
                node = child;
            }
            self.nodes[node].visits += 1;
            self.nodes[node].reward_sum += reward;
        }
    }

    /// Mean reward observed at the root (the tree-wide average).
    pub fn mean_reward(&self) -> f64 {
        let root = &self.nodes[0];
        if root.visits == 0 {
            0.0
        } else {
            root.reward_sum / root.visits as f64
        }
    }

    /// The current greedy path: at every materialized node follow the
    /// most-visited child (the standard UCT recommendation policy). The
    /// path is completed randomly below the frontier. This is the "final
    /// join order" replayed in other engines for Tables 3/4.
    pub fn best_path(&mut self) -> Vec<S::Action> {
        let depth = self.space.depth();
        let mut path = Vec::with_capacity(depth);
        let mut node = Some(0usize);
        while path.len() < depth {
            match node {
                Some(id) => {
                    let n = &self.nodes[id];
                    let mut best: Option<(usize, u64)> = None;
                    for (i, &c) in n.children.iter().enumerate() {
                        let v = if c == UNEXPANDED {
                            0
                        } else {
                            self.nodes[c].visits
                        };
                        if best.is_none_or(|(_, bv)| v > bv) {
                            best = Some((i, v));
                        }
                    }
                    let (slot, _) = best.expect("non-leaf node with no children");
                    path.push(n.actions[slot]);
                    let c = n.children[slot];
                    node = if c == UNEXPANDED { None } else { Some(c) };
                }
                None => {
                    let actions = self.space.actions(&path);
                    let a = actions[self.rng.gen_range(0..actions.len())];
                    path.push(a);
                }
            }
        }
        path
    }

    /// Approximate heap footprint in bytes (Figure 8a).
    pub fn approx_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node<S::Action>>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    n.actions.len() * std::mem::size_of::<S::Action>()
                        + n.children.len() * std::mem::size_of::<usize>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat bandit: depth 1, `n` arms.
    struct Bandit {
        arms: usize,
    }

    impl SearchSpace for Bandit {
        type Action = usize;
        fn actions(&self, path: &[usize]) -> Vec<usize> {
            if path.is_empty() {
                (0..self.arms).collect()
            } else {
                vec![]
            }
        }
        fn depth(&self) -> usize {
            1
        }
    }

    /// Full k-ary tree of given depth; all permutations allowed.
    struct Perms {
        n: usize,
    }

    impl SearchSpace for Perms {
        type Action = usize;
        fn actions(&self, path: &[usize]) -> Vec<usize> {
            (0..self.n).filter(|t| !path.contains(t)).collect()
        }
        fn depth(&self) -> usize {
            self.n
        }
    }

    #[test]
    fn bandit_converges_to_best_arm() {
        let mut tree = UctTree::new(
            Bandit { arms: 5 },
            UctConfig {
                exploration: std::f64::consts::SQRT_2,
                seed: 7,
            },
        );
        // Arm 3 pays 0.9, others 0.1 (deterministic for test stability).
        let mut wins = 0;
        for _ in 0..2000 {
            let path = tree.choose();
            let r = if path[0] == 3 { 0.9 } else { 0.1 };
            if path[0] == 3 {
                wins += 1;
            }
            tree.update(&path, r);
        }
        // The best arm must dominate the later choices.
        assert!(wins > 1200, "best arm chosen only {wins}/2000 times");
        assert_eq!(tree.best_path(), vec![3]);
    }

    #[test]
    fn snapshot_parts_round_trip() {
        let mut tree = UctTree::new(Perms { n: 4 }, UctConfig::default());
        for _ in 0..300 {
            let p = tree.choose();
            let r = if p[0] == 2 { 0.8 } else { 0.2 };
            tree.update(&p, r);
        }
        let snap = tree.snapshot();
        let (nodes, rounds) = snap.to_parts();
        assert_eq!(rounds, snap.rounds());
        assert_eq!(nodes.len(), snap.num_nodes());
        let rebuilt = TreeSnapshot::from_parts(nodes.clone(), rounds)
            .expect("round-tripped snapshot must be well-formed");
        // A tree warm-started from the rebuilt snapshot behaves like one
        // warm-started from the original: same best path, same node set.
        let mut a = UctTree::with_snapshot(Perms { n: 4 }, UctConfig::default(), &snap);
        let mut b = UctTree::with_snapshot(Perms { n: 4 }, UctConfig::default(), &rebuilt);
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.rounds(), b.rounds());
        assert_eq!(a.best_path(), b.best_path());

        // Corruption defenses: out-of-range child, arity mismatch, empty.
        let mut bad = nodes.clone();
        bad[0].children[0] = bad.len() + 7;
        assert!(TreeSnapshot::from_parts(bad, rounds).is_none());
        let mut bad = nodes;
        bad[0].children.pop();
        assert!(TreeSnapshot::from_parts(bad, rounds).is_none());
        assert!(TreeSnapshot::<usize>::from_parts(vec![], 0).is_none());
    }

    #[test]
    fn from_parts_rejects_reward_sums_update_cannot_produce() {
        let tree = |reward_sum: f64| {
            TreeSnapshot::from_parts(
                vec![
                    SnapshotNode {
                        visits: 4,
                        reward_sum: 2.0,
                        actions: vec![0usize, 1],
                        children: vec![1, UNEXPANDED],
                    },
                    SnapshotNode {
                        visits: 3,
                        reward_sum,
                        actions: vec![],
                        children: vec![],
                    },
                ],
                4,
            )
        };
        assert!(tree(0.0).is_some());
        assert!(tree(3.0).is_some());
        for bad in [f64::NAN, f64::INFINITY, -0.5, 3.5] {
            assert!(tree(bad).is_none(), "reward_sum {bad} accepted");
        }
    }

    #[test]
    fn root_best_share_tracks_convergence() {
        // Hand-built: root with 3 arms, two materialized children with
        // a 90/10 visit split — share is 0.9 regardless of the
        // unexpanded third slot.
        let nodes = vec![
            SnapshotNode {
                visits: 100,
                reward_sum: 50.0,
                actions: vec![0usize, 1, 2],
                children: vec![1, 2, UNEXPANDED],
            },
            SnapshotNode {
                visits: 90,
                reward_sum: 60.0,
                actions: vec![],
                children: vec![],
            },
            SnapshotNode {
                visits: 10,
                reward_sum: 2.0,
                actions: vec![],
                children: vec![],
            },
        ];
        let snap = TreeSnapshot::from_parts(nodes, 100).unwrap();
        assert_eq!(snap.root_best_share(), Some(0.9));

        // A fresh tree (root only, nothing visited) has no signal.
        let cold = UctTree::new(Bandit { arms: 4 }, UctConfig::default()).snapshot();
        assert_eq!(cold.root_best_share(), None);

        // A genuinely converged bandit concentrates its root share; a
        // uniform-reward one stays spread across the arms.
        let mut lopsided = UctTree::new(Bandit { arms: 4 }, UctConfig::default());
        let mut uniform = UctTree::new(Bandit { arms: 4 }, UctConfig::default());
        for _ in 0..2000 {
            let p = lopsided.choose();
            let r = if p[0] == 1 { 0.9 } else { 0.1 };
            lopsided.update(&p, r);
            let p = uniform.choose();
            uniform.update(&p, 0.5);
        }
        let hot = lopsided.snapshot().root_best_share().unwrap();
        let flat = uniform.snapshot().root_best_share().unwrap();
        assert!(hot > 0.75, "converged share {hot} should dominate");
        assert!(flat < 0.75, "exploring share {flat} should stay spread");
    }

    #[test]
    fn one_node_per_round() {
        let mut tree = UctTree::new(Perms { n: 5 }, UctConfig::default());
        let mut prev = tree.num_nodes();
        for _ in 0..200 {
            let p = tree.choose();
            tree.update(&p, 0.5);
            let now = tree.num_nodes();
            assert!(now <= prev + 1, "materialized more than one node");
            prev = now;
        }
    }

    #[test]
    fn paths_are_valid_permutations() {
        let mut tree = UctTree::new(Perms { n: 6 }, UctConfig::default());
        for _ in 0..100 {
            let p = tree.choose();
            let mut sorted = p.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
            tree.update(&p, 0.3);
        }
    }

    #[test]
    fn deep_convergence_prefers_good_prefix() {
        // Reward 1 iff the order starts with table 2.
        let mut tree = UctTree::new(Perms { n: 4 }, UctConfig::default());
        for _ in 0..3000 {
            let p = tree.choose();
            let r = if p[0] == 2 { 1.0 } else { 0.0 };
            tree.update(&p, r);
        }
        assert_eq!(tree.best_path()[0], 2);
        assert!(tree.mean_reward() > 0.5);
    }

    #[test]
    fn reward_clamped() {
        let mut tree = UctTree::new(Bandit { arms: 2 }, UctConfig::default());
        let p = tree.choose();
        tree.update(&p, 17.0);
        assert!(tree.mean_reward() <= 1.0);
        let p = tree.choose();
        tree.update(&p, -5.0);
        assert!(tree.mean_reward() >= 0.0);
    }

    #[test]
    fn low_exploration_exploits_hard() {
        // Skinner-C setting: w = 1e-6. After warmup, virtually all
        // selections should hit the best arm.
        let mut tree = UctTree::new(
            Bandit { arms: 4 },
            UctConfig {
                exploration: 1e-6,
                seed: 3,
            },
        );
        for _ in 0..50 {
            let p = tree.choose();
            let r = if p[0] == 1 { 0.8 } else { 0.2 };
            tree.update(&p, r);
        }
        let mut hits = 0;
        for _ in 0..100 {
            let p = tree.choose();
            if p[0] == 1 {
                hits += 1;
            }
            let r = if p[0] == 1 { 0.8 } else { 0.2 };
            tree.update(&p, r);
        }
        assert!(hits >= 95, "exploitation too weak: {hits}/100");
    }

    #[test]
    fn snapshot_roundtrip_preserves_learning() {
        let mut tree = UctTree::new(Bandit { arms: 5 }, UctConfig::default());
        for _ in 0..500 {
            let p = tree.choose();
            let r = if p[0] == 3 { 0.9 } else { 0.1 };
            tree.update(&p, r);
        }
        let snap = tree.snapshot();
        assert_eq!(snap.num_nodes(), tree.num_nodes());
        assert_eq!(snap.rounds(), tree.rounds());
        assert!(snap.approx_bytes() > 0);

        // A warm-started tree recommends the learned best arm immediately
        // and keeps exploiting it.
        let mut warm = UctTree::with_snapshot(Bandit { arms: 5 }, UctConfig::default(), &snap);
        assert_eq!(warm.best_path(), vec![3]);
        assert_eq!(warm.rounds(), snap.rounds());
        let mut hits = 0;
        for _ in 0..50 {
            let p = warm.choose();
            if p[0] == 3 {
                hits += 1;
            }
            warm.update(&p, if p[0] == 3 { 0.9 } else { 0.1 });
        }
        assert!(hits >= 45, "warm start not exploiting: {hits}/50");
    }

    #[test]
    fn mismatched_snapshot_falls_back_to_cold() {
        let mut tree = UctTree::new(Bandit { arms: 3 }, UctConfig::default());
        for _ in 0..50 {
            let p = tree.choose();
            tree.update(&p, 0.5);
        }
        let snap = tree.snapshot();
        // Different root arity: the snapshot must be rejected.
        let warm = UctTree::with_snapshot(Bandit { arms: 7 }, UctConfig::default(), &snap);
        assert_eq!(warm.num_nodes(), 1);
        assert_eq!(warm.rounds(), 0);
    }

    fn priors(entries: Vec<(Vec<usize>, f64)>, weight: u64) -> ArmPriors<usize> {
        ArmPriors {
            entries: entries
                .into_iter()
                .map(|(prefix, estimate)| PriorEntry { prefix, estimate })
                .collect(),
            weight,
        }
    }

    #[test]
    fn priors_bias_exploration_toward_seeded_arm() {
        // Arm 3 is seeded high and the others low; the first selections
        // must go to arm 3 instead of the uniform unvisited sweep a cold
        // tree would start with.
        let p = priors(
            vec![
                (vec![0], 0.1),
                (vec![1], 0.1),
                (vec![2], 0.1),
                (vec![3], 0.9),
                (vec![4], 0.1),
            ],
            2,
        );
        let mut tree = UctTree::with_priors(
            Bandit { arms: 5 },
            UctConfig {
                exploration: 1e-6,
                seed: 11,
            },
            &p,
        );
        assert_eq!(tree.rounds(), 0, "priors must not count as rounds");
        assert_eq!(tree.num_nodes(), 6, "all five arms materialized");
        let mut hits = 0;
        for _ in 0..20 {
            let path = tree.choose();
            if path[0] == 3 {
                hits += 1;
            }
            // Reward agrees with the prior.
            tree.update(&path, if path[0] == 3 { 0.9 } else { 0.1 });
        }
        assert!(hits >= 18, "priors not steering: {hits}/20");
    }

    #[test]
    fn wrong_priors_never_prune_arms() {
        // The prior lies: it praises arm 0, but arm 4 actually pays.
        // Seeding must only delay convergence, never prevent it.
        let p = priors(vec![(vec![0], 0.95), (vec![4], 0.05)], 3);
        let mut tree = UctTree::with_priors(Bandit { arms: 5 }, UctConfig::default(), &p);
        let mut arm_visits = [0u64; 5];
        for _ in 0..3000 {
            let path = tree.choose();
            arm_visits[path[0]] += 1;
            tree.update(&path, if path[0] == 4 { 0.9 } else { 0.1 });
        }
        assert_eq!(tree.best_path(), vec![4], "must recover from a bad prior");
        for (arm, &v) in arm_visits.iter().enumerate() {
            assert!(v > 0, "arm {arm} was never tried");
        }
    }

    #[test]
    fn unknown_arms_seed_at_best_known_estimate() {
        // Only arm 1 is named; the other arms must still materialize,
        // tied with arm 1's estimate (optimistic, never starved).
        let p = priors(vec![(vec![1], 0.6)], 2);
        let tree = UctTree::with_priors(Bandit { arms: 4 }, UctConfig::default(), &p);
        assert_eq!(tree.num_nodes(), 5);
        let snap = tree.snapshot();
        let (nodes, rounds) = snap.to_parts();
        assert_eq!(rounds, 0);
        for n in &nodes[1..] {
            assert_eq!(n.visits, 2);
            assert!((n.reward_sum - 1.2).abs() < 1e-12);
        }
    }

    #[test]
    fn deep_priors_seed_second_level() {
        // [2] seeds the root; [2, 0] seeds the node under arm 2. The
        // second level only materializes beneath a seeded parent.
        let p = priors(
            vec![(vec![2], 0.8), (vec![2, 0], 0.7), (vec![3, 1], 0.9)],
            2,
        );
        let mut tree = UctTree::with_priors(Perms { n: 4 }, UctConfig::default(), &p);
        // 1 root + its 4 arms + 3 remaining arms under node [2] + 3
        // under node [3] (root seeding materialized arm 3's node, so
        // the [3, 1] entry finds its parent) = 11 nodes.
        assert_eq!(tree.num_nodes(), 11);
        for _ in 0..50 {
            let path = tree.choose();
            let mut sorted = path.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "paths stay permutations");
            tree.update(&path, 0.5);
        }
    }

    #[test]
    fn malformed_or_empty_priors_yield_cold_tree() {
        // Unknown action, empty prefix, zero weight: all fall back cold.
        let bogus = priors(vec![(vec![99], 0.9), (vec![], 0.5)], 2);
        let tree = UctTree::with_priors(Bandit { arms: 3 }, UctConfig::default(), &bogus);
        assert_eq!(tree.num_nodes(), 1);
        let zero = priors(vec![(vec![1], 0.9)], 0);
        let tree = UctTree::with_priors(Bandit { arms: 3 }, UctConfig::default(), &zero);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.rounds(), 0);
    }

    #[test]
    fn cumulative_regret_sublinear() {
        // Empirical check of the O(log n) regret guarantee: regret per
        // round must shrink markedly between early and late phases.
        let mut tree = UctTree::new(Bandit { arms: 8 }, UctConfig::default());
        let payoff = |arm: usize| 0.1 + 0.8 * ((arm == 5) as u8 as f64);
        let mut regret_first = 0.0;
        let mut regret_last = 0.0;
        for round in 0..4000 {
            let p = tree.choose();
            let r = payoff(p[0]);
            tree.update(&p, r);
            let regret = 0.9 - r;
            if round < 500 {
                regret_first += regret;
            } else if round >= 3500 {
                regret_last += regret;
            }
        }
        assert!(
            regret_last < regret_first / 4.0,
            "regret not shrinking: first={regret_first:.1} last={regret_last:.1}"
        );
    }
}
