//! Eddies: per-tuple adaptive join routing.
//!
//! Implements the reinforcement-learning eddy of Tzoumas et al. \[47\] as
//! the paper uses it: tuples of a driver table are routed through joins
//! one at a time, and the routing policy learns per-state fanout
//! estimates (expected number of matches when extending a partial tuple
//! with a given table), choosing greedily with ε-exploration.
//!
//! Two properties the paper criticizes are faithfully reproduced:
//!
//! * routing decisions are *per tuple* and never revisited — a partial
//!   tuple created along a bad join path is carried to completion, its
//!   cost is sunk ("they never discard intermediate results");
//! * there are no regret guarantees — early unlucky estimates can lock
//!   the policy into bad routes for many tuples.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_engine::PreparedQuery;
use skinner_query::{JoinGraph, Query, TableId, TableSet};
use skinner_storage::{FxHashMap, FxHashSet, RowId};

/// Exploration probability for routing choices.
const EPSILON: f64 = 0.1;
/// Seed of the routing RNG.
const SEED: u64 = 0xEDD1;

/// Outcome of an eddy run.
#[derive(Debug)]
pub struct EddyOutcome {
    /// Result count.
    pub result_count: u64,
    /// Join predicate evaluations performed (effort metric for Fig. 11).
    pub predicate_evals: u64,
}

/// Routing statistics for one (partial-tuple set, candidate table) pair.
#[derive(Debug, Default, Clone, Copy)]
struct RouteStat {
    tries: u64,
    fanout_sum: u64,
}

impl RouteStat {
    fn mean_fanout(&self) -> f64 {
        if self.tries == 0 {
            1.0 // optimistic default
        } else {
            self.fanout_sum as f64 / self.tries as f64
        }
    }
}

/// The eddy operator.
#[derive(Default)]
pub struct Eddy;

impl Eddy {
    /// A new eddy (its routing settings are this module's constants).
    pub fn new() -> Eddy {
        Eddy
    }

    /// Execute `query`.
    pub fn run(&self, query: &Query) -> EddyOutcome {
        let pq = PreparedQuery::new(query, true, 1);
        let m = query.num_tables();
        let graph = JoinGraph::from_query(query);
        let mut rng = SmallRng::seed_from_u64(SEED);
        let mut routes: FxHashMap<(u64, TableId), RouteStat> = FxHashMap::default();
        let mut results: FxHashSet<Box<[RowId]>> = FxHashSet::default();
        let mut predicate_evals = 0u64;

        if pq.any_empty() || m == 0 {
            return EddyOutcome {
                result_count: 0,
                predicate_evals,
            };
        }

        // Driver: the smallest filtered table (the stream a real eddy
        // would consume fastest).
        let driver = (0..m)
            .min_by_key(|&t| pq.cards[t])
            .expect("at least one table");

        // Per-position candidate matches are found via the prepared hash
        // indexes where possible, else by scanning.
        let mut rows = vec![0u32; m];

        for pos in 0..pq.cards[driver] {
            rows[driver] = pq.base_row(driver, pos);
            let set = TableSet::single(driver);
            self.route(
                &pq,
                &graph,
                query,
                set,
                &mut rows,
                &mut routes,
                &mut rng,
                &mut results,
                &mut predicate_evals,
            );
        }

        EddyOutcome {
            result_count: results.len() as u64,
            predicate_evals,
        }
    }

    /// Extend the partial tuple in `rows` (tables in `set` fixed) to all
    /// completions, choosing the next table per partial tuple.
    #[allow(clippy::too_many_arguments)]
    fn route(
        &self,
        pq: &PreparedQuery,
        graph: &JoinGraph,
        query: &Query,
        set: TableSet,
        rows: &mut Vec<u32>,
        routes: &mut FxHashMap<(u64, TableId), RouteStat>,
        rng: &mut SmallRng,
        results: &mut FxHashSet<Box<[RowId]>>,
        predicate_evals: &mut u64,
    ) {
        let m = query.num_tables();
        if set.len() == m {
            results.insert(rows.as_slice().into());
            return;
        }
        // Candidate next tables (join-graph rule shared with everyone).
        let eligible: Vec<TableId> = graph.eligible_next(set).iter().collect();
        let next = if eligible.len() == 1 {
            eligible[0]
        } else if rng.gen_bool(EPSILON) {
            eligible[rng.gen_range(0..eligible.len())]
        } else {
            *eligible
                .iter()
                .min_by(|&&a, &&b| {
                    let fa = routes.entry((set.0, a)).or_default().mean_fanout();
                    let fb = routes.entry((set.0, b)).or_default().mean_fanout();
                    fa.partial_cmp(&fb).unwrap_or(std::cmp::Ordering::Equal)
                })
                .expect("non-empty eligible")
        };

        let mut with_next = set;
        with_next.insert(next);
        // Applicable predicates when adding `next`.
        let applicable: Vec<_> = pq
            .join_preds
            .iter()
            .filter(|p| {
                let ts = p.tables();
                ts.contains(next) && ts.is_subset_of(with_next)
            })
            .collect();

        // Find matches: use a hash index keyed by an equi predicate when
        // one connects `next` to the fixed tables.
        let mut jump: Option<(usize, TableId, usize)> = None;
        for p in &applicable {
            if let Some((a, b)) = p.expr().as_equi_join() {
                let (tc, oc) = if a.table == next { (a, b) } else { (b, a) };
                if tc.table == next
                    && set.contains(oc.table)
                    && pq.indexes.contains_key(&(next, tc.column))
                    // Same key-convention guard as the engine's planner:
                    // Int = Float widening is true with unequal keys.
                    && pq.tables[next]
                        .column(tc.column)
                        .join_key_compatible(pq.tables[oc.table].column(oc.column))
                {
                    jump = Some((tc.column, oc.table, oc.column));
                    break;
                }
            }
        }

        let mut fanout = 0u64;
        match jump {
            Some((col, src_t, src_c)) => {
                let key = pq.tables[src_t]
                    .column(src_c)
                    .join_key(rows[src_t] as usize);
                if let Some(k) = key {
                    // Clone the posting list to keep borrows simple; lists
                    // are short for selective joins.
                    let postings: Vec<u32> = pq.indexes[&(next, col)].probe(k).to_vec();
                    for p in postings {
                        rows[next] = pq.base_row(next, p);
                        *predicate_evals += applicable.len() as u64;
                        if applicable.iter().all(|pr| pr.eval(rows, &pq.tables)) {
                            fanout += 1;
                            self.route(
                                pq,
                                graph,
                                query,
                                with_next,
                                rows,
                                routes,
                                rng,
                                results,
                                predicate_evals,
                            );
                        }
                    }
                }
            }
            None => {
                for p in 0..pq.cards[next] {
                    rows[next] = pq.base_row(next, p);
                    *predicate_evals += applicable.len() as u64;
                    if applicable.iter().all(|pr| pr.eval(rows, &pq.tables)) {
                        fanout += 1;
                        self.route(
                            pq,
                            graph,
                            query,
                            with_next,
                            rows,
                            routes,
                            rng,
                            results,
                            predicate_evals,
                        );
                    }
                }
            }
        }

        let stat = routes.entry((set.0, next)).or_default();
        stat.tries += 1;
        stat.fanout_sum += fanout;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::QueryBuilder;
    use skinner_simdb::exec::ExecOptions;
    use skinner_simdb::{ColEngine, Engine};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        let mk = |name: &str, keys: Vec<i64>| {
            Table::new(
                name,
                Schema::new([ColumnDef::new("k", ValueType::Int)]),
                vec![Column::from_ints(keys)],
            )
            .unwrap()
        };
        cat.register(mk("a", (0..30).map(|i| i % 3).collect()));
        cat.register(mk("b", (0..20).map(|i| i % 3).collect()));
        cat.register(mk("c", (0..10).map(|i| i % 3).collect()));
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        qb.table("c").unwrap();
        let j1 = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        let j2 = qb.col("b.k").unwrap().eq(qb.col("c.k").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("a.k").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn eddy_is_correct() {
        let cat = catalog();
        let q = query(&cat);
        let expected = ColEngine::new()
            .execute(&q, &ExecOptions::default())
            .result_count;
        let out = Eddy::new().run(&q);
        assert_eq!(out.result_count, expected);
        assert!(out.predicate_evals > 0);
    }

    #[test]
    fn eddy_deterministic_given_seed() {
        let cat = catalog();
        let q = query(&cat);
        let a = Eddy::new().run(&q);
        let b = Eddy::new().run(&q);
        assert_eq!(a.result_count, b.result_count);
        assert_eq!(a.predicate_evals, b.predicate_evals);
    }

    #[test]
    fn empty_input() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.k").unwrap().eq(qb.col("b.k").unwrap());
        let f = qb.col("a.k").unwrap().gt(skinner_query::Expr::lit(100));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.k").unwrap();
        let q = qb.build().unwrap();
        let out = Eddy::new().run(&q);
        assert_eq!(out.result_count, 0);
    }
}
