//! The Lowest Resource Bucket (LRB) cost model — the paper's proposed
//! model (§3.4, Fig 3, Eq. 1).
//!
//! "We build a virtual resource bucket for each individual resource …
//! for any plan p, we first transform the items in p's resource vector
//! into standardized heights … we then fill the buckets accordingly …
//! and record the largest height among all the buckets. The query that
//! leads to the smallest such maximum bucket height wins:
//! `f(r) = max_i (U_i + r_i) / R_i`. The goal is to make the filling rate
//! of all the buckets distribute evenly … we should prevent any single
//! bucket from growing faster than the others."

use super::{rank_by_score, rank_subset_by_score, CostModel};
use crate::plan::Plan;
use quasaq_qosapi::CompositeQosApi;
use quasaq_sim::Rng;

/// The LRB model.
#[derive(Debug, Clone, Copy, Default)]
pub struct LrbModel;

impl LrbModel {
    /// The LRB cost of one plan under the current usage: Eq. (1).
    pub fn cost(&self, plan: &Plan, api: &CompositeQosApi) -> f64 {
        api.max_fill_with(&plan.resources)
    }
}

impl CostModel for LrbModel {
    fn name(&self) -> &'static str {
        "lrb"
    }

    fn rank(&self, plans: &[Plan], api: &CompositeQosApi, _rng: &mut Rng) -> Vec<usize> {
        let scores: Vec<f64> = plans.iter().map(|p| self.cost(p, api)).collect();
        rank_by_score(&scores)
    }

    fn rank_subset(
        &self,
        plans: &[Plan],
        subset: &[usize],
        api: &CompositeQosApi,
        _rng: &mut Rng,
    ) -> Vec<usize> {
        let scores: Vec<f64> = subset.iter().map(|&i| self.cost(&plans[i], api)).collect();
        rank_subset_by_score(subset, &scores)
    }

    fn ranks_by_lrb_cost(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::plan_on;
    use super::*;
    use quasaq_qosapi::{ResourceKey, ResourceKind, ResourceVector};
    use quasaq_sim::ServerId;

    fn cluster() -> CompositeQosApi {
        CompositeQosApi::homogeneous_cluster(ServerId::first_n(3), 3_200_000.0, 20_000_000.0, 512e6)
    }

    #[test]
    fn prefers_the_emptier_server() {
        let mut api = cluster();
        // Load server 0's link to 60%.
        api.reserve(
            &ResourceVector::new()
                .with(ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth), 0.6 * 3_200_000.0),
        )
        .unwrap();
        let plans = vec![plan_on(0, 48_000), plan_on(1, 48_000)];
        let order = LrbModel.rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order[0], 1, "the plan on the idle server must win");
    }

    #[test]
    fn cost_matches_eq1_by_hand() {
        let mut api = cluster();
        api.reserve(
            &ResourceVector::new().with(
                ResourceKey::new(ServerId(0), ResourceKind::NetBandwidth),
                0.42 * 3_200_000.0,
            ),
        )
        .unwrap();
        let plan = plan_on(0, 48_000);
        let f = LrbModel.cost(&plan, &api);
        // Net bucket: 0.42 + 48000/3.2e6 = 0.435; CPU and others are
        // smaller, so the max is the net bucket.
        let expected = 0.42 + 48_000.0 / 3_200_000.0;
        assert!((f - expected).abs() < 1e-6, "f {f} vs {expected}");
    }

    #[test]
    fn evens_out_bucket_fill_over_a_sequence() {
        // Greedy LRB placement should balance the three servers' links.
        let mut api = cluster();
        for _ in 0..30 {
            let plans: Vec<_> = (0..3).map(|s| plan_on(s, 193_000)).collect();
            let order = LrbModel.rank(&plans, &api, &mut Rng::new(1));
            api.reserve(&plans[order[0]].resources).unwrap();
        }
        let fills: Vec<f64> = (0..3)
            .map(|s| api.fill(ResourceKey::new(ServerId(s), ResourceKind::NetBandwidth)).unwrap())
            .collect();
        let max = fills.iter().cloned().fold(0.0, f64::max);
        let min = fills.iter().cloned().fold(1.0, f64::min);
        assert!(max - min < 0.07, "unbalanced fills {fills:?}");
    }

    #[test]
    fn smaller_demand_wins_on_equal_state() {
        let api = cluster();
        let plans = vec![plan_on(0, 193_000), plan_on(0, 48_000)];
        let order = LrbModel.rank(&plans, &api, &mut Rng::new(1));
        assert_eq!(order[0], 1);
    }
}
