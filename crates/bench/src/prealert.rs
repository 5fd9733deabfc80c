//! Extension experiment `prealert`: quantify the paper's motivating
//! claim (Sec. I, "Contingency vs Pre-Control") — acting on *predicted*
//! overload reduces the time devices spend overloaded, compared to the
//! classical react-after-detection scheme, on identical workloads.

use crate::report::Table;
use dcn_sim::engine::{Cluster, ClusterConfig, HoltPredictor};
use dcn_sim::ArimaProfilePredictor;
use dcn_sim::{RackMetric, SimConfig};
use dcn_topology::fattree::{self, FatTreeConfig};
use sheriff_core::{run_policy, AlertPolicy};

/// Run both policies over `trials` seeded clusters; report overload
/// exposure and migration effort for each.
pub fn prealert_experiment(trials: usize, seed: u64) -> Table {
    let mut t = Table::new(
        "prealert",
        "Pre-alert (Sheriff) vs contingency (reactive) management",
        &[
            "trial",
            "reactive_exposure",
            "prealert_exposure",
            "arima_exposure",
            "oracle_exposure",
            "reactive_migrations",
            "prealert_migrations",
            "reduction_pct",
            "oracle_reduction_pct",
        ],
    );
    let mut sum_reactive = 0.0;
    let mut sum_prealert = 0.0;
    let mut sum_arima = 0.0;
    let mut sum_oracle = 0.0;
    let mut wins = 0usize;
    for trial in 0..trials {
        let build = || {
            // hosts sized so diurnal peaks actually flirt with overload —
            // the regime where alert timing matters
            let dcn = fattree::build(&FatTreeConfig {
                host_capacity: 30.0,
                ..FatTreeConfig::paper(4)
            });
            Cluster::build(
                dcn,
                &ClusterConfig {
                    vms_per_host: 1.5,
                    vm_capacity_range: (8.0, 16.0),
                    skew: 1.0,
                    workload_len: 300,
                    seed: seed + trial as u64,
                    ..ClusterConfig::default()
                },
                SimConfig {
                    alert_threshold: 0.55,
                    ..SimConfig::paper()
                },
            )
        };
        let mut reactive = build();
        let mut prealert = build();
        let mut arima = build();
        let mut oracle = build();
        let metric = RackMetric::build(&reactive.dcn, &reactive.sim);
        // damped trend: 4-step extrapolation on noisy traces overshoots
        // with the default gains and floods the system with false alarms
        let p = HoltPredictor {
            alpha: 0.35,
            beta: 0.05,
        };
        // pre-copy takes 3 simulation steps (Fig. 2's t1+t2 at trace scale)
        let r = run_policy(
            &mut reactive,
            &metric,
            &p,
            AlertPolicy::Reactive,
            50,
            250,
            3,
        );
        let a = run_policy(
            &mut prealert,
            &metric,
            &p,
            AlertPolicy::PreAlert,
            50,
            250,
            3,
        );
        // the full per-VM ARIMA background service (Sec. III-B.1)
        let arima_pred = ArimaProfilePredictor::default();
        let ar = run_policy(
            &mut arima,
            &metric,
            &arima_pred,
            AlertPolicy::PreAlert,
            50,
            250,
            3,
        );
        let o = run_policy(&mut oracle, &metric, &p, AlertPolicy::Oracle, 50, 250, 3);
        let pct = |x: f64| {
            if r.overload_integral > 0.0 {
                (1.0 - x / r.overload_integral) * 100.0
            } else {
                0.0
            }
        };
        let reduction = pct(a.overload_integral);
        let oracle_reduction = pct(o.overload_integral);
        sum_reactive += r.overload_integral;
        sum_prealert += a.overload_integral;
        sum_oracle += o.overload_integral;
        if a.overload_integral <= r.overload_integral {
            wins += 1;
        }
        sum_arima += ar.overload_integral;
        t.push(vec![
            trial as f64,
            r.overload_integral,
            a.overload_integral,
            ar.overload_integral,
            o.overload_integral,
            r.migrations as f64,
            a.migrations as f64,
            reduction,
            oracle_reduction,
        ]);
    }
    t.note(format!(
        "aggregate exposure: reactive {sum_reactive:.1}, pre-alert/Holt {sum_prealert:.1} ({:.1}% lower), pre-alert/ARIMA {sum_arima:.1} ({:.1}% lower), oracle {sum_oracle:.1} ({:.1}% lower); Holt pre-alert matched or won in {wins}/{trials} trials",
        (1.0 - sum_prealert / sum_reactive) * 100.0,
        (1.0 - sum_arima / sum_reactive) * 100.0,
        (1.0 - sum_oracle / sum_reactive) * 100.0
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prealert_wins_on_average() {
        let t = prealert_experiment(4, 7);
        let reactive: f64 = t.rows.iter().map(|r| r[1]).sum();
        let oracle: f64 = t.rows.iter().map(|r| r[4]).sum();
        assert!(
            oracle < reactive,
            "perfect foresight must reduce aggregate exposure: {oracle} vs {reactive}"
        );
    }

    #[test]
    fn both_policies_migrate() {
        let t = prealert_experiment(2, 11);
        for row in &t.rows {
            assert!(
                row[5] > 0.0 || row[1] == 0.0,
                "reactive idle despite overload"
            );
            assert!(
                row[6] > 0.0 || row[2] == 0.0,
                "prealert idle despite overload"
            );
        }
    }
}
