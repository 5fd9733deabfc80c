//! ALERT generation and classification (Sec. III-B, IV-C).
//!
//! A VM's alert value is `ALERT = max(W)` when any feature of its
//! (predicted) workload profile exceeds THRESHOLD, else 0. Shims receive
//! three kinds of alerts: from local hosts (overload), from their own ToR
//! (uplink congestion), and from outer switches (flow congestion).

use crate::workload::Profile;
use dcn_topology::{HostId, RackId, SwitchId, VmId};

/// Where an alert originated (Alg. 1's three `case` arms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertSource {
    /// A host `h_ij` reported overload — migrate some of its VMs.
    Host(HostId),
    /// The shim's own ToR predicts uplink congestion — migrate a β-portion
    /// of rack load to neighbour racks.
    LocalTor(RackId),
    /// An outer switch `s_j` signalled congestion (QCN/DSCP) — reroute
    /// flows away from it.
    OuterSwitch(SwitchId),
}

/// An alert delivered to a shim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alert {
    /// Shim that receives and must handle this alert.
    pub rack: RackId,
    /// What raised it.
    pub source: AlertSource,
    /// Severity: `max(W)` for host alerts, queue/utilisation fraction for
    /// switch alerts. Always in (threshold, 1].
    pub severity: f64,
    /// Simulation step at which the alert fired.
    pub time: usize,
}

/// The VM-level alert rule of Sec. IV-C:
/// `ALERT = max(W)` if any feature exceeds `threshold`, else 0.
pub fn alert_value(profile: &Profile, threshold: f64) -> f64 {
    if profile.exceeds(threshold) {
        profile.max()
    } else {
        0.0
    }
}

/// Per-VM alert record used when a shim ranks victims (Alg. 2 `case 1`
/// picks the VM with max ALERT).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmAlert {
    /// The VM whose predicted profile crossed the threshold.
    pub vm: VmId,
    /// Its `ALERT` value.
    pub value: f64,
}

/// Collect the per-VM alerts on one host given each VM's (predicted)
/// profile at the current step.
pub fn host_vm_alerts(vms: &[(VmId, Profile)], threshold: f64) -> Vec<VmAlert> {
    vms.iter()
        .filter_map(|(vm, p)| {
            let v = alert_value(p, threshold);
            (v > 0.0).then_some(VmAlert { vm: *vm, value: v })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(cpu: f64) -> Profile {
        Profile {
            cpu,
            mem: 0.3,
            io: 0.2,
            trf: 0.1,
        }
    }

    #[test]
    fn alert_value_matches_paper_rule() {
        assert_eq!(alert_value(&profile(0.95), 0.9), 0.95);
        assert_eq!(alert_value(&profile(0.5), 0.9), 0.0);
        // exactly at threshold: strict inequality, no alert
        assert_eq!(alert_value(&profile(0.9), 0.9), 0.0);
    }

    #[test]
    fn alert_uses_max_feature_not_triggering_feature() {
        let p = Profile {
            cpu: 0.5,
            mem: 0.95,
            io: 0.99,
            trf: 0.2,
        };
        // io is the max even though mem also exceeds
        assert_eq!(alert_value(&p, 0.9), 0.99);
    }

    #[test]
    fn host_vm_alerts_filters_quiet_vms() {
        let vms = vec![
            (VmId(0), profile(0.95)),
            (VmId(1), profile(0.2)),
            (VmId(2), profile(0.92)),
        ];
        let alerts = host_vm_alerts(&vms, 0.9);
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].vm, VmId(0));
        assert_eq!(alerts[1].vm, VmId(2));
        assert!(alerts.iter().all(|a| a.value > 0.9));
    }

    #[test]
    fn alert_sources_are_distinguishable() {
        let a = Alert {
            rack: RackId(1),
            source: AlertSource::Host(HostId(3)),
            severity: 0.95,
            time: 7,
        };
        let b = Alert {
            source: AlertSource::LocalTor(RackId(1)),
            ..a
        };
        let c = Alert {
            source: AlertSource::OuterSwitch(SwitchId(0)),
            ..a
        };
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(matches!(c.source, AlertSource::OuterSwitch(_)));
    }
}
