//! `--trace` support: run one seeded full-system scenario with a
//! [`JsonLinesSink`] attached, so an experiment batch can ship a
//! structured event trace next to its figure tables.

use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::Path;

use dcn_sim::engine::HoltPredictor;
use dcn_sim::flows::Flow;
use dcn_topology::fattree::{self, FatTreeConfig};
use dcn_topology::{RackId, VmId};
use sheriff_core::SystemBuilder;
use sheriff_obs::JsonLinesSink;

/// Step a seeded Fat-Tree system for `steps` rounds, streaming every
/// event to `<out>/trace.jsonl`. Returns the number of events written.
///
/// The scenario mirrors the `full_system` example: workload-driven host
/// alerts plus hot cross-rack elephants, so the trace exercises all
/// three alert sources and the REQUEST/ACK negotiation.
pub fn trace_run(out: &Path, seed: u64, steps: usize) -> io::Result<u64> {
    fs::create_dir_all(out)?;
    let path = out.join("trace.jsonl");
    let sink = JsonLinesSink::new(BufWriter::new(File::create(&path)?));

    let dcn = fattree::build(&FatTreeConfig::paper(4));
    let configured = |dcn| {
        SystemBuilder::new(dcn)
            .vms_per_host(2.0)
            .skew(2.0)
            .workload_len(200)
            .seed(seed)
    };
    let probe = configured(dcn.clone())
        .build()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let vms_in = |rack: RackId| -> Vec<VmId> {
        probe
            .cluster
            .placement
            .vm_ids()
            .filter(|&vm| probe.cluster.placement.rack_of(vm) == rack)
            .collect()
    };
    let fat: Vec<RackId> = (0..probe.cluster.dcn.rack_count())
        .map(RackId::from_index)
        .filter(|&r| vms_in(r).len() >= 2)
        .collect();
    let mut flows = Vec::new();
    if fat.len() >= 2 {
        let (srcs, dsts) = (vms_in(fat[0]), vms_in(fat[1]));
        for i in 0..4 {
            flows.push(Flow {
                src: srcs[i % srcs.len()],
                dst: dsts[i % dsts.len()],
                rate: 0.5,
                delay_sensitive: false,
            });
        }
    }
    let mut system = configured(dcn)
        .flows(flows)
        .build_with_sink(sink)
        .map_err(|e| io::Error::other(e.to_string()))?;

    let predictor = HoltPredictor::default();
    for _ in 0..steps {
        system.step(&predictor);
    }
    let sink = system.into_sink();
    let events = sink.events_written();
    sink.finish()?;
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sheriff_scenario::Value;

    #[test]
    fn trace_run_writes_a_parsable_event_stream() {
        let dir =
            std::env::temp_dir().join(format!("sheriff-bench-trace-test-{}", std::process::id()));
        let events = trace_run(&dir, 71, 10).expect("trace run");
        let text = fs::read_to_string(dir.join("trace.jsonl")).expect("read back");
        let _ = fs::remove_dir_all(&dir);
        let kinds: Vec<String> = text
            .lines()
            .map(|l| {
                assert!(l.starts_with("{\"ev\":"), "{l}");
                let line = Value::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}"));
                let ev = line.get("ev").and_then(Value::as_str);
                ev.unwrap_or_else(|| panic!("no string \"ev\": {l}"))
                    .to_string()
            })
            .collect();
        // every line beyond the events is a timing or the final summary
        let extra = kinds
            .iter()
            .filter(|k| *k == "timing" || *k == "summary")
            .count();
        assert_eq!(kinds.len() as u64, events + extra as u64);
        assert_eq!(kinds.iter().filter(|k| *k == "round_start").count(), 10);
    }
}
