//! `perfbench`: one run of one workload in this process.
//!
//! ```text
//! perfbench run   <workload> --seed N               # timed, untraced
//! perfbench trace <workload> --seed N --out FILE    # traced, per layer
//! ```
//!
//! Both print their numbers by name and end with one JSON line; the exit
//! code is 1 when an output check fails (a panic exits with 101).

use std::collections::BTreeMap;
use std::process::ExitCode;

use perfbench::outputs::{check, fingerprint, Outputs};
use perfbench::run::{timed, traced, Timed};
use perfbench::trace::Tracer;
use perfbench::workloads::Workload;

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

fn outputs_json(points: &[Outputs]) -> String {
    json_list(&points.iter().map(Outputs::to_json).collect::<Vec<_>>())
}

fn print_outputs(points: &[Outputs]) {
    for (i, p) in points.iter().enumerate() {
        let fields: Vec<String> = [
            format!("events={}", p.events),
            format!("flows={}/{}", p.flows_completed, p.flows_started),
            format!("fct_p50_ms={:.6}", p.fct_p50_ms),
            format!("fct_p99_ms={:.6}", p.fct_p99_ms),
            format!("queue_stdv_pkts={:.6}", p.queue_stdv),
            format!("retransmissions={}", p.retransmissions),
            format!("drops={}", p.drops),
            format!("blackholed={}", p.blackholed),
            format!("reconvergences={}", p.reconvergences),
            format!("arena_live_at_end={}", p.arena_live_at_end),
        ]
        .into();
        println!("output point{i}: {}", fields.join(" "));
    }
}

fn outputs_of(t: &Timed) -> Vec<Outputs> {
    t.points.iter().map(|p| p.outputs.clone()).collect()
}

fn cmd_run(w: Workload, seed: u64) -> ExitCode {
    let t = timed(w, seed);
    let rss = peak_rss_mb();
    let outputs = outputs_of(&t);
    let errors = check(w, seed, &outputs);
    let mut metrics = vec![
        ("wall_s", t.wall_s, "s"),
        ("setup_s", t.setup_s, "s"),
        ("events_per_s", t.events_per_s(w.workers()), "1/s"),
        ("peak_rss_mb", rss, "MiB"),
    ];
    if w.expected_reconvergences() > 0 {
        let [fail, restore] = t.reconverge_s();
        metrics.push(("reconverge_fail_s", fail, "s"));
        metrics.push(("reconverge_restore_s", restore, "s"));
    }
    print_outputs(&outputs);
    for (name, v, unit) in &metrics {
        println!("metric {name} = {v:.9} {unit}");
    }
    for e in &errors {
        println!("check failed: {e}");
    }
    let fields: Vec<String> = metrics
        .iter()
        .map(|(n, v, _)| format!("\"{n}\": {v}"))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"ok\": {}, \"errors\": {}, \
\"fingerprint\": \"{:#018x}\", \"outputs\": {}, \"metrics\": {{{}}}}}",
        w.name(),
        errors.is_empty(),
        json_list(&errors.iter().map(|e| json_str(e)).collect::<Vec<_>>()),
        fingerprint(&outputs),
        outputs_json(&outputs),
        fields.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_trace(w: Workload, seed: u64, out: &str) -> ExitCode {
    let mut tr = Tracer::new();
    let t = traced(w, seed, &mut tr);
    let mut errors = check(w, seed, &outputs_of(&t.untraced));
    errors.extend(t.errors.iter().cloned());
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir).expect("create the span output directory");
    }
    std::fs::write(out, tr.to_json()).expect("write the span file");

    print_outputs(&t.outputs);
    // Self time by span name, summed over runs.
    let mut by_name: BTreeMap<&str, (u64, u64, usize)> = BTreeMap::new();
    for (s, self_ns) in tr.spans().iter().zip(tr.self_times_ns()) {
        let e = by_name.entry(s.name.as_str()).or_default();
        e.0 += self_ns;
        e.1 += s.events;
        e.2 += 1;
    }
    for (name, (self_ns, events, n)) in &by_name {
        println!(
            "span {name}: self {:.6} s over {n} spans, {events} events",
            *self_ns as f64 / 1e9
        );
    }
    println!(
        "traced wall_s = {:.6} s, untraced wall_s = {:.6} s (medians)",
        t.wall_s, t.untraced_wall_s
    );
    for m in &t.metrics {
        println!(
            "metric {} = {:.9} {}  [{}]",
            m.name, m.value, m.unit, m.rule
        );
    }
    for e in &errors {
        println!("check failed: {e}");
    }
    let fields: Vec<String> = t
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {}", m.name, m.value))
        .collect();
    let units: Vec<String> = t
        .metrics
        .iter()
        .map(|m| format!("\"{}\": \"{}\"", m.name, m.unit))
        .collect();
    println!(
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"ok\": {}, \"errors\": {}, \
\"fingerprint\": \"{:#018x}\", \"spans\": {}, \"metrics\": {{{}}}, \"units\": {{{}}}}}",
        w.name(),
        errors.is_empty(),
        json_list(&errors.iter().map(|e| json_str(e)).collect::<Vec<_>>()),
        fingerprint(&t.outputs),
        json_str(out),
        fields.join(", "),
        units.join(", ")
    );
    if errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: perfbench run <workload> --seed N");
    eprintln!("       perfbench trace <workload> --seed N --out FILE");
    eprintln!(
        "workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let (Some(cmd), Some(w)) = (args.first(), args.get(1).and_then(|n| Workload::parse(n))) else {
        return usage();
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    match (cmd.as_str(), flag("--out")) {
        ("run", _) => cmd_run(w, seed),
        ("trace", Some(out)) => cmd_trace(w, seed, &out),
        _ => usage(),
    }
}
