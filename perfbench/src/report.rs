//! Turns client timings, spans and counters into the named metrics.

use std::collections::{BTreeMap, HashMap};

use crate::clients::{Class, Outcome, Sample, Timings};
use crate::trace::{self, Counter, Span};

/// A named, unit-carrying value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// One latency distribution with the figures the report prints.
#[derive(Debug, Clone, Copy, Default)]
pub struct Spread {
    /// Median (of the slices' medians).
    pub p50: f64,
    /// 90th percentile (median of the slices' 90th percentiles).
    pub p90: f64,
    /// 99th percentile over every sample (reported, not gated).
    pub p99: f64,
    /// Sample count.
    pub n: usize,
}

/// How a class's ops are cut into the slices whose median is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slicing {
    /// This many equal slices of time, from the first op's start to the
    /// last op's end, over all of the class's clients (a window).
    Time(usize),
    /// One slice per probe round.
    Rounds,
}

/// The ops of one slice and the wall time they ran in.
#[derive(Debug, Default)]
struct Slice {
    op_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    queries: u64,
    wall_s: f64,
}

impl Slice {
    fn push(&mut self, s: &Sample) {
        self.op_ms.push(f64::from(s.ms));
        if !s.ack_ms.is_nan() {
            self.ack_ms.push(f64::from(s.ack_ms));
        }
        self.queries += u64::from(s.queries);
    }
}

fn slices(outcomes: &[&Outcome], half: fn(&Outcome) -> &Timings, slicing: Slicing) -> Vec<Slice> {
    match slicing {
        Slicing::Rounds => {
            // Clients of one round run side by side, so the round's wall is
            // its longest client's.
            let mut rounds: BTreeMap<usize, Slice> = BTreeMap::new();
            for o in outcomes {
                let t = half(o);
                let slice = rounds.entry(o.spec.round).or_default();
                t.ops.iter().for_each(|s| slice.push(s));
                slice.wall_s = slice.wall_s.max(t.wall_s);
            }
            rounds.into_values().collect()
        }
        Slicing::Time(n) => {
            let ops: Vec<&Sample> = outcomes.iter().flat_map(|o| &half(o).ops).collect();
            let Some(first) = ops.iter().map(|s| s.at_s).min_by(f32::total_cmp) else {
                return Vec::new();
            };
            let since = |s: &Sample| f64::from(s.at_s) - f64::from(first);
            let end = |s: &&Sample| since(s) + f64::from(s.ms) / 1e3;
            let span = ops.iter().map(end).fold(0.0, f64::max);
            let n = if span > 0.0 { n.max(1) } else { 1 };
            let width = span / n as f64;
            let mut out: Vec<Slice> = (0..n)
                .map(|_| Slice {
                    wall_s: width,
                    ..Slice::default()
                })
                .collect();
            for s in ops {
                let k = (since(s) / width.max(f64::MIN_POSITIVE)) as usize;
                out[k.min(n - 1)].push(s);
            }
            out
        }
    }
}

/// Median over `slices` of `f`, skipping slices it does not apply to.
fn median_of(slices: &[Slice], f: impl Fn(&Slice) -> Option<f64>) -> f64 {
    median(&slices.iter().filter_map(f).collect::<Vec<_>>())
}

/// End-to-end figures of one operation class.
#[derive(Debug, Clone, Copy)]
pub struct ClassFigures {
    /// Op latency, milliseconds.
    pub op_ms: Spread,
    /// Delta acknowledgement latency, milliseconds.
    pub ack_ms: Spread,
    /// Ops per second summed over the class's clients.
    pub ops_per_s: f64,
    /// Queries per second summed over the class's clients.
    pub queries_per_s: f64,
    /// Share of the clients' time spent running the mirror registry.
    pub mirror_share: f64,
    /// Slices the medians were taken over (those with at least one op).
    pub slices: usize,
}

/// Figures of `class` over the clients that ran it, from the chosen half
/// of their windows. Each figure is computed per slice and the median over
/// the slices is reported, so a few seconds of host noise move a minority
/// of slices and not the figure. Rates add up over the clients of a slice.
pub fn class_figures(
    outcomes: &[&Outcome],
    half: fn(&Outcome) -> &Timings,
    slicing: Slicing,
) -> ClassFigures {
    let all = slices(outcomes, half, slicing);
    let live: Vec<Slice> = all
        .into_iter()
        .filter(|s| !s.op_ms.is_empty() && s.wall_s > 0.0)
        .collect();
    let q = |q: f64| move |s: &Slice| Some(quantile(&s.op_ms, q));
    let pooled: Vec<f64> = live.iter().flat_map(|s| s.op_ms.iter().copied()).collect();
    let pooled_ack: Vec<f64> = live.iter().flat_map(|s| s.ack_ms.iter().copied()).collect();
    let (total, mirrored) = outcomes.iter().fold((0.0, 0.0), |(t, m), o| {
        (t + half(o).wall_s, m + half(o).mirrored_s)
    });
    ClassFigures {
        op_ms: Spread {
            p50: median_of(&live, q(0.5)),
            p90: median_of(&live, q(0.9)),
            p99: quantile(&pooled, 0.99),
            n: pooled.len(),
        },
        ack_ms: Spread {
            p50: median_of(&live, |s| {
                (!s.ack_ms.is_empty()).then(|| quantile(&s.ack_ms, 0.5))
            }),
            p90: median_of(&live, |s| {
                (!s.ack_ms.is_empty()).then(|| quantile(&s.ack_ms, 0.9))
            }),
            p99: quantile(&pooled_ack, 0.99),
            n: pooled_ack.len(),
        },
        ops_per_s: median_of(&live, |s| Some(s.op_ms.len() as f64 / s.wall_s)),
        queries_per_s: median_of(&live, |s| Some(s.queries as f64 / s.wall_s)),
        mirror_share: if total > 0.0 { mirrored / total } else { 0.0 },
        slices: live.len(),
    }
}

/// The end-to-end metrics of one class, under the names `BENCHMARK.json`
/// declares.
pub fn end_to_end(class: Class, f: &ClassFigures) -> Vec<Metric> {
    let m = |name: &str, unit, value| Metric {
        name: name.to_string(),
        unit,
        value,
    };
    match class {
        Class::Batch => vec![
            m("queries_per_s", "1/s", f.queries_per_s),
            m("batch_p50_us", "us", f.op_ms.p50 * 1e3),
            m("batch_p90_us", "us", f.op_ms.p90 * 1e3),
        ],
        Class::Mutation => vec![
            m("mutation_p50_ms", "ms", f.op_ms.p50),
            m("mutation_p90_ms", "ms", f.op_ms.p90),
            m("mutations_per_s", "1/s", f.ops_per_s),
        ],
        Class::Delta => vec![
            m("delta_ack_p50_ms", "ms", f.ack_ms.p50),
            m("delta_visible_p50_ms", "ms", f.op_ms.p50),
            m("delta_visible_p90_ms", "ms", f.op_ms.p90),
        ],
        Class::Onboard => vec![
            m("onboard_p50_ms", "ms", f.op_ms.p50),
            m("onboard_p90_ms", "ms", f.op_ms.p90),
            m("onboards_per_s", "1/s", f.ops_per_s),
        ],
    }
}

/// Opcodes whose codec, dispatch and socket share are reported.
pub const OPCODES: [&str; 7] = [
    "batch", "add", "remove", "refresh", "delta", "report", "ping",
];

/// Median of per-op values, preferring ops of the workload's own traffic
/// and falling back to probe ops for a layer only probes reach.
fn pick(values: &[(u64, bool, f64)]) -> f64 {
    let native: Vec<f64> = values.iter().filter(|v| v.1).map(|v| v.2).collect();
    if native.is_empty() {
        median(&values.iter().map(|v| v.2).collect::<Vec<_>>())
    } else {
        median(&native)
    }
}

/// Per-op sums of each counter: `name -> [(op, native, sum)]`.
fn counter_sums(counters: &[Counter]) -> HashMap<&'static str, Vec<(u64, bool, f64)>> {
    let mut per_op: HashMap<(&'static str, u64), (bool, f64)> = HashMap::new();
    for c in counters {
        let e = per_op.entry((c.name, c.op)).or_insert((c.native, 0.0));
        e.1 += c.value;
    }
    let mut out: HashMap<&'static str, Vec<(u64, bool, f64)>> = HashMap::new();
    for ((name, op), (native, v)) in per_op {
        out.entry(name).or_default().push((op, native, v));
    }
    out
}

/// Socket share of each op: the client's round trip (its own codec calls
/// excluded) minus the server-side codec and dispatch the mirror timed for
/// the same request. `opcode -> [(op, native, ns)]`.
fn socket_share(spans: &[Span]) -> HashMap<&'static str, Vec<(u64, bool, f64)>> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    // (op, opcode) -> (native, call self ns, server-side ns, saw a mirror)
    let mut acc: HashMap<(u64, &'static str), (bool, f64, f64, bool)> = HashMap::new();
    for s in spans {
        let Some((layer, opcode)) = s.name.rsplit_once('.') else {
            continue;
        };
        let Some(opcode) = OPCODES.iter().find(|o| **o == opcode) else {
            continue;
        };
        let dur = (s.end_ns - s.start_ns) as f64;
        let e = acc
            .entry((s.op, opcode))
            .or_insert((s.native, 0.0, 0.0, false));
        if layer == "client.call" {
            e.1 += dur - child_ns.get(&s.id).copied().unwrap_or(0) as f64;
        } else if matches!(
            layer,
            "protocol.encode" | "protocol.decode" | "registry.dispatch"
        ) {
            let under_call = by_id
                .get(&s.parent)
                .is_some_and(|p| p.name.starts_with("client.call."));
            if !under_call {
                e.2 += dur;
                e.3 = true;
            }
        }
    }
    let mut out: HashMap<&'static str, Vec<(u64, bool, f64)>> = HashMap::new();
    for ((op, opcode), (native, call, server, mirrored)) in acc {
        if mirrored && call > 0.0 {
            out.entry(opcode)
                .or_default()
                .push((op, native, call - server));
        }
    }
    out
}

/// Every per-layer metric, from the traced run's spans and counters.
pub fn per_layer(
    spans: &[Span],
    counters: &[Counter],
    ping_us: &[f64],
    wal_bytes_per_delta: f64,
    overhead: f64,
) -> Vec<Metric> {
    let selfs = trace::self_times(spans);
    let sums = counter_sums(counters);
    let span_ns = |name: &str| selfs.get(name).map_or(0.0, |v| pick(v));
    let count = |name: &str| sums.get(name).map_or(0.0, |v| pick(v));
    let mut out = Vec::new();
    let mut m = |name: String, unit, value| out.push(Metric { name, unit, value });

    for (name, span, scale, unit) in [
        ("anonymize.publish_ms", "anonymize.publish", 1e-6, "ms"),
        ("compiled.build_ms", "compiled.build", 1e-6, "ms"),
        ("persist.save_ms", "persist.save", 1e-6, "ms"),
        ("persist.recover_ms", "persist.recover", 1e-6, "ms"),
        ("compiled.apply_us", "compiled.apply", 1e-3, "us"),
        ("persist.wal_append_us", "persist.wal_append", 1e-3, "us"),
        ("analyst.rebase_us", "analyst.rebase", 1e-3, "us"),
        (
            "analyst.add_knowledge_us",
            "analyst.add_knowledge",
            1e-3,
            "us",
        ),
        (
            "analyst.remove_knowledge_us",
            "analyst.remove_knowledge",
            1e-3,
            "us",
        ),
        ("analyst.refresh_us", "analyst.refresh", 1e-3, "us"),
    ] {
        m(name.to_string(), unit, span_ns(span) * scale);
    }
    m(
        "persist.wal_bytes_per_delta".into(),
        "bytes",
        wal_bytes_per_delta,
    );
    for (name, unit) in [
        ("analyst.rebase_recompiled", "count"),
        ("analyst.rebase_carried", "count"),
        ("analyst.refresh_nonsolver_us", "us"),
        ("analyst.refresh_dirty_ratio", "ratio"),
        ("solver.time_ms", "ms"),
        ("solver.iterations", "count"),
        ("solver.fn_evals", "count"),
        ("parallel.overlap", "ratio"),
    ] {
        m(name.to_string(), unit, count(name));
    }

    // Lookup cost per query, from each lookup op's span and query count.
    let queries: HashMap<u64, f64> = sums
        .get("estimate.lookup.queries")
        .map(|v| v.iter().map(|&(op, _, n)| (op, n)).collect())
        .unwrap_or_default();
    let per_query: Vec<(u64, bool, f64)> = selfs
        .get("estimate.lookup")
        .map(|v| {
            v.iter()
                .filter_map(|&(op, native, ns)| {
                    queries
                        .get(&op)
                        .filter(|n| **n > 0.0)
                        .map(|n| (op, native, ns / n))
                })
                .collect()
        })
        .unwrap_or_default();
    m(
        "estimate.lookup_ns".into(),
        "ns",
        if per_query.is_empty() {
            0.0
        } else {
            pick(&per_query)
        },
    );

    let share = socket_share(spans);
    for op in OPCODES {
        let name = |p: &str| format!("{p}.{op}");
        m(
            name("protocol.encode_us"),
            "us",
            span_ns(&name("protocol.encode")) * 1e-3,
        );
        m(
            name("protocol.decode_us"),
            "us",
            span_ns(&name("protocol.decode")) * 1e-3,
        );
        m(
            name("protocol.frame_bytes"),
            "bytes",
            count(&name("protocol.frame_bytes")),
        );
        m(
            name("registry.dispatch_us"),
            "us",
            span_ns(&name("registry.dispatch")) * 1e-3,
        );
        m(
            name("reactor.share_us"),
            "us",
            share.get(op).map_or(0.0, |v| pick(v)) * 1e-3,
        );
    }
    m("reactor.ping_us".into(), "us", median(ping_us));
    m("trace.overhead".into(), "ratio", overhead);
    out
}

/// Renders the last line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON number (non-finite values, which no metric should produce,
/// become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A flat JSON object from ordered key/value pairs whose values are
/// already rendered.
pub fn json_object(fields: &BTreeMap<String, String>) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clients::{Rules, Seen, Spec, Until};

    fn outcome(round: usize, ops: Vec<Sample>, wall_s: f64) -> Outcome {
        Outcome {
            spec: Spec {
                class: Class::Mutation,
                tenant: String::new(),
                rules: Rules::Held,
                prepared: true,
                ring: 0,
                tape_offset: 0,
                native: false,
                round,
                until: Until::Count(ops.len()),
                pace: None,
            },
            start_epoch: 0,
            attempted: ops.len() as u64,
            failed: 0,
            infeasible: 0,
            mismatches: 0,
            error: None,
            plain: Timings {
                ops,
                wall_s,
                mirrored_s: 0.0,
            },
            traced: Timings::default(),
            seen: Seen::Mutation {
                added: Vec::new(),
                removed: Vec::new(),
            },
        }
    }

    /// `n` back-to-back ops of `ms` each, from `at_s`.
    fn ops(at_s: f64, n: usize, ms: f64) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                at_s: (at_s + i as f64 * ms / 1e3) as f32,
                ms: ms as f32,
                ack_ms: f32::NAN,
                queries: 1,
            })
            .collect()
    }

    #[test]
    fn a_slow_minority_of_rounds_leaves_the_figures() {
        let rounds: Vec<Outcome> = (0..5)
            .map(|r| {
                // Round 3 ran while the host was busy: ten times slower.
                let ms = if r == 3 { 20.0 } else { 2.0 };
                outcome(r, ops(0.0, 50, ms), 50.0 * ms / 1e3)
            })
            .collect();
        let refs: Vec<&Outcome> = rounds.iter().collect();
        let f = class_figures(&refs, |o| &o.plain, Slicing::Rounds);
        assert_eq!(f.slices, 5);
        assert_eq!(f.op_ms.p50, 2.0);
        assert_eq!(f.op_ms.p90, 2.0);
        assert!((f.ops_per_s - 500.0).abs() < 1e-9, "{}", f.ops_per_s);
        assert_eq!(f.op_ms.n, 250);
    }

    #[test]
    fn a_window_is_cut_into_equal_slices_of_time() {
        // Two clients side by side for 1 s, the second one five times
        // slower for its last 0.2 s: 2 of 10 slices are slow, the median
        // slice is not.
        let mut slow = ops(0.0, 400, 2.0);
        slow.extend(ops(0.8, 20, 10.0));
        let clients = [outcome(0, ops(0.0, 500, 2.0), 1.0), outcome(0, slow, 1.0)];
        let refs: Vec<&Outcome> = clients.iter().collect();
        let f = class_figures(&refs, |o| &o.plain, Slicing::Time(10));
        assert_eq!(f.slices, 10);
        assert_eq!(f.op_ms.p50, 2.0);
        // 100 ops per 0.1 s slice from both clients in the fast slices.
        assert!((f.ops_per_s - 1000.0).abs() < 1.0, "{}", f.ops_per_s);
        assert!((f.queries_per_s - f.ops_per_s).abs() < 1e-9);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s".into(),
                unit: "s",
                value: 0.25,
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
