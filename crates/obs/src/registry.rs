//! The one registry of every number a process serves.
//!
//! Each served value — cache counters, solver-tier counters, verb
//! counters, queue depth, stage histograms — is declared here once, as an
//! [`Entry`]: a reader, plus an optional Prometheus series (name, help,
//! static labels) and an optional `stats` key path. A process's two
//! observability verbs are both renderings of those entries:
//! [`MetricsRegistry::render_prometheus`] walks the entries that have a
//! series (the `metrics` verb), and [`MetricsRegistry::render_stats`]
//! walks the entries that have a key path, nesting them into JSON objects
//! at the path's dots (the `stats` verb). A value served by both verbs is
//! therefore read by one closure, so its two renderings cannot drift
//! apart, and adding a gauge costs one declaration. Stats-only values
//! (rates, mode labels, policy settings) are entries without a series.
//!
//! The registry is *pull-based*: readers are closures run at render time
//! (the sources keep their own atomics; declaring adds zero cost to any
//! hot path). Histograms are read as [`HistogramSnapshot`]s and render as
//! cumulative buckets in `metrics` and as a count / mean / percentile
//! summary object in `stats`.
//!
//! Exposition follows the Prometheus text format, version 0.0.4: one
//! `# HELP` and `# TYPE` header per metric family, one
//! `name{label="value"} number` line per series, and for histograms the
//! `_bucket{le="..."}` / `_sum` / `_count` triplet with cumulative bucket
//! counts ending in `le="+Inf"`. Families render in first-declaration
//! order and series within a family in declaration order; `stats` keys
//! keep first-declaration order within each object. Both outputs are
//! deterministic.

use crate::histogram::HistogramSnapshot;
use crate::json::{self, ObjBuilder};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The kind of a metric family (drives the `# TYPE` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

type Read<T> = Box<dyn Fn() -> T + Send + Sync>;

/// How an entry's value is read, which also fixes its series kind and
/// its JSON form.
enum Reader {
    /// A monotonic count.
    Counter(Read<u64>),
    /// An integral level that can go up and down.
    Gauge(Read<u64>),
    /// A real-valued level or rate.
    Real(Read<f64>),
    /// A label; `stats` only.
    Text(Read<String>),
    /// Time since an instant: fractional seconds in `metrics`, whole
    /// seconds in `stats`.
    Since(Instant),
    /// A latency histogram; `total` adds `total_us` to its `stats`
    /// summary.
    Histogram { read: Read<HistogramSnapshot>, total: bool },
}

impl Reader {
    /// The kind of a series over this reader; `None` for `stats`-only
    /// readers.
    fn kind(&self) -> Option<MetricKind> {
        match self {
            Reader::Counter(_) => Some(MetricKind::Counter),
            Reader::Gauge(_) | Reader::Real(_) | Reader::Since(_) => Some(MetricKind::Gauge),
            Reader::Histogram { .. } => Some(MetricKind::Histogram),
            Reader::Text(_) => None,
        }
    }

    /// The value as a rendered JSON value.
    fn stats_value(&self) -> String {
        match self {
            Reader::Counter(f) | Reader::Gauge(f) => f().to_string(),
            Reader::Real(f) => json::num(f()),
            Reader::Text(f) => json::escape(&f()),
            Reader::Since(t) => t.elapsed().as_secs().to_string(),
            Reader::Histogram { read, total } => {
                let s = read().summary();
                let b = ObjBuilder::new().u64("count", s.count);
                let b = if *total { b.u64("total_us", s.total_us) } else { b };
                b.u64("mean_us", s.mean_us)
                    .u64("p50_us", s.p50_us)
                    .u64("p90_us", s.p90_us)
                    .u64("p99_us", s.p99_us)
                    .build()
            }
        }
    }

    /// Appends the value's exposition lines for series `name{labels}`.
    fn write_series(&self, out: &mut String, name: &str, labels: &[(&'static str, String)]) {
        let value = match self {
            Reader::Counter(f) | Reader::Gauge(f) => f().to_string(),
            Reader::Real(f) => num(f()),
            Reader::Since(t) => num(t.elapsed().as_secs_f64()),
            Reader::Histogram { read, .. } => return render_histogram(out, name, labels, read()),
            Reader::Text(_) => unreachable!("text entries have no series"),
        };
        let _ = writeln!(out, "{name}{} {value}", label_set(labels, &[]));
    }
}

struct Series {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
}

/// One served value: a reader, served under a Prometheus series, a
/// `stats` key path, or both. Build it with a reader constructor, then
/// [`Entry::series`] and/or [`Entry::stats`], and [`MetricsRegistry::add`]
/// it.
pub struct Entry {
    reader: Reader,
    series: Option<Series>,
    stats: Option<String>,
}

impl Entry {
    fn new(reader: Reader) -> Entry {
        Entry { reader, series: None, stats: None }
    }

    /// A monotonic count (a `counter` series).
    pub fn counter(f: impl Fn() -> u64 + Send + Sync + 'static) -> Entry {
        Entry::new(Reader::Counter(Box::new(f)))
    }

    /// An integral level (a `gauge` series).
    pub fn gauge(f: impl Fn() -> u64 + Send + Sync + 'static) -> Entry {
        Entry::new(Reader::Gauge(Box::new(f)))
    }

    /// A real-valued level or rate (a `gauge` series).
    pub fn real(f: impl Fn() -> f64 + Send + Sync + 'static) -> Entry {
        Entry::new(Reader::Real(Box::new(f)))
    }

    /// A label, served in `stats` only.
    pub fn text(f: impl Fn() -> String + Send + Sync + 'static) -> Entry {
        Entry::new(Reader::Text(Box::new(f)))
    }

    /// Seconds since `started`: a fractional `gauge` series, whole
    /// seconds in `stats`.
    pub fn uptime(started: Instant) -> Entry {
        Entry::new(Reader::Since(started))
    }

    /// A latency histogram (typically `move || h.snapshot()` over a
    /// captured `Arc`): cumulative `_bucket` / `_sum` / `_count` lines with
    /// `le` bounds in microseconds — name the series `*_us` — and a
    /// `{count, mean_us, p50_us, p90_us, p99_us}` object in `stats`.
    pub fn histogram(f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static) -> Entry {
        Entry::new(Reader::Histogram { read: Box::new(f), total: false })
    }

    /// [`Entry::histogram`] whose `stats` object also carries the sample
    /// sum as `total_us`, after `count`.
    pub fn histogram_with_total(
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) -> Entry {
        Entry::new(Reader::Histogram { read: Box::new(f), total: true })
    }

    /// Serves the value as series `name{labels}` of the `metrics` verb.
    /// Entries sharing a family name share its header (the help of the
    /// first declaration wins).
    pub fn series(
        mut self,
        name: &'static str,
        help: &'static str,
        labels: &[(&'static str, &str)],
    ) -> Entry {
        let labels = labels.iter().map(|(k, v)| (*k, v.to_string())).collect();
        self.series = Some(Series { name, help, labels });
        self
    }

    /// Serves the value at a dotted key path of the `stats` verb
    /// (`"cache.hits"` is field `hits` of object `cache`).
    pub fn stats(mut self, path: impl Into<String>) -> Entry {
        self.stats = Some(path.into());
        self
    }
}

/// A reader over a shared source: `reader(&src, f)` reads `f(&src)`
/// through its own clone of the `Arc`.
pub fn reader<T, R>(src: &Arc<T>, f: fn(&T) -> R) -> impl Fn() -> R + Send + Sync + 'static
where
    T: ?Sized + Send + Sync + 'static,
    R: 'static,
{
    let src = Arc::clone(src);
    move || f(&src)
}

/// A process-wide registry of served values. Share it as an `Arc`;
/// declaring and rendering both take `&self`.
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().expect("metrics registry");
        f.debug_struct("MetricsRegistry").field("entries", &entries.len()).finish()
    }
}

/// `true` for a legal Prometheus metric name: `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `true` for a legal label name: `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escapes a label value (`\`, `"` and newlines, per the text format).
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Whether one of two `stats` key paths is the other or lies inside it
/// (a value and an object cannot share a key).
fn paths_clash(a: &str, b: &str) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.strip_prefix(short).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// A `stats` object under construction: keys in first-declaration order.
#[derive(Default)]
struct StatsObj(Vec<(String, StatsNode)>);

enum StatsNode {
    Value(String),
    Obj(StatsObj),
}

impl StatsObj {
    /// The object at `key`, created on first use.
    fn child(&mut self, key: &str) -> &mut StatsObj {
        let i = match self.0.iter().position(|(k, _)| k == key) {
            Some(i) => i,
            None => {
                self.0.push((key.to_string(), StatsNode::Obj(StatsObj::default())));
                self.0.len() - 1
            }
        };
        match &mut self.0[i].1 {
            StatsNode::Obj(obj) => obj,
            StatsNode::Value(_) => unreachable!("stats paths are checked not to clash"),
        }
    }

    fn fields(self, b: ObjBuilder) -> ObjBuilder {
        self.0.into_iter().fold(b, |b, (key, node)| match node {
            StatsNode::Value(v) => b.raw(&key, v),
            StatsNode::Obj(obj) => b.raw(&key, obj.fields(ObjBuilder::new()).build()),
        })
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Declares one served value.
    ///
    /// # Panics
    /// On an entry served nowhere, an invalid metric or label name, a
    /// series over a text reader, a kind clash with an existing family of
    /// the same name, or a `stats` key path that is empty, has an empty
    /// segment, or equals or nests inside another entry's path — all
    /// programmer errors.
    pub fn add(&self, entry: Entry) {
        assert!(entry.series.is_some() || entry.stats.is_some(), "entry served nowhere");
        let mut entries = self.entries.lock().expect("metrics registry");
        if let Some(s) = &entry.series {
            let name = s.name;
            assert!(valid_metric_name(name), "invalid metric name `{name}`");
            for (k, _) in &s.labels {
                assert!(valid_label_name(k), "invalid label name `{k}` on `{name}`");
            }
            let kind = entry.reader.kind();
            assert!(kind.is_some(), "text entry `{name}` cannot have a series");
            let clash = entries.iter().any(|e| {
                e.series.as_ref().is_some_and(|t| t.name == name) && e.reader.kind() != kind
            });
            assert!(!clash, "metric `{name}` registered with two kinds");
        }
        if let Some(path) = &entry.stats {
            assert!(path.split('.').all(|k| !k.is_empty()), "invalid stats key path `{path}`");
            if let Some(other) =
                entries.iter().filter_map(|e| e.stats.as_deref()).find(|p| paths_clash(p, path))
            {
                panic!("stats key path `{path}` clashes with `{other}`");
            }
        }
        entries.push(entry);
    }

    /// Renders every entry with a series in the Prometheus text format
    /// (version 0.0.4). Readers run at call time.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().expect("metrics registry");
        let mut families: Vec<&Series> = Vec::new();
        for s in entries.iter().filter_map(|e| e.series.as_ref()) {
            if !families.iter().any(|f| f.name == s.name) {
                families.push(s);
            }
        }
        let mut out = String::with_capacity(families.len() * 128);
        for fam in families {
            let mut members =
                entries.iter().filter(|e| e.series.as_ref().is_some_and(|s| s.name == fam.name));
            let first = members.next().expect("a family has a first member");
            let kind = first.reader.kind().expect("checked in add");
            let _ = writeln!(out, "# HELP {} {}", fam.name, fam.help);
            let _ = writeln!(out, "# TYPE {} {}", fam.name, kind.label());
            for e in std::iter::once(first).chain(members) {
                let labels = &e.series.as_ref().expect("filtered").labels;
                e.reader.write_series(&mut out, fam.name, labels);
            }
        }
        out
    }

    /// Appends every entry with a `stats` key path to `out` as fields,
    /// nested into objects at the paths' dots. Readers run at call time.
    pub fn render_stats(&self, out: ObjBuilder) -> ObjBuilder {
        let entries = self.entries.lock().expect("metrics registry");
        let mut root = StatsObj::default();
        for e in entries.iter() {
            let Some(path) = &e.stats else { continue };
            let (parents, key) = match path.rsplit_once('.') {
                Some((parents, key)) => (Some(parents), key),
                None => (None, path.as_str()),
            };
            let obj = parents
                .into_iter()
                .flat_map(|p| p.split('.'))
                .fold(&mut root, |obj, k| obj.child(k));
            obj.0.push((key.to_string(), StatsNode::Value(e.reader.stats_value())));
        }
        root.fields(out)
    }
}

/// Renders a `{k="v",...}` label set (empty string with no labels);
/// `extra` appends already-escaped pairs such as `le`.
fn label_set(labels: &[(&'static str, String)], extra: &[(&str, String)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return String::new();
    }
    let mut parts: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v))).collect();
    parts.extend(extra.iter().map(|(k, v)| format!("{k}=\"{v}\"")));
    format!("{{{}}}", parts.join(","))
}

/// Renders an `f64` the way Prometheus expects (no exponent surprises for
/// the integral values we mostly emit).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(&'static str, String)],
    snap: HistogramSnapshot,
) {
    // Self-consistent snapshot: derive `_count` and `+Inf` from the bucket
    // sum itself, so a scrape racing `record` never shows count < buckets.
    // The log-linear histogram has hundreds of fine buckets, most empty;
    // only occupied bounds get a `_bucket` line (cumulative counts stay
    // monotone over any subset of bounds, so the exposition stays legal).
    let mut cumulative = 0u64;
    for (k, (bound, count)) in snap.buckets_us.iter().enumerate() {
        if *count == 0 {
            continue;
        }
        cumulative += count;
        let mut line = format!(
            "{name}_bucket{} {cumulative}",
            label_set(labels, &[("le", bound.to_string())])
        );
        // OpenMetrics exemplar: ` # {trace_id="..."} value` after the
        // bucket the exemplar's sample landed in.
        if let Some(ex) = snap.exemplars.iter().find(|e| e.bucket == k) {
            let _ = write!(
                line,
                " # {{trace_id=\"{}\"}} {}",
                escape_label_value(&ex.trace_id),
                ex.value_us
            );
        }
        let _ = writeln!(out, "{line}");
    }
    let _ =
        writeln!(out, "{name}_bucket{} {cumulative}", label_set(labels, &[("le", "+Inf".into())]));
    let _ = writeln!(out, "{name}_sum{} {}", label_set(labels, &[]), snap.sum_us);
    let _ = writeln!(out, "{name}_count{} {cumulative}", label_set(labels, &[]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn counters_and_gauges_render_current_values() {
        let reg = MetricsRegistry::new();
        let hits = Arc::new(AtomicU64::new(0));
        let h2 = Arc::clone(&hits);
        reg.add(Entry::counter(move || h2.load(Ordering::Relaxed)).series(
            "cache_hits_total",
            "Cache hits.",
            &[],
        ));
        reg.add(Entry::gauge(|| 3).series("queue_depth", "Requests waiting.", &[]));
        reg.add(Entry::real(|| 0.5).series("hit_ratio", "Hit ratio.", &[]));
        hits.store(7, Ordering::Relaxed);
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP cache_hits_total Cache hits.\n"), "{text}");
        assert!(text.contains("# TYPE cache_hits_total counter\n"), "{text}");
        assert!(text.contains("\ncache_hits_total 7\n"), "{text}");
        assert!(text.contains("\nqueue_depth 3\n"), "{text}");
        assert!(text.contains("\nhit_ratio 0.5\n"), "{text}");
    }

    #[test]
    fn series_of_one_family_share_one_header() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::counter(|| 2).series(
            "tier_answers_total",
            "Answers per tier.",
            &[("tier", "interval")],
        ));
        reg.add(Entry::gauge(|| 1).series("other", "Interleaved.", &[]));
        reg.add(Entry::counter(|| 5).series(
            "tier_answers_total",
            "Answers per tier.",
            &[("tier", "simplex")],
        ));
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE tier_answers_total").count(), 1, "{text}");
        assert!(text.contains("tier_answers_total{tier=\"interval\"} 2\n"), "{text}");
        assert!(text.contains("tier_answers_total{tier=\"simplex\"} 5\n# HELP other"), "{text}");
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let reg = MetricsRegistry::new();
        let h = Arc::new(Histogram::new());
        h.record(Duration::from_micros(100)); // sub-bucket bound 103
        h.record(Duration::from_micros(100));
        h.record(Duration::from_millis(50)); // sub-bucket bound 53247
        reg.add(Entry::histogram(move || h.snapshot()).series(
            "stage_duration_us",
            "Stage latency.",
            &[("stage", "prune")],
        ));
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE stage_duration_us histogram\n"), "{text}");
        assert!(
            text.contains("stage_duration_us_bucket{stage=\"prune\",le=\"103\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_duration_us_bucket{stage=\"prune\",le=\"53247\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("stage_duration_us_bucket{stage=\"prune\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(text.contains("stage_duration_us_sum{stage=\"prune\"} 50200\n"), "{text}");
        assert!(text.contains("stage_duration_us_count{stage=\"prune\"} 3\n"), "{text}");
        // Empty fine buckets are elided — two occupied bounds, one +Inf.
        assert_eq!(text.matches("stage_duration_us_bucket").count(), 3, "{text}");
        // Cumulative counts never decrease.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "bucket counts must be cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn exemplars_render_on_their_buckets() {
        let reg = MetricsRegistry::new();
        let h = Arc::new(Histogram::new());
        h.record(Duration::from_micros(100)); // too fast for an exemplar slot
        h.record_with_exemplar(Duration::from_millis(50), "00ff00ff00ff00ff00ff00ff00ff00ff");
        reg.add(Entry::histogram(move || h.snapshot()).series(
            "verb_duration_us",
            "Verb latency.",
            &[("verb", "infer")],
        ));
        let text = reg.render_prometheus();
        assert!(
            text.contains(
                "verb_duration_us_bucket{verb=\"infer\",le=\"53247\"} 2 \
                 # {trace_id=\"00ff00ff00ff00ff00ff00ff00ff00ff\"} 50000\n"
            ),
            "{text}"
        );
        // The fast bucket carries no exemplar.
        assert!(text.contains("verb_duration_us_bucket{verb=\"infer\",le=\"103\"} 1\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::gauge(|| 1).series("g", "Gauge.", &[("path", "a\"b\\c\nd")]));
        let text = reg.render_prometheus();
        assert!(text.contains("g{path=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn bad_metric_names_panic() {
        MetricsRegistry::new().add(Entry::counter(|| 0).series("9bad", "x", &[]));
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_clash_panics() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::counter(|| 0).series("m", "x", &[]));
        reg.add(Entry::gauge(|| 0).series("m", "x", &[]));
    }

    #[test]
    fn every_line_matches_the_text_format() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::counter(|| 1).series("a_total", "A.", &[("k", "v")]));
        reg.add(Entry::real(|| 0.5).series("b", "B.", &[]));
        reg.add(Entry::uptime(Instant::now()).series("up_seconds", "Up.", &[]));
        let h = Arc::new(Histogram::new());
        h.record(Duration::from_micros(3));
        h.record_with_exemplar(Duration::from_millis(80), "deadbeef");
        reg.add(Entry::histogram(move || h.snapshot()).series("c_us", "C.", &[]));
        for line in reg.render_prometheus().lines() {
            if line.starts_with('#') {
                assert!(
                    line.starts_with("# HELP ") || line.starts_with("# TYPE "),
                    "bad comment: {line}"
                );
                continue;
            }
            // name{labels} value [# {exemplar-labels} exemplar-value] —
            // both the sample and any exemplar value parse as floats.
            let (sample, exemplar) = match line.split_once(" # ") {
                Some((s, ex)) => (s, Some(ex)),
                None => (line, None),
            };
            let (_, value) = sample.rsplit_once(' ').expect("sample line has a value");
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
                "unparseable value in: {line}"
            );
            if let Some(ex) = exemplar {
                let (labels, exval) = ex.rsplit_once(' ').expect("exemplar has a value");
                assert!(labels.starts_with('{') && labels.ends_with('}'), "bad exemplar: {line}");
                assert!(exval.parse::<f64>().is_ok(), "unparseable exemplar value: {line}");
            }
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use crate::histogram::Histogram;
    use crate::json::{parse, Json};
    use std::time::Duration;

    fn stats(reg: &MetricsRegistry) -> String {
        reg.render_stats(ObjBuilder::new().bool("ok", true)).build()
    }

    #[test]
    fn stats_nest_at_dots_in_first_declaration_order() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::counter(|| 7).series("hits_total", "Hits.", &[]).stats("cache.hits"));
        reg.add(Entry::real(|| 0.25).stats("cache.hit_rate"));
        reg.add(Entry::gauge(|| 2).stats("depth"));
        reg.add(Entry::gauge(|| 9).stats("cache.sizes.bytes"));
        reg.add(Entry::text(|| "summary".to_string()).stats("mode"));
        assert_eq!(
            stats(&reg),
            r#"{"ok":true,"cache":{"hits":7,"hit_rate":0.25,"sizes":{"bytes":9}},"depth":2,"mode":"summary"}"#
        );
        // Stats-only entries have no series.
        assert_eq!(
            reg.render_prometheus(),
            "# HELP hits_total Hits.\n# TYPE hits_total counter\nhits_total 7\n"
        );
    }

    #[test]
    fn one_histogram_entry_serves_buckets_and_a_summary() {
        let reg = MetricsRegistry::new();
        let h = Arc::new(Histogram::new());
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(300));
        let h2 = Arc::clone(&h);
        reg.add(
            Entry::histogram(move || h2.snapshot())
                .series("verb_us", "Verb latency.", &[("verb", "ping")])
                .stats("latency.ping"),
        );
        reg.add(Entry::histogram_with_total(move || h.snapshot()).stats("stages.prune"));
        let v = parse(&stats(&reg)).unwrap();
        let ping = v.get("latency").and_then(|l| l.get("ping")).unwrap();
        assert_eq!(ping.u64_field("count"), Some(2));
        assert_eq!(ping.u64_field("mean_us"), Some(200));
        assert_eq!(ping.u64_field("p50_us"), Some(103));
        assert_eq!(ping.u64_field("p99_us"), Some(319));
        assert!(ping.get("total_us").is_none());
        let prune = v.get("stages").and_then(|s| s.get("prune")).unwrap();
        assert_eq!(prune.u64_field("total_us"), Some(400));
        let text = reg.render_prometheus();
        assert!(text.contains("verb_us_count{verb=\"ping\"} 2\n"), "{text}");
        assert!(text.contains("verb_us_sum{verb=\"ping\"} 400\n"), "{text}");
    }

    #[test]
    fn uptime_is_whole_seconds_in_stats() {
        let reg = MetricsRegistry::new();
        let started = Instant::now() - Duration::from_millis(2_500);
        reg.add(Entry::uptime(started).series("up_seconds", "Up.", &[]).stats("uptime_s"));
        let v = parse(&stats(&reg)).unwrap();
        assert_eq!(v.get("uptime_s"), Some(&Json::Int(2)));
        let text = reg.render_prometheus();
        let up: f64 = text.lines().last().unwrap().rsplit(' ').next().unwrap().parse().unwrap();
        assert!(up >= 2.5, "{text}");
    }

    #[test]
    #[should_panic(expected = "clashes with")]
    fn a_value_cannot_also_be_an_object() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::gauge(|| 1).stats("memory"));
        reg.add(Entry::gauge(|| 2).stats("memory.bytes"));
    }

    #[test]
    #[should_panic(expected = "clashes with")]
    fn a_key_path_is_declared_once() {
        let reg = MetricsRegistry::new();
        reg.add(Entry::gauge(|| 1).stats("cache.hits"));
        reg.add(Entry::counter(|| 2).stats("cache.hits"));
    }

    #[test]
    #[should_panic(expected = "cannot have a series")]
    fn text_entries_are_stats_only() {
        MetricsRegistry::new().add(Entry::text(String::new).series("mode", "Mode.", &[]));
    }

    #[test]
    fn readers_capture_their_own_arc() {
        let src = Arc::new(AtomicU64::new(4));
        let read = reader(&src, |s| s.load(Ordering::Relaxed));
        src.store(5, Ordering::Relaxed);
        assert_eq!(read(), 5);
        assert_eq!(Arc::strong_count(&src), 2);
    }

    use std::sync::atomic::{AtomicU64, Ordering};
}
