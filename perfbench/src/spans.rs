//! The benchmark's own span recorder. Spans wrap the benchmark's calls
//! into the program (construction, rounds, evaluation, client calls,
//! blocking reads); the simulator's per-phase wall times become child
//! spans of each round. Everything stays in memory until the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: Option<u32>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's (or a merged run's) spans, timed from a shared origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

/// Per-name totals of a span table.
#[derive(Debug)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its id for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        round: Option<u32>,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(name, start_ns, end_ns, parent, round)
    }

    pub fn push_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: Option<u32>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    /// Records a span that has started but not finished; close it with
    /// [`Spans::end`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, round: Option<u32>) -> usize {
        let now = self.ns(Instant::now());
        self.push_ns(name, now, now, parent, round)
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Total milliseconds of the spans matching `pred`.
    pub fn total_ms_where(&self, pred: impl Fn(&Span) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Moves another recorder's spans (same origin) into this one, hanging
    /// its root spans under `parent`.
    pub fn append(&mut self, other: Spans, parent: Option<usize>) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Per-name count, total and self time. A span's self time is its
    /// duration minus the part of it that its children cover (children
    /// on parallel threads may overlap; their union is subtracted).
    /// Names come out in order of first appearance.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut rows: Vec<SelfTime> = Vec::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach).min(s.end_ns), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let self_ns = s.dur_ns().saturating_sub(covered);
            match rows.iter_mut().find(|r| r.name == s.name) {
                Some(r) => {
                    r.count += 1;
                    r.total_ns += s.dur_ns();
                    r.self_ns += self_ns;
                }
                None => rows.push(SelfTime {
                    name: s.name,
                    count: 1,
                    total_ns: s.dur_ns(),
                    self_ns,
                }),
            }
        }
        rows
    }

    /// The self-time table as aligned text.
    pub fn self_time_table(&self) -> String {
        let rows = self.self_times();
        let all_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        let mut out = format!(
            "{:<26} {:>8} {:>12} {:>12} {:>7}\n",
            "span", "count", "total (ms)", "self (ms)", "self %"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<26} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / all_self.max(1) as f64
            );
        }
        out
    }

    /// Writes every span as a tab-separated row:
    /// `id, parent, round, name, start_ns, end_ns` (`-` for none).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("id\tparent\tround\tname\tstart_ns\tend_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
            let _ = writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent.map(|p| p.to_string())),
                opt(s.round.map(|r| r.to_string())),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new(Instant::now());
        let root = s.push_ns("root", 0, 100, None, None);
        // Two overlapping children cover [10, 60); a third covers [80, 90).
        s.push_ns("a", 10, 50, Some(root), Some(0));
        s.push_ns("a", 30, 60, Some(root), Some(0));
        s.push_ns("b", 80, 90, Some(root), Some(1));
        let rows = s.self_times();
        assert_eq!(rows[0].name, "root");
        assert_eq!(rows[0].self_ns, 100 - 50 - 10);
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 70);
        assert_eq!(rows[2].self_ns, 10);
    }

    #[test]
    fn append_reparents_roots() {
        let origin = Instant::now();
        let mut a = Spans::new(origin);
        let root = a.push_ns("root", 0, 10, None, None);
        let mut b = Spans::new(origin);
        let inner = b.push_ns("thread", 1, 9, None, None);
        b.push_ns("leaf", 2, 3, Some(inner), None);
        a.append(b, Some(root));
        assert_eq!(a.spans[1].parent, Some(root));
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
