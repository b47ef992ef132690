//! Deterministic query-trace generator for the scheduling service.
//!
//! `cm5 serve --record` calls into this module to write a reproducible
//! JSON-lines trace in the serve request codec, which `cm5 serve --replay`
//! then feeds back through the worker pool. The generator is a plain
//! xorshift64* stream — same seed, same mix, same query count ⇒ the same
//! trace byte for byte — so the replay determinism test and the CI QPS
//! gate both run against a trace they can regenerate instead of a checked-
//! in fixture.
//!
//! The mix is shaped like real advisory traffic: mostly cheap advise-only
//! queries over the synthetic generators, a steady minority asking for
//! static verification (amortized by the service's verify memo), and rare
//! expensive requests — simulation and multi-tenant runs — kept to small
//! node counts so one trace exercises every service path without any
//! single request dominating the replay.

use std::fmt::Write as _;

/// Which traffic shape to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMix {
    /// Pure advise queries (exchange/broadcast/irregular/workload), no
    /// verification or simulation: the cache-friendly hot path.
    AdviseOnly,
    /// The full mix: advise-heavy with a verify minority and rare
    /// simulate/tenants requests.
    Mixed,
}

impl TraceMix {
    /// Parse a `--mix` flag value.
    pub fn parse(text: &str) -> Result<TraceMix, String> {
        match text {
            "advise" => Ok(TraceMix::AdviseOnly),
            "mixed" => Ok(TraceMix::Mixed),
            other => Err(format!("unknown mix '{other}' (advise|mixed)")),
        }
    }

    /// Stable name, inverse of [`TraceMix::parse`].
    pub fn name(&self) -> &'static str {
        match self {
            TraceMix::AdviseOnly => "advise",
            TraceMix::Mixed => "mixed",
        }
    }
}

/// xorshift64* — tiny, seedable, good enough for traffic shaping. Not
/// `rand` so the trace bytes can never drift with a crate upgrade.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        // Avoid the all-zeros fixed point; splash the seed bits first.
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..bound` (bound > 0).
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// Pick one element of a non-empty slice.
    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Node counts for cheap advise-only queries: the service accepts any
/// power of two up to its bound, and advising alone is cheap even at the
/// top of this range.
const ADVISE_NODES: [usize; 6] = [8, 16, 32, 64, 128, 256];

/// Node counts for requests the service will actually simulate: the
/// engine is O(n²) per exchange, so replayed simulations stay small.
const SIM_NODES: [usize; 3] = [8, 16, 32];

/// Per-pair message sizes, spanning the paper's short-to-long range.
pub const BYTES: [u64; 5] = [64, 256, 1024, 4096, 16384];

/// Named real-application patterns the service knows.
const WORKLOADS: [&str; 3] = ["cg", "euler545", "euler2k"];

/// Generate `queries` request lines (newline-terminated JSON-lines text)
/// for `mix`, deterministically from `seed`.
pub fn generate_trace(mix: TraceMix, queries: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    for id in 0..queries as u64 {
        let line = match mix {
            TraceMix::AdviseOnly => advise_line(&mut rng, id),
            TraceMix::Mixed => mixed_line(&mut rng, id),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// One cheap advise-only request: no verify, no simulate.
fn advise_line(rng: &mut Rng, id: u64) -> String {
    let n = *rng.pick(&ADVISE_NODES);
    let bytes = *rng.pick(&BYTES);
    match rng.below(10) {
        0..=4 => format!(
            "{{\"id\":{id},\"query\":{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{bytes}}}}}"
        ),
        5..=6 => format!(
            "{{\"id\":{id},\"query\":{{\"kind\":\"broadcast\",\"n\":{n},\"bytes\":{bytes}}}}}"
        ),
        7..=8 => {
            // Small seed pool so repeated queries hit the advisor cache at
            // a realistic rate instead of never.
            let density = ["0.1", "0.25", "0.5", "0.75"][rng.below(4) as usize];
            let pat_seed = 0x7AB1E + rng.below(8);
            format!(
                "{{\"id\":{id},\"query\":{{\"kind\":\"irregular\",\"n\":{n},\"density\":{density},\"bytes\":256,\"seed\":{pat_seed}}}}}"
            )
        }
        _ => {
            let name = *rng.pick(&WORKLOADS);
            format!(
                "{{\"id\":{id},\"query\":{{\"kind\":\"workload\",\"name\":\"{name}\",\"n\":{n}}}}}"
            )
        }
    }
}

/// One request from the full mix.
fn mixed_line(rng: &mut Rng, id: u64) -> String {
    match rng.below(100) {
        // 70 %: plain advise traffic.
        0..=69 => advise_line(rng, id),
        // 20 %: advise + static verification (memoized by the service).
        70..=89 => {
            let n = *rng.pick(&SIM_NODES);
            let bytes = *rng.pick(&BYTES);
            match rng.below(3) {
                0 => format!(
                    "{{\"id\":{id},\"query\":{{\"kind\":\"broadcast\",\"n\":{n},\"bytes\":{bytes}}},\"verify\":true}}"
                ),
                1 => {
                    let pat_seed = 0x7AB1E + rng.below(4);
                    format!(
                        "{{\"id\":{id},\"query\":{{\"kind\":\"irregular\",\"n\":{n},\"density\":0.25,\"bytes\":256,\"seed\":{pat_seed}}},\"verify\":true}}"
                    )
                }
                _ => format!(
                    "{{\"id\":{id},\"query\":{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{bytes}}},\"verify\":true}}"
                ),
            }
        }
        // 7 %: advise + simulate, small n only.
        90..=96 => {
            let n = *rng.pick(&SIM_NODES);
            let bytes = *rng.pick(&BYTES);
            format!(
                "{{\"id\":{id},\"query\":{{\"kind\":\"exchange\",\"n\":{n},\"bytes\":{bytes}}},\"simulate\":true}}"
            )
        }
        // 3 %: a two-tenant shared-tree run, the heaviest request kind.
        _ => {
            let placement = if rng.below(2) == 0 {
                "subtree"
            } else {
                "striped"
            };
            let tn = *rng.pick(&[4usize, 8]);
            let bytes = *rng.pick(&[256u64, 1024]);
            let mut line = String::new();
            let _ = write!(
                line,
                "{{\"id\":{id},\"query\":{{\"kind\":\"tenants\",\"shared_n\":64,\"placement\":\"{placement}\",\
                 \"tenants\":[{{\"name\":\"a\",\"n\":{tn},\"bytes\":{bytes}}},{{\"name\":\"b\",\"n\":{tn},\"bytes\":{bytes}}}]}}}}"
            );
            line
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic() {
        let a = generate_trace(TraceMix::Mixed, 200, 42);
        let b = generate_trace(TraceMix::Mixed, 200, 42);
        assert_eq!(a, b);
        let c = generate_trace(TraceMix::Mixed, 200, 43);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn trace_has_one_line_per_query_with_sequential_ids() {
        let t = generate_trace(TraceMix::AdviseOnly, 50, 7);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 50);
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"id\":{i},")),
                "line {i} is {line}"
            );
        }
    }

    #[test]
    fn mixed_trace_contains_every_request_kind() {
        let t = generate_trace(TraceMix::Mixed, 400, 1);
        for needle in [
            "\"kind\":\"exchange\"",
            "\"kind\":\"broadcast\"",
            "\"kind\":\"irregular\"",
            "\"kind\":\"workload\"",
            "\"kind\":\"tenants\"",
            "\"verify\":true",
            "\"simulate\":true",
        ] {
            assert!(t.contains(needle), "mix missing {needle}");
        }
    }

    #[test]
    fn advise_only_trace_never_verifies_or_simulates() {
        let t = generate_trace(TraceMix::AdviseOnly, 300, 9);
        assert!(!t.contains("\"verify\""));
        assert!(!t.contains("\"simulate\""));
        assert!(!t.contains("\"kind\":\"tenants\""));
    }

    #[test]
    fn mix_names_round_trip() {
        for mix in [TraceMix::AdviseOnly, TraceMix::Mixed] {
            assert_eq!(TraceMix::parse(mix.name()), Ok(mix));
        }
        assert!(TraceMix::parse("bogus").is_err());
    }
}
