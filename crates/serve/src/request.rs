//! Request codec: one JSON object per line.
//!
//! ```text
//! {"id":1,"query":{"kind":"exchange","n":32,"bytes":1024},"verify":true}
//! {"id":2,"query":{"kind":"irregular","n":32,"density":0.25,"bytes":256,"seed":7},"simulate":true}
//! {"id":3,"query":{"kind":"pattern","text":"0 4\n4 0\n"}}
//! {"id":4,"query":{"kind":"workload","name":"euler2k","n":32}}
//! {"id":5,"query":{"kind":"tenants","shared_n":64,"placement":"striped",
//!                  "tenants":[{"name":"a","n":16,"bytes":1024},{"name":"b","n":16,"bytes":1024}]}}
//! ```
//!
//! `parse_line ∘ render_line` is the identity (the codec proptests pin
//! this), and `parse_line` rejects malformed input with an error string,
//! never a panic. Unknown fields are rejected loudly — a typo like
//! `"simlate"` must not silently fall back to a default (same policy as
//! the CLI's `check_flags`).
//!
//! Integers ride in JSON numbers (f64, like every JavaScript client), so
//! an id, byte count, seed or node count must lie in `0..=2^53 − 1`
//! ([`Json::MAX_SAFE_INT`]); a larger one is refused with an error naming
//! that bound, never echoed with its low bits lost.

use cm5_obs::Json;
use cm5_sim::tenant::Placement;

/// Upper bound on node counts a request may ask for. The simulator scales
/// past this, but a *service* must bound per-request work: 16384 nodes is
/// the largest machine the perf suite exercises.
pub const MAX_NODES: usize = 16_384;

/// One tenant inside a [`Query::Tenants`] request: `n` nodes running a
/// complete exchange of `bytes` per pair, scheduled by the advisor's pick.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantQuery {
    /// Tenant display name.
    pub name: String,
    /// Tenant partition size.
    pub n: usize,
    /// Bytes per ordered pair in the tenant's exchange.
    pub bytes: u64,
}

/// What a client asks the service about.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// All-to-all personalized exchange.
    Exchange {
        /// Number of nodes.
        n: usize,
        /// Bytes per ordered pair.
        bytes: u64,
    },
    /// One-to-all broadcast.
    Broadcast {
        /// Number of nodes.
        n: usize,
        /// Bytes broadcast.
        bytes: u64,
    },
    /// Synthetic seeded-random irregular pattern (Table 11's generator).
    Irregular {
        /// Number of nodes.
        n: usize,
        /// Fill probability per ordered pair.
        density: f64,
        /// Mean entry size in bytes.
        bytes: u64,
        /// Generator seed.
        seed: u64,
    },
    /// Inline/captured irregular matrix, `Pattern::parse_text` format.
    Pattern {
        /// The matrix text (rows of byte counts).
        text: String,
    },
    /// A named real-application pattern (cg, euler545, euler2k, euler3k,
    /// euler9k).
    Workload {
        /// Workload name.
        name: String,
        /// Number of nodes it is partitioned over.
        n: usize,
    },
    /// Concurrent tenant exchanges sharing one fat tree.
    Tenants {
        /// Shared tree size.
        shared_n: usize,
        /// Placement policy.
        placement: Placement,
        /// The tenants.
        tenants: Vec<TenantQuery>,
    },
}

impl Query {
    /// The wire-format kind string (`"exchange"`, `"tenants"`, …).
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Exchange { .. } => "exchange",
            Query::Broadcast { .. } => "broadcast",
            Query::Irregular { .. } => "irregular",
            Query::Pattern { .. } => "pattern",
            Query::Workload { .. } => "workload",
            Query::Tenants { .. } => "tenants",
        }
    }
}

/// One decoded request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The question.
    pub query: Query,
    /// Statically verify the recommended schedule.
    pub verify: bool,
    /// Simulate the recommended schedule and report measured timings.
    pub simulate: bool,
}

fn check_fields(obj: &Json, allowed: &[&str], what: &str) -> Result<(), String> {
    if let Json::Obj(fields) = obj {
        for (k, _) in fields {
            if !allowed.contains(&k.as_str()) {
                return Err(format!(
                    "unknown {what} field '{k}' (expected one of: {})",
                    allowed.join(", ")
                ));
            }
        }
        Ok(())
    } else {
        Err(format!("{what} must be an object"))
    }
}

/// The range every request integer must lie in, for messages.
fn int_range() -> String {
    format!("0..={}", Json::MAX_SAFE_INT)
}

fn field_usize(obj: &Json, key: &str, what: &str) -> Result<usize, String> {
    obj.get(key)
        .and_then(Json::as_usize)
        .ok_or_else(|| format!("{what} needs an integer '{key}' in {}", int_range()))
}

fn field_u64_or(obj: &Json, key: &str, default: u64) -> Result<u64, String> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| format!("'{key}' must be an integer in {}", int_range())),
    }
}

/// Node counts must be CM-5-partition-shaped: powers of two within the
/// service bound. The regular exchange generators assert power-of-two
/// inputs, and a service must refuse, not panic. `cm5` applies the same
/// rule to the `-n` of a power-of-two schedule.
pub fn check_n(n: usize) -> Result<usize, String> {
    if !(2..=MAX_NODES).contains(&n) || !n.is_power_of_two() {
        return Err(format!(
            "n must be a power of two in 2..={MAX_NODES}, got {n}"
        ));
    }
    Ok(n)
}

impl Request {
    /// Decode one request line. Never panics: malformed input returns a
    /// descriptive error.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        let doc = Json::parse(line)?;
        check_fields(&doc, &["id", "query", "verify", "simulate"], "request")?;
        let id = doc
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("request needs an integer 'id' in {}", int_range()))?;
        let verify = match doc.get("verify") {
            None => false,
            Some(v) => v.as_bool().ok_or("'verify' must be a boolean")?,
        };
        let simulate = match doc.get("simulate") {
            None => false,
            Some(v) => v.as_bool().ok_or("'simulate' must be a boolean")?,
        };
        let q = doc.get("query").ok_or("request needs a 'query' object")?;
        let kind = q
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("query needs a string 'kind'")?;
        let query = match kind {
            "exchange" | "broadcast" => {
                check_fields(q, &["kind", "n", "bytes"], "query")?;
                let n = check_n(field_usize(q, "n", "query")?)?;
                let bytes = field_u64_or(q, "bytes", 1024)?;
                if kind == "exchange" {
                    Query::Exchange { n, bytes }
                } else {
                    Query::Broadcast { n, bytes }
                }
            }
            "irregular" => {
                check_fields(q, &["kind", "n", "density", "bytes", "seed"], "query")?;
                let n = check_n(field_usize(q, "n", "query")?)?;
                let density = match q.get("density") {
                    None => 0.25,
                    Some(v) => v.as_f64().ok_or("'density' must be a number")?,
                };
                if !(0.0..=1.0).contains(&density) {
                    return Err(format!("density must be in 0..=1, got {density}"));
                }
                Query::Irregular {
                    n,
                    density,
                    bytes: field_u64_or(q, "bytes", 256)?,
                    seed: field_u64_or(q, "seed", 0x7AB1E)?,
                }
            }
            "pattern" => {
                check_fields(q, &["kind", "text"], "query")?;
                let text = q
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("pattern query needs a string 'text'")?;
                Query::Pattern {
                    text: text.to_string(),
                }
            }
            "workload" => {
                check_fields(q, &["kind", "name", "n"], "query")?;
                let name = q
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("workload query needs a string 'name'")?;
                Query::Workload {
                    name: name.to_string(),
                    n: check_n(field_usize(q, "n", "query")?)?,
                }
            }
            "tenants" => {
                check_fields(q, &["kind", "shared_n", "placement", "tenants"], "query")?;
                let shared_n = check_n(field_usize(q, "shared_n", "query")?)?;
                let placement = match q.get("placement") {
                    None => Placement::Subtree,
                    Some(v) => {
                        let s = v.as_str().ok_or("'placement' must be a string")?;
                        Placement::parse(s)
                            .ok_or_else(|| format!("unknown placement '{s}' (subtree | striped)"))?
                    }
                };
                let items = q
                    .get("tenants")
                    .and_then(Json::as_arr)
                    .ok_or("tenants query needs a 'tenants' array")?;
                if items.is_empty() {
                    return Err("tenants array is empty".into());
                }
                let mut tenants = Vec::with_capacity(items.len());
                for t in items {
                    check_fields(t, &["name", "n", "bytes"], "tenant")?;
                    let name = t
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("tenant needs a string 'name'")?;
                    tenants.push(TenantQuery {
                        name: name.to_string(),
                        n: check_n(field_usize(t, "n", "tenant")?)?,
                        bytes: field_u64_or(t, "bytes", 1024)?,
                    });
                }
                Query::Tenants {
                    shared_n,
                    placement,
                    tenants,
                }
            }
            other => {
                return Err(format!(
                    "unknown query kind '{other}' \
                     (exchange | broadcast | irregular | pattern | workload | tenants)"
                ))
            }
        };
        Ok(Request {
            id,
            query,
            verify,
            simulate,
        })
    }

    /// Encode as one request line (no trailing newline). Inverse of
    /// [`Request::parse_line`].
    pub fn render_line(&self) -> String {
        let query = match &self.query {
            Query::Exchange { n, bytes } => Json::obj([
                ("kind", "exchange".into()),
                ("n", (*n).into()),
                ("bytes", (*bytes).into()),
            ]),
            Query::Broadcast { n, bytes } => Json::obj([
                ("kind", "broadcast".into()),
                ("n", (*n).into()),
                ("bytes", (*bytes).into()),
            ]),
            Query::Irregular {
                n,
                density,
                bytes,
                seed,
            } => Json::obj([
                ("kind", "irregular".into()),
                ("n", (*n).into()),
                ("density", (*density).into()),
                ("bytes", (*bytes).into()),
                ("seed", (*seed).into()),
            ]),
            Query::Pattern { text } => {
                Json::obj([("kind", "pattern".into()), ("text", text.as_str().into())])
            }
            Query::Workload { name, n } => Json::obj([
                ("kind", "workload".into()),
                ("name", name.as_str().into()),
                ("n", (*n).into()),
            ]),
            Query::Tenants {
                shared_n,
                placement,
                tenants,
            } => {
                let tenants = tenants.iter().map(|t| {
                    Json::obj([
                        ("name", t.name.as_str().into()),
                        ("n", t.n.into()),
                        ("bytes", t.bytes.into()),
                    ])
                });
                Json::obj([
                    ("kind", "tenants".into()),
                    ("shared_n", (*shared_n).into()),
                    ("placement", placement.name().into()),
                    ("tenants", Json::Arr(tenants.collect())),
                ])
            }
        };
        let mut fields = vec![("id", self.id.into()), ("query", query)];
        if self.verify {
            fields.push(("verify", true.into()));
        }
        if self.simulate {
            fields.push(("simulate", true.into()));
        }
        Json::obj(fields).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_render_round_trips() {
        let reqs = vec![
            Request {
                id: 1,
                query: Query::Exchange { n: 32, bytes: 1024 },
                verify: true,
                simulate: false,
            },
            Request {
                id: 2,
                query: Query::Irregular {
                    n: 16,
                    density: 0.25,
                    bytes: 256,
                    seed: 7,
                },
                verify: false,
                simulate: true,
            },
            Request {
                id: 3,
                query: Query::Pattern {
                    text: "0 4\n4 0\n".into(),
                },
                verify: false,
                simulate: false,
            },
            Request {
                id: 4,
                query: Query::Tenants {
                    shared_n: 64,
                    placement: Placement::Striped,
                    tenants: vec![
                        TenantQuery {
                            name: "a".into(),
                            n: 16,
                            bytes: 1024,
                        },
                        TenantQuery {
                            name: "b".into(),
                            n: 16,
                            bytes: 1024,
                        },
                    ],
                },
                verify: false,
                simulate: true,
            },
        ];
        for r in reqs {
            let line = r.render_line();
            assert_eq!(Request::parse_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"id":"x","query":{"kind":"exchange","n":4}}"#,
            r#"{"id":1}"#,
            r#"{"id":1,"query":{"kind":"bogus"}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":1}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":99999999}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":12}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":8,"byte":1}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":8},"simlate":true}"#,
            r#"{"id":1,"query":{"kind":"irregular","n":8,"density":1.5}}"#,
            r#"{"id":1,"query":{"kind":"irregular","n":8,"density":"NaN"}}"#,
            r#"{"id":1,"query":{"kind":"tenants","shared_n":64,"tenants":[]}}"#,
            r#"{"id":1,"query":{"kind":"tenants","shared_n":64,"placement":"x","tenants":[{"name":"a","n":4}]}}"#,
            r#"{"id":1,"query":{"kind":"tenants","shared_n":64,"placement":1,"tenants":[{"name":"a","n":4}]}}"#,
        ] {
            assert!(Request::parse_line(line).is_err(), "{line:?} should fail");
        }
    }

    #[test]
    fn integers_past_2_pow_53_are_refused_with_the_bound() {
        let bound = "0..=9007199254740991";
        for line in [
            r#"{"id":18446744073709551615,"query":{"kind":"exchange","n":4}}"#,
            r#"{"id":1,"query":{"kind":"exchange","n":4,"bytes":9007199254740993}}"#,
        ] {
            let err = Request::parse_line(line).unwrap_err();
            assert!(err.contains(bound), "{line}: {err}");
        }
        let max = Json::MAX_SAFE_INT;
        let line = format!(r#"{{"id":{max},"query":{{"kind":"exchange","n":4,"bytes":{max}}}}}"#);
        let req = Request::parse_line(&line).unwrap();
        assert_eq!(req.id, max);
        assert_eq!(req.query, Query::Exchange { n: 4, bytes: max });
    }
}
