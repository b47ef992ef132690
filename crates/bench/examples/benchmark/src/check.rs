//! Output checks. Every operation the benchmark times is checked, and a
//! failed check counts in `failed`; the run is correct only when none
//! failed.

use cm5_serve::Json;

/// Running count of checked operations and failures.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests, cell simulations, report runs).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
}

impl Tally {
    /// Record one operation and whether its output checked out. The first
    /// few failures are described on stderr.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        self.check(outcome);
    }

    /// Record a check on output already counted as attempted, such as a
    /// whole pass's stream compared with the first pass's.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {why}");
            }
        }
    }
}

/// A service response must parse, echo the request id and carry `ok:true`.
pub fn response(line: &str, id: u64) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("response {id} does not parse: {e}"))?;
    match doc.get("id").and_then(Json::as_u64) {
        Some(got) if got == id => {}
        got => return Err(format!("response to request {id} carries id {got:?}")),
    }
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("response {id} is not ok: {line}"));
    }
    Ok(())
}

/// Later passes must reproduce the first pass's value exactly.
pub fn same_as_first<T: PartialEq + std::fmt::Debug>(
    first: &mut Option<T>,
    value: T,
    what: &str,
) -> Result<(), String> {
    match first {
        None => {
            *first = Some(value);
            Ok(())
        }
        Some(f) if *f == value => Ok(()),
        Some(f) => Err(format!("{what}: {value:?} differs from first pass {f:?}")),
    }
}

/// A value pinned at seed 1 must read exactly as recorded.
pub fn pinned<T: PartialEq + std::fmt::Debug>(value: T, pin: T, what: &str) -> Result<(), String> {
    if value == pin {
        Ok(())
    } else {
        Err(format!("{what}: {value:?}, pinned {pin:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"schema":"cm5-serve/1","id":7,"ok":true}"#;

    #[test]
    fn a_good_response_passes() {
        let mut t = Tally::default();
        t.op(response(GOOD, 7));
        assert_eq!((t.attempted, t.failed), (1, 0));
    }

    #[test]
    fn a_wrong_id_fails() {
        let mut t = Tally::default();
        t.op(response(GOOD, 8));
        assert_eq!((t.attempted, t.failed), (1, 1));
    }

    #[test]
    fn a_refused_request_fails() {
        let mut t = Tally::default();
        t.op(response(r#"{"id":7,"ok":false,"error":"x"}"#, 7));
        assert_eq!(t.failed, 1);
    }

    #[test]
    fn every_corrupted_byte_fails_a_check() {
        // Flip each byte in turn. Either the line stops parsing or
        // carrying the right id and ok:true, or the stream no longer
        // matches the first pass's.
        for i in 0..GOOD.len() {
            let mut bytes = GOOD.as_bytes().to_vec();
            bytes[i] ^= 0x01;
            let line = String::from_utf8_lossy(&bytes).into_owned();
            let mut t = Tally::default();
            let mut first = Some(crate::stats::fnv1a(GOOD.as_bytes()));
            t.op(response(&line, 7));
            t.check(same_as_first(
                &mut first,
                crate::stats::fnv1a(line.as_bytes()),
                "stream digest",
            ));
            assert!(t.failed >= 1, "corrupting byte {i} went unnoticed: {line}");
        }
    }

    #[test]
    fn a_perturbed_makespan_fails() {
        let mut t = Tally::default();
        let mut first = None;
        t.op(same_as_first(
            &mut first,
            (1_000_000u64, 32u64, 900u64),
            "pex512",
        ));
        t.op(same_as_first(
            &mut first,
            (1_000_001u64, 32u64, 900u64),
            "pex512",
        ));
        assert_eq!((t.attempted, t.failed), (2, 1));
        t.op(pinned(5u64, 6u64, "makespan"));
        assert_eq!(t.failed, 2);
    }
}
