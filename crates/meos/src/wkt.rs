//! MobilityDB-style text I/O for temporal literals.
//!
//! Formats follow the MEOS conventions:
//!
//! - instant: `12.5@2025-06-22T10:00:00Z`
//! - sequence: `[12.5@t1, 13@t2)` with `[`/`(` and `]`/`)` bound flags,
//!   optionally prefixed `Interp=Step;` when deviating from the type's
//!   default interpolation
//! - discrete sequence: `{12.5@t1, 13@t2}`
//! - sequence set: `{[12.5@t1, 13@t2], [14@t3, 15@t4]}`
//! - temporal points use WKT values: `POINT(4.35 50.85)@t1`

use crate::error::{MeosError, Result};
use crate::geo::Point;
use crate::temporal::{Interp, TInstant, TSequence, TSequenceSet, TempValue, Temporal};
use crate::time::TimestampTz;
use std::fmt;

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

fn fmt_instants<V: TempValue + fmt::Display>(
    f: &mut fmt::Formatter<'_>,
    instants: &[TInstant<V>],
) -> fmt::Result {
    for (i, inst) in instants.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "{inst}")?;
    }
    Ok(())
}

impl<V: TempValue + fmt::Display> fmt::Display for TSequence<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.interp() {
            Interp::Discrete => {
                write!(f, "{{")?;
                fmt_instants(f, self.instants())?;
                write!(f, "}}")
            }
            interp => {
                if interp != V::default_interp() {
                    write!(f, "Interp={interp};")?;
                }
                write!(f, "{}", if self.lower_inc() { '[' } else { '(' })?;
                fmt_instants(f, self.instants())?;
                write!(f, "{}", if self.upper_inc() { ']' } else { ')' })
            }
        }
    }
}

impl<V: TempValue + fmt::Display> fmt::Display for TSequenceSet<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.interp() != V::default_interp() && self.interp() != Interp::Discrete {
            write!(f, "Interp={};", self.interp())?;
        }
        write!(f, "{{")?;
        for (i, s) in self.sequences().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", if s.lower_inc() { '[' } else { '(' })?;
            fmt_instants(f, s.instants())?;
            write!(f, "{}", if s.upper_inc() { ']' } else { ')' })?;
        }
        write!(f, "}}")
    }
}

impl<V: TempValue + fmt::Display> fmt::Display for Temporal<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Temporal::Instant(i) => write!(f, "{i}"),
            Temporal::Sequence(s) => write!(f, "{s}"),
            Temporal::SequenceSet(ss) => write!(f, "{ss}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parses a `POINT(x y)` literal.
pub fn parse_point(s: &str) -> Result<Point> {
    let s = s.trim();
    let lower = s.to_ascii_lowercase();
    let rest = lower
        .strip_prefix("point")
        .ok_or_else(|| MeosError::Parse(format!("expected POINT(...): '{s}'")))?
        .trim_start();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
        .ok_or_else(|| MeosError::Parse(format!("unbalanced POINT parens: '{s}'")))?;
    let mut it = inner.split_whitespace();
    let x: f64 = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| MeosError::Parse(format!("bad POINT x: '{s}'")))?;
    let y: f64 = it
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| MeosError::Parse(format!("bad POINT y: '{s}'")))?;
    if it.next().is_some() {
        return Err(MeosError::Parse(format!("trailing POINT coords: '{s}'")));
    }
    Ok(Point::new(x, y))
}

/// Splits `s` on commas at parenthesis depth 0.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' => depth += 1,
            ')' | ']' => depth -= 1,
            ',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = s[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

fn parse_instant<V: TempValue>(
    s: &str,
    parse_value: &dyn Fn(&str) -> Result<V>,
) -> Result<TInstant<V>> {
    let at = s
        .rfind('@')
        .ok_or_else(|| MeosError::Parse(format!("instant missing '@': '{s}'")))?;
    let value = parse_value(s[..at].trim())?;
    let t = TimestampTz::parse(&s[at + 1..])?;
    Ok(TInstant::new(value, t))
}

fn parse_sequence_body<V: TempValue>(
    s: &str,
    parse_value: &dyn Fn(&str) -> Result<V>,
    interp: Interp,
) -> Result<TSequence<V>> {
    let mut chars = s.chars();
    let open = chars
        .next()
        .ok_or_else(|| MeosError::Parse("empty sequence literal".into()))?;
    let close = s
        .chars()
        .last()
        .ok_or_else(|| MeosError::Parse("empty sequence literal".into()))?;
    let lower_inc = match open {
        '[' => true,
        '(' => false,
        _ => {
            return Err(MeosError::Parse(format!(
                "sequence must start with [ or (: '{s}'"
            )))
        }
    };
    let upper_inc = match close {
        ']' => true,
        ')' => false,
        _ => {
            return Err(MeosError::Parse(format!(
                "sequence must end with ] or ): '{s}'"
            )))
        }
    };
    let inner = &s[1..s.len() - 1];
    let instants = split_top_level(inner)
        .into_iter()
        .map(|tok| parse_instant(tok, parse_value))
        .collect::<Result<Vec<_>>>()?;
    TSequence::new(instants, lower_inc, upper_inc, interp)
}

/// Parses any temporal literal with a caller-provided base-value parser.
pub fn parse_temporal<V: TempValue>(
    s: &str,
    parse_value: &dyn Fn(&str) -> Result<V>,
) -> Result<Temporal<V>> {
    let mut s = s.trim();
    // Optional interpolation prefix.
    let mut interp = V::default_interp();
    if let Some(rest) = s.strip_prefix("Interp=") {
        let semi = rest
            .find(';')
            .ok_or_else(|| MeosError::Parse("Interp= prefix missing ';'".into()))?;
        interp = match &rest[..semi] {
            "Step" => Interp::Step,
            "Linear" => Interp::Linear,
            "Discrete" => Interp::Discrete,
            other => return Err(MeosError::Parse(format!("unknown interpolation '{other}'"))),
        };
        s = rest[semi + 1..].trim();
    }
    match s.chars().next() {
        Some('[') | Some('(') => Ok(Temporal::Sequence(parse_sequence_body(
            s,
            parse_value,
            interp,
        )?)),
        Some('{') => {
            let inner = s
                .strip_prefix('{')
                .and_then(|r| r.strip_suffix('}'))
                .ok_or_else(|| MeosError::Parse(format!("unbalanced braces: '{s}'")))?
                .trim();
            match inner.chars().next() {
                Some('[') | Some('(') => {
                    let seqs = split_top_level(inner)
                        .into_iter()
                        .map(|tok| parse_sequence_body(tok, parse_value, interp))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(Temporal::SequenceSet(TSequenceSet::new(seqs)?))
                }
                Some(_) => {
                    let instants = split_top_level(inner)
                        .into_iter()
                        .map(|tok| parse_instant(tok, parse_value))
                        .collect::<Result<Vec<_>>>()?;
                    Ok(Temporal::Sequence(TSequence::discrete(instants)?))
                }
                None => Err(MeosError::Parse("empty braces".into())),
            }
        }
        Some(_) => Ok(Temporal::Instant(parse_instant(s, parse_value)?)),
        None => Err(MeosError::Parse("empty temporal literal".into())),
    }
}

/// Parses a temporal float literal.
pub fn parse_tfloat(s: &str) -> Result<Temporal<f64>> {
    parse_temporal(s, &|v| {
        v.parse::<f64>()
            .map_err(|_| MeosError::Parse(format!("bad float '{v}'")))
    })
}

/// Parses a temporal geometry-point literal.
pub fn parse_tgeompoint(s: &str) -> Result<Temporal<Point>> {
    parse_temporal(s, &parse_point)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::TimeDelta;

    fn t(sec: i64) -> TimestampTz {
        TimestampTz::from_unix_secs(sec)
    }

    #[test]
    fn point_parse() {
        let p = parse_point("POINT(4.35 50.85)").unwrap();
        assert_eq!((p.x, p.y), (4.35, 50.85));
        assert!(parse_point("POIN(1 2)").is_err());
        assert!(parse_point("POINT(1)").is_err());
        assert!(parse_point("POINT(1 2 3)").is_err());
        // Display round-trip.
        assert_eq!(parse_point(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn instant_round_trip() {
        let i: Temporal<f64> = parse_tfloat("12.5@2025-06-22T10:00:00Z").unwrap();
        assert_eq!(i.to_string(), "12.5@2025-06-22T10:00:00Z");
        assert_eq!(i.start_value(), 12.5);
    }

    #[test]
    fn sequence_round_trip() {
        let lit = "[1.5@2025-06-22T10:00:00Z, 2.5@2025-06-22T10:01:00Z)";
        let s = parse_tfloat(lit).unwrap();
        assert_eq!(s.to_string(), lit);
        match &s {
            Temporal::Sequence(seq) => {
                assert_eq!(seq.interp(), Interp::Linear);
                assert!(!seq.upper_inc());
            }
            other => panic!("expected sequence, got {other}"),
        }
    }

    #[test]
    fn step_prefix_round_trip() {
        let lit = "Interp=Step;[1@2025-06-22T10:00:00Z, 2@2025-06-22T10:01:00Z]";
        let s = parse_tfloat(lit).unwrap();
        assert_eq!(s.to_string(), lit);
        match &s {
            Temporal::Sequence(seq) => assert_eq!(seq.interp(), Interp::Step),
            other => panic!("expected sequence, got {other}"),
        }
    }

    #[test]
    fn discrete_round_trip() {
        let lit = "{1@2025-06-22T10:00:00Z, 2@2025-06-22T10:01:00Z}";
        let s = parse_tfloat(lit).unwrap();
        assert_eq!(s.to_string(), lit);
        match &s {
            Temporal::Sequence(seq) => {
                assert_eq!(seq.interp(), Interp::Discrete)
            }
            other => panic!("expected sequence, got {other}"),
        }
    }

    #[test]
    fn sequence_set_round_trip() {
        let lit = "{[1@2025-06-22T10:00:00Z, 2@2025-06-22T10:01:00Z], \
                   [5@2025-06-22T11:00:00Z, 6@2025-06-22T11:01:00Z]}";
        let s = parse_tfloat(lit).unwrap();
        match &s {
            Temporal::SequenceSet(ss) => assert_eq!(ss.num_sequences(), 2),
            other => panic!("expected seqset, got {other}"),
        }
        let printed = s.to_string();
        let reparsed = parse_tfloat(&printed).unwrap();
        assert_eq!(reparsed, s);
    }

    #[test]
    fn tpoint_round_trip() {
        let lit = "[POINT(4.35 50.85)@2025-06-22T10:00:00Z, \
                   POINT(4.4 50.9)@2025-06-22T10:10:00Z]";
        let s = parse_tgeompoint(lit).unwrap();
        assert_eq!(s.num_instants(), 2);
        assert_eq!(s.start_value(), Point::new(4.35, 50.85));
        let reparsed = parse_tgeompoint(&s.to_string()).unwrap();
        assert_eq!(reparsed, s);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_tfloat("").is_err());
        assert!(parse_tfloat("[1@bad-ts]").is_err());
        assert!(parse_tfloat("[1@2025-06-22T10:00:00Z").is_err());
        assert!(parse_tfloat("Interp=Wavy;[1@2025-06-22T10:00:00Z]").is_err());
        assert!(parse_tfloat("1 2 3").is_err());
    }

    #[test]
    fn parsed_values_are_usable() {
        let s = parse_tfloat("[0@2025-06-22T10:00:00Z, 10@2025-06-22T10:00:10Z]").unwrap();
        let mid = t(s.start_timestamp().unix_secs() + 5);
        assert_eq!(s.value_at(mid), Some(5.0));
        assert_eq!(s.duration(), TimeDelta::from_secs(10));
    }
}
