//! Runtime SQL values with DB2-style coercion, comparison and arithmetic.

use crate::decimal::Decimal;
use crate::error::{Error, Result};
use crate::types::DataType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single SQL value. `Null` is typeless, like an untyped SQL NULL.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Boolean(bool),
    SmallInt(i16),
    Int(i32),
    BigInt(i64),
    Double(f64),
    Decimal(Decimal),
    /// Both VARCHAR and CHAR payloads (CHAR is blank-padded at insert time).
    Varchar(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since the epoch.
    Timestamp(i64),
}

impl Value {
    /// True if this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The natural data type of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        Some(match self {
            Value::Null => return None,
            Value::Boolean(_) => DataType::Boolean,
            Value::SmallInt(_) => DataType::SmallInt,
            Value::Int(_) => DataType::Integer,
            Value::BigInt(_) => DataType::BigInt,
            Value::Double(_) => DataType::Double,
            Value::Decimal(d) => DataType::Decimal(31, d.scale()),
            Value::Varchar(s) => DataType::Varchar(s.len().min(u16::MAX as usize) as u16),
            Value::Date(_) => DataType::Date,
            Value::Timestamp(_) => DataType::Timestamp,
        })
    }

    /// Integer view of any integer-family value.
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::SmallInt(v) => Ok(*v as i64),
            Value::Int(v) => Ok(*v as i64),
            Value::BigInt(v) => Ok(*v),
            Value::Boolean(b) => Ok(*b as i64),
            Value::Date(d) => Ok(*d as i64),
            Value::Timestamp(t) => Ok(*t),
            other => Err(Error::TypeMismatch(format!("{other} is not an integer value"))),
        }
    }

    /// Floating view of any numeric value.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::Double(v) => Ok(*v),
            Value::Decimal(d) => Ok(d.to_f64()),
            other => other
                .as_i64()
                .map(|v| v as f64)
                .map_err(|_| Error::TypeMismatch(format!("{other} is not numeric"))),
        }
    }

    /// String view of character values.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Varchar(s) => Ok(s),
            other => Err(Error::TypeMismatch(format!("{other} is not a character value"))),
        }
    }

    /// Size in bytes this value occupies when shipped over the
    /// host↔accelerator link (variable-length encoding for strings; a null
    /// costs one marker byte). Drives the data-movement metering that the
    /// paper's headline claim is about.
    pub fn wire_size(&self) -> usize {
        1 + match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            Value::SmallInt(_) => 2,
            Value::Int(_) | Value::Date(_) => 4,
            Value::BigInt(_) | Value::Double(_) | Value::Timestamp(_) => 8,
            Value::Decimal(_) => 17,
            Value::Varchar(s) => 2 + s.len(),
        }
    }

    /// Cast this value to `target`, applying DB2 semantics: numeric
    /// narrowing truncates toward zero, CHAR pads/truncates to its length,
    /// VARCHAR enforces its bound, strings parse to numbers/dates.
    pub fn cast(&self, target: DataType) -> Result<Value> {
        use DataType as T;
        if self.is_null() {
            return Ok(Value::Null);
        }
        let fail = || Error::TypeMismatch(format!("cannot cast {self} to {target}"));
        Ok(match target {
            T::Boolean => Value::Boolean(match self {
                Value::Boolean(b) => *b,
                _ => self.as_i64().map_err(|_| fail())? != 0,
            }),
            T::SmallInt => Value::SmallInt(self.cast_int()? as i16),
            T::Integer => Value::Int(self.cast_int()? as i32),
            T::BigInt => Value::BigInt(self.cast_int()?),
            T::Double => match self {
                Value::Varchar(s) => Value::Double(
                    s.trim().parse::<f64>().map_err(|_| fail())?,
                ),
                _ => Value::Double(self.as_f64()?),
            },
            T::Decimal(_, s) => match self {
                Value::Decimal(d) => Value::Decimal(d.rescale(s)?),
                Value::Double(v) => {
                    Value::Decimal(Decimal::parse(&format!("{:.*}", s as usize, v))?)
                }
                Value::Varchar(t) => Value::Decimal(Decimal::parse(t)?.rescale(s)?),
                _ => Value::Decimal(Decimal::from_int(self.as_i64()?).rescale(s)?),
            },
            T::Varchar(n) => {
                let s = self.render();
                if s.len() > n as usize {
                    return Err(Error::Constraint(format!(
                        "value '{s}' too long for VARCHAR({n})"
                    )));
                }
                Value::Varchar(s)
            }
            T::Char(n) => {
                let mut s = self.render();
                if s.len() > n as usize {
                    return Err(Error::Constraint(format!("value '{s}' too long for CHAR({n})")));
                }
                while s.len() < n as usize {
                    s.push(' ');
                }
                Value::Varchar(s)
            }
            T::Date => match self {
                Value::Date(_) => self.clone(),
                Value::Varchar(s) => Value::Date(parse_date(s)?),
                Value::Timestamp(t) => Value::Date(t.div_euclid(86_400_000_000) as i32),
                _ => return Err(fail()),
            },
            T::Timestamp => match self {
                Value::Timestamp(_) => self.clone(),
                Value::Date(d) => Value::Timestamp(*d as i64 * 86_400_000_000),
                Value::Varchar(s) => Value::Timestamp(parse_timestamp(s)?),
                _ => return Err(fail()),
            },
        })
    }

    fn cast_int(&self) -> Result<i64> {
        match self {
            Value::Double(v) => Ok(v.trunc() as i64),
            Value::Decimal(d) => Ok(d.to_i64_trunc()),
            Value::Varchar(s) => s
                .trim()
                .parse::<i64>()
                .map_err(|_| Error::TypeMismatch(format!("cannot cast '{s}' to integer"))),
            _ => self.as_i64(),
        }
    }

    /// Human/CSV representation without quotes (as used by CAST to string).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".into(),
            Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.into(),
            Value::SmallInt(v) => v.to_string(),
            Value::Int(v) => v.to_string(),
            Value::BigInt(v) => v.to_string(),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{v:.1}")
                } else {
                    format!("{v}")
                }
            }
            Value::Decimal(d) => d.to_string(),
            Value::Varchar(s) => s.clone(),
            Value::Date(d) => render_date(*d),
            Value::Timestamp(t) => render_timestamp(*t),
        }
    }

    /// SQL comparison. Returns `None` if either side is NULL (three-valued
    /// logic) and an error for incomparable types.
    pub fn compare(&self, other: &Value) -> Result<Option<Ordering>> {
        if self.is_null() || other.is_null() {
            return Ok(None);
        }
        Ok(Some(self.cmp_non_null(other)?))
    }

    fn cmp_non_null(&self, other: &Value) -> Result<Ordering> {
        use Value::*;
        let err = || Error::TypeMismatch(format!("cannot compare {self} with {other}"));
        match (self, other) {
            (Varchar(a), Varchar(b)) => Ok(trim_end(a).cmp(trim_end(b))),
            (Boolean(a), Boolean(b)) => Ok(a.cmp(b)),
            (Date(a), Date(b)) => Ok(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Ok(a.cmp(b)),
            (Date(_), Timestamp(_)) | (Timestamp(_), Date(_)) => {
                let a = self.cast(DataType::Timestamp)?.as_i64()?;
                let b = other.cast(DataType::Timestamp)?.as_i64()?;
                Ok(a.cmp(&b))
            }
            (Double(_), x) | (x, Double(_)) if x.data_type().map(|t| t.is_numeric()).unwrap_or(false) => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b).ok_or_else(err)
            }
            (Decimal(_), x) | (x, Decimal(_))
                if x.data_type().map(|t| t.is_numeric()).unwrap_or(false) =>
            {
                let a = self.cast(DataType::Decimal(31, 12))?;
                let b = other.cast(DataType::Decimal(31, 12))?;
                match (a, b) {
                    (Decimal(a), Decimal(b)) => Ok(a.compare(&b)),
                    _ => Err(err()),
                }
            }
            _ if self.as_i64().is_ok() && other.as_i64().is_ok() => {
                // Only integer-family pairs reach here; Date/Timestamp pairs
                // were handled above and mixed date/number errors below.
                if self.data_type().map(|t| t.is_integer()).unwrap_or(false)
                    && other.data_type().map(|t| t.is_integer()).unwrap_or(false)
                {
                    Ok(self.as_i64()?.cmp(&other.as_i64()?))
                } else {
                    Err(err())
                }
            }
            _ => Err(err()),
        }
    }

    /// Total order used for sorting: NULLs sort high (DB2 default for
    /// ascending order), incomparable pairs fall back to type rank so the
    /// order stays total.
    pub fn cmp_total(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => return Ordering::Equal,
            (true, false) => return Ordering::Greater,
            (false, true) => return Ordering::Less,
            _ => {}
        }
        match self.cmp_non_null(other) {
            Ok(o) => o,
            Err(_) => self.type_rank().cmp(&other.type_rank()),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Boolean(_) => 1,
            Value::SmallInt(_) | Value::Int(_) | Value::BigInt(_) | Value::Double(_) | Value::Decimal(_) => 2,
            Value::Varchar(_) => 3,
            Value::Date(_) => 4,
            Value::Timestamp(_) => 5,
        }
    }

    /// Equality under SQL `GROUP BY` / `DISTINCT` semantics: NULL groups
    /// with NULL, numerics compare across representations.
    pub fn group_eq(&self, other: &Value) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

fn trim_end(s: &str) -> &str {
    // CHAR blank padding must not affect comparisons (DB2 padded-comparison
    // semantics).
    s.trim_end_matches(' ')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Varchar(s) => write!(f, "'{s}'"),
            other => write!(f, "{}", other.render()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_total(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash must agree with `group_eq`: all numeric representations of
        // the same quantity hash identically (via a canonical f64 image for
        // doubles, i128 for exact types).
        match self {
            Value::Null => state.write_u8(0),
            Value::Boolean(b) => {
                state.write_u8(1);
                state.write_u8(*b as u8);
            }
            Value::SmallInt(v) => hash_numeric(*v as f64, state),
            Value::Int(v) => hash_numeric(*v as f64, state),
            Value::BigInt(v) => hash_numeric(*v as f64, state),
            Value::Double(v) => hash_numeric(*v, state),
            Value::Decimal(d) => hash_numeric(d.to_f64(), state),
            Value::Varchar(s) => {
                state.write_u8(3);
                trim_end(s).hash(state);
            }
            Value::Date(d) => {
                state.write_u8(4);
                state.write_i64(*d as i64 * 86_400_000_000);
            }
            Value::Timestamp(t) => {
                state.write_u8(4);
                state.write_i64(*t);
            }
        }
    }
}

fn hash_numeric<H: Hasher>(v: f64, state: &mut H) {
    state.write_u8(2);
    let v = if v == 0.0 { 0.0 } else { v }; // normalize -0.0
    state.write_u64(v.to_bits());
}

/// Parse `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Result<i32> {
    let err = || Error::TypeMismatch(format!("invalid DATE literal '{s}'"));
    let parts: Vec<&str> = s.trim().split('-').collect();
    if parts.len() != 3 {
        return Err(err());
    }
    let y: i64 = parts[0].parse().map_err(|_| err())?;
    let m: u32 = parts[1].parse().map_err(|_| err())?;
    let d: u32 = parts[2].parse().map_err(|_| err())?;
    days_from_civil(y, m, d).ok_or_else(err)
}

/// Parse `YYYY-MM-DD[ HH:MM:SS[.ffffff]]` into epoch microseconds.
pub fn parse_timestamp(s: &str) -> Result<i64> {
    let s = s.trim();
    let err = || Error::TypeMismatch(format!("invalid TIMESTAMP literal '{s}'"));
    let (date_part, time_part) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let days = parse_date(date_part)? as i64;
    let mut micros = days * 86_400_000_000;
    if let Some(t) = time_part {
        let (hms, frac) = match t.split_once('.') {
            Some((h, f)) => (h, Some(f)),
            None => (t, None),
        };
        let bits: Vec<&str> = hms.split(':').collect();
        if bits.len() != 3 {
            return Err(err());
        }
        let h: i64 = bits[0].parse().map_err(|_| err())?;
        let mi: i64 = bits[1].parse().map_err(|_| err())?;
        let se: i64 = bits[2].parse().map_err(|_| err())?;
        if h > 23 || mi > 59 || se > 59 {
            return Err(err());
        }
        micros += ((h * 60 + mi) * 60 + se) * 1_000_000;
        if let Some(f) = frac {
            if f.is_empty() || f.len() > 6 || !f.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err());
            }
            let mut v: i64 = f.parse().map_err(|_| err())?;
            for _ in f.len()..6 {
                v *= 10;
            }
            micros += v;
        }
    }
    Ok(micros)
}

/// Howard Hinnant's `days_from_civil` — days since 1970-01-01 for a
/// proleptic-Gregorian date. Returns `None` for invalid month/day.
fn days_from_civil(y: i64, m: u32, d: u32) -> Option<i32> {
    if !(1..=12).contains(&m) || d < 1 || d > days_in_month(y, m) {
        return None;
    }
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let m = m as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    Some((era * 146_097 + doe - 719_468) as i32)
}

fn days_in_month(y: i64, m: u32) -> u32 {
    match m {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if (y % 4 == 0 && y % 100 != 0) || y % 400 == 0 {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

/// Inverse of `days_from_civil`: render days-since-epoch as `YYYY-MM-DD`.
pub fn render_date(days: i32) -> String {
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Days since the epoch as a proleptic Gregorian `(year, month, day)`.
pub fn civil_from_days(days: i32) -> (i32, i32, i32) {
    let z = days as i64 + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    // An `i32` day count spans under six million years.
    (y as i32, m as i32, d as i32)
}

/// Render epoch microseconds as `YYYY-MM-DD HH:MM:SS.ffffff`.
pub fn render_timestamp(micros: i64) -> String {
    let days = micros.div_euclid(86_400_000_000);
    let rem = micros.rem_euclid(86_400_000_000);
    let secs = rem / 1_000_000;
    let frac = rem % 1_000_000;
    format!(
        "{} {:02}:{:02}:{:02}.{:06}",
        render_date(days as i32),
        secs / 3600,
        (secs / 60) % 60,
        secs % 60,
        frac
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash(&mut s);
        s.finish()
    }

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)).unwrap(), None);
        assert_eq!(Value::Int(1).compare(&Value::Null).unwrap(), None);
    }

    #[test]
    fn cross_width_integer_compare() {
        let o = Value::SmallInt(5).compare(&Value::BigInt(5)).unwrap();
        assert_eq!(o, Some(Ordering::Equal));
        let o = Value::Int(-2).compare(&Value::BigInt(7)).unwrap();
        assert_eq!(o, Some(Ordering::Less));
    }

    #[test]
    fn numeric_double_decimal_compare() {
        let d = Value::Decimal(Decimal::parse("2.5").unwrap());
        assert_eq!(d.compare(&Value::Double(2.5)).unwrap(), Some(Ordering::Equal));
        assert_eq!(d.compare(&Value::Int(3)).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn char_padding_ignored_in_compare() {
        let a = Value::Varchar("AB  ".into());
        let b = Value::Varchar("AB".into());
        assert_eq!(a.compare(&b).unwrap(), Some(Ordering::Equal));
        assert_eq!(h(&a), h(&b));
    }

    #[test]
    fn incompatible_compare_errors() {
        assert!(Value::Int(1).compare(&Value::Varchar("1".into())).is_err());
        assert!(Value::Date(0).compare(&Value::Int(0)).is_err());
    }

    #[test]
    fn date_timestamp_compare() {
        let d = Value::Date(10);
        let t = Value::Timestamp(10 * 86_400_000_000 + 1);
        assert_eq!(d.compare(&t).unwrap(), Some(Ordering::Less));
    }

    #[test]
    fn hash_agrees_with_group_eq_across_numeric_reprs() {
        let a = Value::Int(42);
        let b = Value::BigInt(42);
        let c = Value::Double(42.0);
        let d = Value::Decimal(Decimal::parse("42.00").unwrap());
        assert!(a.group_eq(&b) && b.group_eq(&c) && c.group_eq(&d));
        assert_eq!(h(&a), h(&b));
        assert_eq!(h(&b), h(&c));
        assert_eq!(h(&c), h(&d));
    }

    #[test]
    fn nulls_sort_high() {
        let mut v = vec![Value::Null, Value::Int(2), Value::Int(1)];
        v.sort_by(|a, b| a.cmp_total(b));
        assert_eq!(v, vec![Value::Int(1), Value::Int(2), Value::Null]);
    }

    #[test]
    fn cast_narrowing_truncates() {
        assert_eq!(Value::Double(3.9).cast(DataType::Integer).unwrap(), Value::Int(3));
        assert_eq!(Value::Double(-3.9).cast(DataType::BigInt).unwrap(), Value::BigInt(-3));
    }

    #[test]
    fn cast_string_to_number() {
        assert_eq!(Value::Varchar(" 12 ".into()).cast(DataType::Integer).unwrap(), Value::Int(12));
        assert!(Value::Varchar("twelve".into()).cast(DataType::Integer).is_err());
    }

    #[test]
    fn cast_char_pads_varchar_enforces() {
        assert_eq!(
            Value::Varchar("AB".into()).cast(DataType::Char(4)).unwrap(),
            Value::Varchar("AB  ".into())
        );
        assert!(Value::Varchar("ABCDE".into()).cast(DataType::Varchar(3)).is_err());
    }

    #[test]
    fn cast_null_stays_null() {
        assert!(Value::Null.cast(DataType::Integer).unwrap().is_null());
    }

    #[test]
    fn date_roundtrip() {
        for s in ["1970-01-01", "2016-03-15", "1999-12-31", "2000-02-29", "1899-03-01"] {
            let d = parse_date(s).unwrap();
            assert_eq!(render_date(d), s);
        }
        assert_eq!(parse_date("1970-01-01").unwrap(), 0);
        assert_eq!(parse_date("1970-01-02").unwrap(), 1);
        assert_eq!(parse_date("1969-12-31").unwrap(), -1);
    }

    #[test]
    fn date_rejects_invalid() {
        assert!(parse_date("2015-02-29").is_err());
        assert!(parse_date("2015-13-01").is_err());
        assert!(parse_date("2015-00-10").is_err());
        assert!(parse_date("garbage").is_err());
    }

    #[test]
    fn timestamp_roundtrip() {
        let t = parse_timestamp("2016-03-15 13:45:30.000250").unwrap();
        assert_eq!(render_timestamp(t), "2016-03-15 13:45:30.000250");
        let t2 = parse_timestamp("2016-03-15").unwrap();
        assert_eq!(render_timestamp(t2), "2016-03-15 00:00:00.000000");
    }

    #[test]
    fn timestamp_rejects_invalid() {
        assert!(parse_timestamp("2016-03-15 25:00:00").is_err());
        assert!(parse_timestamp("2016-03-15 10:61:00").is_err());
        assert!(parse_timestamp("2016-03-15 10:00:00.12345678").is_err());
    }

    #[test]
    fn wire_size_accounts_variable_strings() {
        assert_eq!(Value::Null.wire_size(), 1);
        assert_eq!(Value::Int(7).wire_size(), 5);
        assert_eq!(Value::Varchar("abcd".into()).wire_size(), 7);
    }

    #[test]
    fn cast_decimal_scales() {
        let v = Value::Double(1.23456).cast(DataType::Decimal(10, 2)).unwrap();
        assert_eq!(v.render(), "1.23");
        let v2 = Value::Int(7).cast(DataType::Decimal(10, 3)).unwrap();
        assert_eq!(v2.render(), "7.000");
    }

    #[test]
    fn render_double_integral() {
        assert_eq!(Value::Double(2.0).render(), "2.0");
        assert_eq!(Value::Double(2.5).render(), "2.5");
    }
}
