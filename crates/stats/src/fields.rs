//! The one strict reader for the JSON objects the program takes in:
//! machine specs, service requests, sweep files, worker envelopes and
//! result documents are all read through [`Fields`].
//!
//! A reader takes an object's keys one at a time with a typed getter, and
//! [`Fields::finish`] refuses every key no getter took, so a misspelled
//! knob is an error instead of a silently dropped setting. Every failure
//! is a [`FieldError`] naming the dotted path of the value at fault, array
//! elements included (`sweep.axes[0].values`).
//!
//! # Examples
//!
//! ```
//! use rmt_stats::fields::Fields;
//!
//! let doc = rmt_stats::json::parse(
//!     r#"{"name": "tiny", "axes": [{"path": "core.sq_entries", "valeus": [16]}]}"#,
//! )
//! .unwrap();
//! let mut f = Fields::new(&doc).unwrap();
//! assert_eq!(f.str("name").unwrap(), "tiny");
//! let err = f
//!     .objects("axes", |mut axis| {
//!         axis.str("path")?;
//!         axis.array("values")
//!     })
//!     .unwrap_err();
//! assert_eq!(err.to_string(), "missing key `axes[0].values`");
//! ```

use crate::Json;
use std::fmt;

/// The type name a non-object value is refused with where an object was
/// wanted.
pub const OBJECT: &str = "a JSON object";

/// Why a document was refused, naming the dotted path of the value at
/// fault (empty for the document itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// A required key is absent.
    Missing(String),
    /// A key no getter took.
    Unknown(String),
    /// A value of the wrong JSON type.
    Type {
        /// Where the value is.
        path: String,
        /// What it must be, e.g. `"a string"`.
        want: &'static str,
    },
    /// A well-typed value the reader refuses.
    Invalid {
        /// Where the value is.
        path: String,
        /// What is wrong, e.g. `"must be at least 1"`.
        rule: String,
    },
}

impl fmt::Display for FieldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::Missing(path) => write!(f, "missing key `{path}`"),
            FieldError::Unknown(path) => write!(f, "unknown key `{path}`"),
            FieldError::Type { path, want } if path.is_empty() => {
                write!(f, "the document must be {want}")
            }
            FieldError::Type { path, want } => write!(f, "`{path}` must be {want}"),
            FieldError::Invalid { path, rule } => write!(f, "`{path}` {rule}"),
        }
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// A strict reader over one JSON object (see the module docs).
#[derive(Debug)]
pub struct Fields<'a> {
    path: String,
    entries: &'a [(String, Json)],
    taken: Vec<bool>,
}

impl<'a> Fields<'a> {
    /// A reader over the document `doc`.
    pub fn new(doc: &'a Json) -> Result<Fields<'a>, FieldError> {
        Fields::at(doc, String::new())
    }

    /// A reader over `doc`, which sits at `path` in an enclosing
    /// document, so that errors name the whole path.
    pub fn at(doc: &'a Json, path: String) -> Result<Fields<'a>, FieldError> {
        match doc.members() {
            Some(entries) => Ok(Fields {
                path,
                entries,
                taken: vec![false; entries.len()],
            }),
            None => Err(FieldError::Type { path, want: OBJECT }),
        }
    }

    /// The dotted path of `key` in this object.
    pub fn path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// An error saying that `key`'s value breaks `rule`.
    pub fn invalid(&self, key: &str, rule: impl Into<String>) -> FieldError {
        FieldError::Invalid {
            path: self.path(key),
            rule: rule.into(),
        }
    }

    /// The object's keys in document order, for objects whose keys are
    /// data; reading one with a getter takes it.
    pub fn keys(&self) -> Vec<&'a str> {
        self.entries.iter().map(|(k, _)| k.as_str()).collect()
    }

    /// Whether the object has `key`.
    pub fn has(&self, key: &str) -> bool {
        self.entries.iter().any(|(k, _)| k == key)
    }

    /// Takes `key`'s value, whatever its type.
    pub fn value(&mut self, key: &str) -> Result<&'a Json, FieldError> {
        let entries = self.entries;
        match entries.iter().position(|(k, _)| k == key) {
            Some(i) => {
                self.taken[i] = true;
                Ok(&entries[i].1)
            }
            None => Err(FieldError::Missing(self.path(key))),
        }
    }

    /// Reads `key` with `get` when the object has it; `None` when not.
    pub fn opt<T>(
        &mut self,
        key: &str,
        get: impl FnOnce(&mut Fields<'a>, &str) -> Result<T, FieldError>,
    ) -> Result<Option<T>, FieldError> {
        if self.has(key) {
            get(self, key).map(Some)
        } else {
            Ok(None)
        }
    }

    fn typed<T>(
        &mut self,
        key: &str,
        want: &'static str,
        get: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, FieldError> {
        let v = self.value(key)?;
        get(v).ok_or_else(|| FieldError::Type {
            path: self.path(key),
            want,
        })
    }

    /// Takes `key` as a non-negative integer.
    pub fn u64(&mut self, key: &str) -> Result<u64, FieldError> {
        self.typed(key, "a non-negative integer", Json::as_u64)
    }

    /// Takes `key` as a `usize`.
    pub fn usize(&mut self, key: &str) -> Result<usize, FieldError> {
        let n = self.u64(key)?;
        usize::try_from(n).map_err(|_| self.invalid(key, "is out of range"))
    }

    /// Takes `key` as a `u32`.
    pub fn u32(&mut self, key: &str) -> Result<u32, FieldError> {
        let n = self.u64(key)?;
        u32::try_from(n).map_err(|_| self.invalid(key, "is out of range"))
    }

    /// Takes `key` as a boolean.
    pub fn bool(&mut self, key: &str) -> Result<bool, FieldError> {
        self.typed(key, "true or false", Json::as_bool)
    }

    /// Takes `key` as a string.
    pub fn str(&mut self, key: &str) -> Result<&'a str, FieldError> {
        self.typed(key, "a string", Json::as_str)
    }

    /// Takes `key` as a number.
    pub fn f64(&mut self, key: &str) -> Result<f64, FieldError> {
        self.typed(key, "a number", Json::as_f64)
    }

    /// Takes `key` as an array.
    pub fn array(&mut self, key: &str) -> Result<&'a [Json], FieldError> {
        self.typed(key, "an array", Json::as_array)
    }

    /// Takes `key` as an array of strings.
    pub fn strs(&mut self, key: &str) -> Result<Vec<&'a str>, FieldError> {
        let items = self.array(key)?;
        let at = |i: usize| format!("{}[{i}]", self.path(key));
        let str_at = |(i, v): (usize, &'a Json)| {
            v.as_str().ok_or_else(|| FieldError::Type {
                path: at(i),
                want: "a string",
            })
        };
        items.iter().enumerate().map(str_at).collect()
    }

    /// Takes `key` as a nested object, read by the returned reader.
    pub fn object(&mut self, key: &str) -> Result<Fields<'a>, FieldError> {
        let v = self.value(key)?;
        Fields::at(v, self.path(key))
    }

    /// Takes `key` as an array of objects and reads each with `read`; the
    /// element at index `i` has the path `key[i]`.
    pub fn objects<T, E: From<FieldError>>(
        &mut self,
        key: &str,
        mut read: impl FnMut(Fields<'a>) -> Result<T, E>,
    ) -> Result<Vec<T>, E> {
        let path = self.path(key);
        let items = self.array(key)?;
        let mut out = Vec::with_capacity(items.len());
        for (i, v) in items.iter().enumerate() {
            out.push(read(Fields::at(v, format!("{path}[{i}]"))?)?);
        }
        Ok(out)
    }

    /// Takes `key` as an object whose keys are data, such as a summary or
    /// a metrics snapshot, and reads every member with `read`, in document
    /// order.
    pub fn members<T, E: From<FieldError>>(
        &mut self,
        key: &str,
        mut read: impl FnMut(&mut Fields<'a>, &'a str) -> Result<T, E>,
    ) -> Result<Vec<(&'a str, T)>, E> {
        let mut map = self.object(key)?;
        let entries = map.entries;
        entries
            .iter()
            .map(|(k, _)| Ok((k.as_str(), read(&mut map, k)?)))
            .collect()
    }

    /// Refuses the first key no getter took.
    pub fn finish(self) -> Result<(), FieldError> {
        match self.taken.iter().position(|taken| !taken) {
            Some(i) => Err(FieldError::Unknown(self.path(&self.entries[i].0))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc() -> Json {
        parse(
            r#"{"n": 7, "big": 4294967296, "b": true, "s": "x", "f": 1.5,
                "list": ["a", 2], "sec": {"k": 1},
                "rows": [{"k": 1}, 3], "map": {"p": 1, "q": "y"}}"#,
        )
        .unwrap()
    }

    #[test]
    fn getters_take_keys_and_name_paths() {
        let doc = doc();
        let mut f = Fields::new(&doc).unwrap();
        assert_eq!(f.u64("n"), Ok(7));
        assert_eq!(f.usize("n"), Ok(7));
        assert_eq!(f.u32("n"), Ok(7));
        assert_eq!(
            f.u32("big").unwrap_err().to_string(),
            "`big` is out of range"
        );
        assert_eq!(f.bool("b"), Ok(true));
        assert_eq!(f.str("s"), Ok("x"));
        assert_eq!(f.f64("f"), Ok(1.5));
        assert_eq!(f.str("n").unwrap_err().to_string(), "`n` must be a string");
        assert_eq!(
            f.strs("list").unwrap_err().to_string(),
            "`list[1]` must be a string"
        );
        let mut sec = f.object("sec").unwrap();
        assert_eq!(sec.u64("k"), Ok(1));
        assert_eq!(
            sec.u64("gone").unwrap_err().to_string(),
            "missing key `sec.gone`"
        );
        sec.finish().unwrap();
        let err = f.objects("rows", |mut r| r.u64("k")).unwrap_err();
        assert_eq!(err.to_string(), "`rows[1]` must be a JSON object");
        let err = f.members("map", Fields::u64).unwrap_err();
        assert_eq!(err.to_string(), "`map.q` must be a non-negative integer");
        assert_eq!(f.opt("absent", Fields::u64), Ok(None));
        assert_eq!(f.opt("n", Fields::u64), Ok(Some(7)));
        f.finish().unwrap();
    }

    #[test]
    fn finish_refuses_the_first_untaken_key() {
        let doc = doc();
        let mut f = Fields::new(&doc).unwrap();
        f.u64("n").unwrap();
        assert_eq!(f.finish(), Err(FieldError::Unknown("big".into())));
        let mut f = Fields::new(&doc).unwrap();
        let mut sec = f.object("sec").unwrap();
        assert!(sec.has("k") && !sec.has("z"));
        assert_eq!(sec.keys(), ["k"]);
        assert_eq!(
            Fields::new(&Json::U64(1)).unwrap_err().to_string(),
            "the document must be a JSON object"
        );
        sec.value("k").unwrap();
        sec.finish().unwrap();
    }
}
