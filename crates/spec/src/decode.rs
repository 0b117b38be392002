//! Shared decoding helpers: typed field access over [`JsonValue`] objects
//! with dotted-path diagnostics and unknown-field rejection.

use crate::error::SpecError;
use crate::json::JsonValue;

/// An object's fields plus the dotted path that names it in diagnostics.
#[derive(Debug)]
pub struct Fields<'a> {
    base: &'a str,
    fields: &'a [(String, JsonValue)],
}

impl<'a> Fields<'a> {
    /// Views `value` as an object.
    ///
    /// # Errors
    ///
    /// [`SpecError::InvalidValue`] when `value` is not an object or a key
    /// occurs twice — a duplicated field in a hand-edited spec file would
    /// otherwise silently resolve to the first occurrence, which violates
    /// the schema's fail-loudly policy.
    pub fn new(value: &'a JsonValue, base: &'a str) -> Result<Self, SpecError> {
        let fields = value.as_object().ok_or_else(|| {
            SpecError::invalid(
                if base.is_empty() { "<root>" } else { base },
                format!("expected an object, found {}", value.type_name()),
            )
        })?;
        let this = Fields { base, fields };
        for (i, (key, _)) in fields.iter().enumerate() {
            if fields[..i].iter().any(|(earlier, _)| earlier == key) {
                return Err(SpecError::invalid(
                    this.path(key),
                    "field occurs more than once",
                ));
            }
        }
        Ok(this)
    }

    /// The dotted path of a field of this object.
    pub fn path(&self, key: &str) -> String {
        if self.base.is_empty() {
            key.to_owned()
        } else {
            format!("{}.{key}", self.base)
        }
    }

    /// Rejects any field whose key is not in `allowed` — typos in spec
    /// files fail loudly instead of silently planning something else.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownField`] naming the first unknown key.
    pub fn allow(&self, allowed: &[&str]) -> Result<(), SpecError> {
        for (key, _) in self.fields {
            if !allowed.contains(&key.as_str()) {
                return Err(SpecError::UnknownField(self.path(key)));
            }
        }
        Ok(())
    }

    /// Field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&'a JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Field lookup that must succeed.
    ///
    /// # Errors
    ///
    /// [`SpecError::MissingField`] with the dotted path.
    pub fn require(&self, key: &str) -> Result<&'a JsonValue, SpecError> {
        self.get(key)
            .ok_or_else(|| SpecError::MissingField(self.path(key)))
    }
}

fn type_error(path: &str, wanted: &str, found: &JsonValue) -> SpecError {
    SpecError::invalid(
        path,
        format!("expected {wanted}, found {}", found.type_name()),
    )
}

/// `value` as a bool.
///
/// # Errors
///
/// [`SpecError::InvalidValue`] on a type mismatch.
pub(crate) fn as_bool(value: &JsonValue, path: &str) -> Result<bool, SpecError> {
    value
        .as_bool()
        .ok_or_else(|| type_error(path, "a bool", value))
}

/// `value` as a u64.
///
/// # Errors
///
/// [`SpecError::InvalidValue`] on a type mismatch or a negative/fractional
/// number.
pub fn as_u64(value: &JsonValue, path: &str) -> Result<u64, SpecError> {
    value
        .as_u64()
        .ok_or_else(|| type_error(path, "a non-negative integer", value))
}

/// `value` as a u32.
///
/// # Errors
///
/// See [`as_u64`]; additionally rejects values above `u32::MAX`.
pub(crate) fn as_u32(value: &JsonValue, path: &str) -> Result<u32, SpecError> {
    u32::try_from(as_u64(value, path)?)
        .map_err(|_| SpecError::invalid(path, "value exceeds u32::MAX"))
}

/// `value` as a usize.
///
/// # Errors
///
/// See [`as_u64`].
pub fn as_usize(value: &JsonValue, path: &str) -> Result<usize, SpecError> {
    usize::try_from(as_u64(value, path)?)
        .map_err(|_| SpecError::invalid(path, "value exceeds usize::MAX"))
}

/// `value` as a finite f64 (integers widen).
///
/// # Errors
///
/// [`SpecError::InvalidValue`] on a type mismatch.
pub fn as_f64(value: &JsonValue, path: &str) -> Result<f64, SpecError> {
    value
        .as_f64()
        .ok_or_else(|| type_error(path, "a number", value))
}

/// `value` as a string slice.
///
/// # Errors
///
/// [`SpecError::InvalidValue`] on a type mismatch.
pub(crate) fn as_str<'a>(value: &'a JsonValue, path: &str) -> Result<&'a str, SpecError> {
    value
        .as_str()
        .ok_or_else(|| type_error(path, "a string", value))
}

/// `value` as an array slice.
///
/// # Errors
///
/// [`SpecError::InvalidValue`] on a type mismatch.
pub fn as_array<'a>(value: &'a JsonValue, path: &str) -> Result<&'a [JsonValue], SpecError> {
    value
        .as_array()
        .ok_or_else(|| type_error(path, "an array", value))
}

/// Required u64 field.
///
/// # Errors
///
/// Missing field or type mismatch.
pub(crate) fn u64_field(fields: &Fields<'_>, key: &str) -> Result<u64, SpecError> {
    as_u64(fields.require(key)?, &fields.path(key))
}

/// Required u32 field.
///
/// # Errors
///
/// Missing field or type mismatch.
pub(crate) fn u32_field(fields: &Fields<'_>, key: &str) -> Result<u32, SpecError> {
    as_u32(fields.require(key)?, &fields.path(key))
}

/// Required f64 field.
///
/// # Errors
///
/// Missing field or type mismatch.
pub fn f64_field(fields: &Fields<'_>, key: &str) -> Result<f64, SpecError> {
    as_f64(fields.require(key)?, &fields.path(key))
}

/// Required string field (owned).
///
/// # Errors
///
/// Missing field or type mismatch.
pub(crate) fn str_field(fields: &Fields<'_>, key: &str) -> Result<String, SpecError> {
    Ok(as_str(fields.require(key)?, &fields.path(key))?.to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn paths_are_dotted_and_unknown_fields_rejected() {
        let doc = parse(r#"{"a":{"b":1,"oops":2}}"#).unwrap();
        let outer = Fields::new(&doc, "").unwrap();
        assert_eq!(outer.path("a"), "a");
        let inner = Fields::new(outer.require("a").unwrap(), "a").unwrap();
        assert_eq!(inner.path("b"), "a.b");
        assert_eq!(
            inner.allow(&["b"]).unwrap_err(),
            SpecError::UnknownField("a.oops".to_owned())
        );
        assert_eq!(u64_field(&inner, "b").unwrap(), 1);
        assert_eq!(
            inner.require("missing").unwrap_err(),
            SpecError::MissingField("a.missing".to_owned())
        );
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let doc = parse(r#"{"a":{"b":1,"b":2}}"#).unwrap();
        let outer = Fields::new(&doc, "").unwrap();
        let err = Fields::new(outer.require("a").unwrap(), "a").unwrap_err();
        assert_eq!(
            err,
            SpecError::invalid("a.b", "field occurs more than once")
        );
    }

    #[test]
    fn typed_accessors_report_the_found_type() {
        let doc = parse(r#"{"x":"s"}"#).unwrap();
        let f = Fields::new(&doc, "").unwrap();
        let err = u64_field(&f, "x").unwrap_err();
        assert!(err.to_string().contains("found string"), "{err}");
        assert!(as_bool(f.require("x").unwrap(), "x").is_err());
        assert!(f64_field(&f, "x").is_err());
        assert_eq!(str_field(&f, "x").unwrap(), "s");
        // Fractional numbers are not integers.
        let doc = parse(r#"{"x":1.5}"#).unwrap();
        let f = Fields::new(&doc, "").unwrap();
        assert!(u32_field(&f, "x").is_err());
        assert!(as_usize(f.require("x").unwrap(), "x").is_err());
        assert_eq!(f64_field(&f, "x").unwrap(), 1.5);
    }
}
