//! The flight recorder's schema, written once: the vocabularies its names
//! come from and the field codec every record and config knob travels
//! through.
//!
//! * `vocabulary!` declares a closed set of sink names — [`Phase`](crate::Phase),
//!   [`Counter`](crate::Counter), [`Gauge`](crate::Gauge) — from one table
//!   of `Variant = "sink_name"` rows under their doc comments. The slot
//!   count, the slot order and every name come from the table, so a new
//!   name is one row.
//! * [`Kind`] is the codec: how one kind of field is written as JSON text
//!   and read back from a parsed value, and what the error says when the
//!   value is not of that kind. The kinds are [`Count`], [`Digits`],
//!   [`Number`], [`Flag`], [`Text`] and [`Members`], plus [`Tally`], a
//!   vocabulary's per-slot counts.
//! * `record!` declares a trace record from one field table
//!   (`name: type as Kind` under its doc comment) and generates its line
//!   writer and its strict reader from the table, so the two cannot
//!   disagree. `dtp-core`'s config tables read and write their knobs
//!   through the same kinds ([`to_value`], [`read_member`]).

use crate::json::{self, Value};
use std::io::{self, Write};
use std::marker::PhantomData;

/// A closed set of sink names: what the keys of a [`Tally`] are drawn from.
pub trait Vocabulary {
    /// What one member is called in an error message (`"counter"`).
    const NOUN: &'static str;
    /// Every member's sink name, in slot order.
    const NAMES: &'static [&'static str];
}

/// Declares a vocabulary enum from its table of `Variant = "sink_name"`
/// rows and derives everything that has to agree with it: `COUNT`, `ALL`,
/// `index`, `name` and the [`Vocabulary`] names the trace reader resolves
/// sink names through. The noun after the enum's name is what one member is
/// called in docs and errors.
macro_rules! vocabulary {
    (
        $(#[$meta:meta])*
        pub enum $name:ident ($noun:literal) {
            $( $(#[$doc:meta])* $variant:ident = $sink:literal, )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $( $(#[$doc])* $variant, )*
        }

        impl $crate::schema::Vocabulary for $name {
            const NOUN: &'static str = $noun;
            const NAMES: &'static [&'static str] = &[$( $sink ),*];
        }

        impl $name {
            #[doc = concat!("Number of ", $noun, "s (length of every per-", $noun, " array).")]
            pub const COUNT: usize =
                <$name as $crate::schema::Vocabulary>::NAMES.len();

            #[doc = concat!("Every ", $noun, ", in slot order.")]
            pub const ALL: [$name; $name::COUNT] = [$( $name::$variant ),*];

            #[doc = concat!("Dense slot index of this ", $noun, ".")]
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable snake_case name used in the structured sinks.
            pub fn name(self) -> &'static str {
                <$name as $crate::schema::Vocabulary>::NAMES[self.index()]
            }
        }
    };
}
pub(crate) use vocabulary;

/// Declares a trace record from its field table (`name: type as Kind`, in
/// line order, each under its doc comment) and generates everything that
/// has to agree with it: the struct, its line writer and its strict reader.
/// The string after `=` is the record's `"t"` discriminator.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident = $tag:literal {
            $( $(#[$doc:meta])* $field:ident: $ty:ty as $kind:ty, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        impl $name {
            /// The `"t"` discriminator of this record's lines.
            pub(crate) const TAG: &'static str = $tag;

            #[doc = concat!(
                "Writes this record as its `", $tag, "` line: one JSON object holding the \
                 discriminator and then every field in table order, plus a newline. \
                 Non-finite numbers are `null`. No heap allocation unless the record \
                 holds text or an object (only the header does)."
            )]
            ///
            /// # Errors
            ///
            /// Propagates I/O errors from `w`.
            pub fn write_jsonl(&self, w: &mut dyn std::io::Write) -> std::io::Result<()> {
                w.write_all(concat!("{\"t\":\"", $tag, "\"").as_bytes())?;
                $(
                    w.write_all(concat!(",\"", stringify!($field), "\":").as_bytes())?;
                    <$kind as $crate::schema::Kind<$ty>>::write(&self.$field, w)?;
                )*
                w.write_all(b"}\n")
            }

            /// The record's line (with its newline), as [`Self::write_jsonl`]
            /// writes it.
            pub fn to_json_line(&self) -> String {
                let mut buf = Vec::with_capacity(256);
                self.write_jsonl(&mut buf).expect("Vec<u8> writes are infallible");
                String::from_utf8(buf).expect("records write UTF-8")
            }

            /// The record as the JSON object its line holds.
            pub fn to_value(&self) -> $crate::json::Value {
                $crate::json::parse(&self.to_json_line()).expect("records write valid JSON")
            }

            /// Reads the record back from its line's members, strictly: every
            /// field of the table must be present and of its kind.
            fn from_members(members: &[(String, $crate::json::Value)]) -> Result<$name, String> {
                Ok($name {
                    $( $field: $crate::schema::read_member::<$ty, $kind>(
                        members,
                        stringify!($field),
                        "field",
                    )?, )*
                })
            }
        }
    };
}
pub(crate) use record;

/// How one kind of field travels through a JSON line: written as text, read
/// back from the parsed value. `T` is the Rust type a field of this kind
/// has; a kind may serve several.
pub trait Kind<T> {
    /// Writes `v` as its JSON text. Allocation-free for every kind but
    /// [`Text`] and [`Members`].
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    fn write(v: &T, w: &mut dyn Write) -> io::Result<()>;

    /// Reads a field back from its parsed value.
    ///
    /// # Errors
    ///
    /// Says what is wrong with the value, as the end of a sentence that
    /// starts with the field's name (`is not a number or null`).
    fn read(v: &Value) -> Result<T, String>;
}

/// A non-negative integer (`u64`, `usize`), written as a JSON number: exact
/// through the `f64` number pipeline up to 2^53, far beyond any count a run
/// records.
pub struct Count;

/// A `u64` written as a JSON string, so its full range survives the `f64`
/// number pipeline (a seed).
pub struct Digits;

/// An `f64` written as a JSON number, or `null` when it is not finite;
/// `null` reads back as `NAN`, the in-memory "not sampled" sentinel. Also a
/// fixed-length array of them (`[f64; N]`).
pub struct Number;

/// A `bool`.
pub struct Flag;

/// A string, or a string or `null` (`Option<String>`).
pub struct Text;

/// A key/value object, kept as its ordered generic members (a config).
pub struct Members;

/// A vocabulary's per-slot counts (`[u64; V::COUNT]`), written as an object
/// keyed by sink name: slots at zero are left out to keep lines compact,
/// the others follow in slot order. An unknown name is an error.
pub struct Tally<V>(PhantomData<V>);

fn is_not(what: &str) -> String {
    format!("is not {what}")
}

impl Kind<u64> for Count {
    fn write(v: &u64, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "{v}")
    }

    fn read(v: &Value) -> Result<u64, String> {
        match v.as_f64() {
            Some(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => Ok(x as u64),
            _ => Err(is_not("a non-negative integer")),
        }
    }
}

impl Kind<usize> for Count {
    fn write(v: &usize, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "{v}")
    }

    fn read(v: &Value) -> Result<usize, String> {
        let n = <Count as Kind<u64>>::read(v)?;
        usize::try_from(n).map_err(|_| is_not("a non-negative integer"))
    }
}

impl Kind<u64> for Digits {
    fn write(v: &u64, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "\"{v}\"")
    }

    fn read(v: &Value) -> Result<u64, String> {
        v.as_str()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| is_not("a u64 string"))
    }
}

impl Kind<f64> for Number {
    fn write(v: &f64, w: &mut dyn Write) -> io::Result<()> {
        json::write_f64(w, *v)
    }

    fn read(v: &Value) -> Result<f64, String> {
        match v {
            Value::Null => Ok(f64::NAN),
            Value::Num(x) => Ok(*x),
            _ => Err(is_not("a number or null")),
        }
    }
}

impl<const N: usize> Kind<[f64; N]> for Number {
    fn write(v: &[f64; N], w: &mut dyn Write) -> io::Result<()> {
        w.write_all(b"[")?;
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            json::write_f64(w, *x)?;
        }
        w.write_all(b"]")
    }

    fn read(v: &Value) -> Result<[f64; N], String> {
        let what = || is_not(&format!("an array of {N} numbers or nulls"));
        let items = v
            .as_array()
            .filter(|items| items.len() == N)
            .ok_or_else(what)?;
        let mut out = [0.0; N];
        for (x, item) in out.iter_mut().zip(items) {
            *x = <Number as Kind<f64>>::read(item).map_err(|_| what())?;
        }
        Ok(out)
    }
}

impl Kind<bool> for Flag {
    fn write(v: &bool, w: &mut dyn Write) -> io::Result<()> {
        write!(w, "{v}")
    }

    fn read(v: &Value) -> Result<bool, String> {
        v.as_bool().ok_or_else(|| is_not("a boolean"))
    }
}

impl Kind<String> for Text {
    fn write(v: &String, w: &mut dyn Write) -> io::Result<()> {
        let mut s = String::with_capacity(v.len() + 2);
        json::push_str_escaped(&mut s, v);
        w.write_all(s.as_bytes())
    }

    fn read(v: &Value) -> Result<String, String> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| is_not("a string"))
    }
}

impl Kind<Option<String>> for Text {
    fn write(v: &Option<String>, w: &mut dyn Write) -> io::Result<()> {
        match v {
            Some(s) => <Text as Kind<String>>::write(s, w),
            None => w.write_all(b"null"),
        }
    }

    fn read(v: &Value) -> Result<Option<String>, String> {
        match v {
            Value::Null => Ok(None),
            Value::Str(s) => Ok(Some(s.clone())),
            _ => Err(is_not("a string or null")),
        }
    }
}

impl Kind<Vec<(String, Value)>> for Members {
    fn write(v: &Vec<(String, Value)>, w: &mut dyn Write) -> io::Result<()> {
        let mut s = String::new();
        json::push_object(&mut s, v);
        w.write_all(s.as_bytes())
    }

    fn read(v: &Value) -> Result<Vec<(String, Value)>, String> {
        match v {
            Value::Obj(members) => Ok(members.clone()),
            _ => Err(is_not("an object")),
        }
    }
}

impl<V: Vocabulary, const N: usize> Kind<[u64; N]> for Tally<V> {
    fn write(v: &[u64; N], w: &mut dyn Write) -> io::Result<()> {
        w.write_all(b"{")?;
        let mut first = true;
        for (name, &n) in V::NAMES.iter().zip(v) {
            if n == 0 {
                continue;
            }
            if !first {
                w.write_all(b",")?;
            }
            first = false;
            write!(w, "\"{name}\":{n}")?;
        }
        w.write_all(b"}")
    }

    fn read(v: &Value) -> Result<[u64; N], String> {
        let Value::Obj(members) = v else {
            return Err(is_not("an object"));
        };
        let mut out = [0; N];
        for (name, n) in members {
            let slot = V::NAMES
                .iter()
                .position(|k| k == name)
                .ok_or_else(|| format!("has an unknown {} `{name}`", V::NOUN))?;
            out[slot] = <Count as Kind<u64>>::read(n)
                .map_err(|why| format!("has a {} `{name}` that {why}", V::NOUN))?;
        }
        Ok(out)
    }
}

/// Reads member `key` of a JSON object's `members` as kind `K`, strictly:
/// a missing member and one not of the kind are errors naming `key`, the
/// way `field` names such a member (`"field"`, `"config field"`).
///
/// # Errors
///
/// ``missing field `key` `` when there is no such member, else
/// ``field `key` `` followed by what the value is not (`field` as given).
pub fn read_member<T, K: Kind<T>>(
    members: &[(String, Value)],
    key: &str,
    field: &str,
) -> Result<T, String> {
    let (_, v) = members
        .iter()
        .find(|(k, _)| k == key)
        .ok_or_else(|| format!("missing {field} `{key}`"))?;
    K::read(v).map_err(|why| format!("{field} `{key}` {why}"))
}

/// `v` as the JSON value kind `K` writes for it.
pub fn to_value<T, K: Kind<T>>(v: &T) -> Value {
    let mut buf = Vec::new();
    K::write(v, &mut buf).expect("Vec<u8> writes are infallible");
    json::parse(std::str::from_utf8(&buf).expect("kinds write UTF-8")).expect("kinds write JSON")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text<T, K: Kind<T>>(v: &T) -> String {
        let mut buf = Vec::new();
        K::write(v, &mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn every_kind_reads_back_what_it_writes() {
        assert_eq!(text::<u64, Count>(&1200), "1200");
        assert_eq!(
            text::<u64, Digits>(&(u64::MAX - 7)),
            "\"18446744073709551608\""
        );
        assert_eq!(text::<f64, Number>(&f64::NEG_INFINITY), "null");
        assert_eq!(
            text::<[f64; 3], Number>(&[0.0, 512.5, f64::NAN]),
            "[0,512.5,null]"
        );
        assert_eq!(text::<bool, Flag>(&true), "true");
        assert_eq!(
            text::<Option<String>, Text>(&Some("sb\"1".into())),
            r#""sb\"1""#
        );
        assert_eq!(text::<Option<String>, Text>(&None), "null");
        let members = vec![("gamma".to_string(), Value::Num(4.0))];
        assert_eq!(text::<_, Members>(&members), r#"{"gamma":4}"#);
        let seed = u64::MAX - 7;
        assert_eq!(
            <Digits as Kind<u64>>::read(&to_value::<u64, Digits>(&seed)),
            Ok(seed)
        );
        assert_eq!(
            <Count as Kind<usize>>::read(&to_value::<usize, Count>(&300)),
            Ok(300)
        );
        assert!(<Number as Kind<f64>>::read(&Value::Null).unwrap().is_nan());
        assert_eq!(
            <Members as Kind<Vec<_>>>::read(&to_value::<_, Members>(&members)),
            Ok(members)
        );
    }

    #[test]
    fn errors_name_the_member_and_what_it_is_not() {
        let members = vec![
            ("n".to_string(), Value::Num(-1.0)),
            ("s".to_string(), Value::Num(1.0)),
        ];
        let n = read_member::<u64, Count>(&members, "n", "field");
        assert_eq!(
            n,
            Err("field `n` is not a non-negative integer".to_string())
        );
        let s = read_member::<Option<String>, Text>(&members, "s", "config field");
        assert_eq!(
            s,
            Err("config field `s` is not a string or null".to_string())
        );
        let gone = read_member::<bool, Flag>(&members, "b", "config field");
        assert_eq!(gone, Err("missing config field `b`".to_string()));
    }
}
