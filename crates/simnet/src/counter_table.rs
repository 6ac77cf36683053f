//! One declaration per stats struct.
//!
//! Every stats struct of the workspace — [`Counters`](crate::Counters),
//! [`FaultStats`](crate::FaultStats), [`AdversaryStats`](crate::AdversaryStats)
//! and the middleware's and the experiments' own — is declared through
//! [`counter_table!`](crate::counter_table), so its merge, its telemetry
//! series and its list of fields are written once, in the declaration.

/// Declares a stats struct whose fields are written once: the struct itself,
/// with its attributes and derives passed through, and from the same
/// declaration
///
/// - `absorb(&mut self, other: &Self)`, one plain `+=` per summed field;
/// - `fields()`, every `u64` and `usize` field as `(name, value)`, in
///   declaration order — the order a digest folds them in, so a field is
///   never reordered;
/// - with `in "subsystem"`, `export(&mut Telemetry)` over the fields that
///   name a series, and `SERIES`, the `subsystem/name` of each.
///
/// A field's type says how it adds up: `u64` and `usize` fields and `f64`
/// sums add, a `bool` is one node's state and is left alone. A field that is
/// a telemetry series names it, `=> counter "name"` or `=> gauge "name"`:
///
/// ```
/// simnet::counter_table! {
///     /// What a cache did.
///     #[derive(Debug, Clone, Copy, Default)]
///     pub struct CacheStats in "cache" {
///         /// Lookups answered from the cache.
///         pub hits: u64 => counter "hits",
///         /// Entries held right now.
///         pub entries: usize => gauge "entries",
///         /// Lookups no series carries.
///         pub probes: u64,
///     }
/// }
///
/// let mut total = CacheStats { hits: 2, entries: 1, probes: 5 };
/// total.absorb(&CacheStats { hits: 1, entries: 1, probes: 0 });
/// assert_eq!(total.fields().collect::<Vec<_>>(), [("hits", 3), ("entries", 2), ("probes", 5)]);
/// assert_eq!(CacheStats::SERIES, ["cache/hits", "cache/entries"]);
/// ```
///
/// The series names and the fields left out of telemetry are declared, not
/// derived from the field names, because the telemetry stream stays
/// byte-identical to the one the hand-written exports produced: some series
/// are named apart from their field (`FaultStats::crashes` is
/// `faults/node_crashes`), and some counters were never exported.
#[macro_export]
macro_rules! counter_table {
    (@absorb bool, $into:expr, $from:expr) => {};
    (@absorb $ty:ident, $into:expr, $from:expr) => {
        $into += $from
    };
    (@field u64, $field:ident, $value:expr) => {
        Some((stringify!($field), $value))
    };
    (@field usize, $field:ident, $value:expr) => {
        Some((stringify!($field), $value as u64))
    };
    (@field $ty:ident, $field:ident, $value:expr) => {
        None
    };
    (@export $tel:ident, counter, $sub:literal, $series:literal, $value:expr) => {
        $tel.set_counter($sub, $series, None, $value)
    };
    (@export $tel:ident, gauge, $sub:literal, $series:literal, $value:expr) => {
        $tel.set_gauge($sub, $series, None, $value as f64)
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident in $sub:literal {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ident $(=> $kind:ident $series:literal)?),* $(,)?
        }
    ) => {
        $crate::counter_table! {
            $(#[$meta])*
            $vis struct $name {
                $($(#[$fmeta])* $fvis $field: $ty,)*
            }
        }

        impl $name {
            /// Every series [`export`](Self::export) writes, as
            /// `subsystem/name`, in declaration order.
            pub const SERIES: &'static [&'static str] = &[$($(concat!($sub, "/", $series),)?)*];

            /// Mirrors the declared series into the telemetry plane.
            pub fn export(&self, tel: &mut $crate::telemetry::Telemetry) {
                $($($crate::counter_table!(@export tel, $kind, $sub, $series, self.$field);)?)*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Adds another set of counters into this one.
            pub fn absorb(&mut self, other: &Self) {
                $($crate::counter_table!(@absorb $ty, self.$field, other.$field);)*
            }

            /// Every integer field as `(name, value)`, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$($crate::counter_table!(@field $ty, $field, self.$field)),*].into_iter().flatten()
            }
        }
    };
}
