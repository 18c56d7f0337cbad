//! Name interning: every distinct span or track name is stored once and
//! referred to by a small [`NameId`].
//!
//! The span store used to keep one heap `String` per span; a run that makes
//! 600 000 calls named `echo` kept 600 000 copies of it. An [`Interner`]
//! keeps one, and a caller that records the same name on every call (the
//! sRPC path) resolves it once and passes the id, so recording a span
//! allocates nothing. Callers that still pass strings go through the same
//! store: [`IntoName`] makes `&str`/`String` arguments a resolve-then-record
//! of the id form, not a second path.
//!
//! Ids are dense, start at zero and are never exported: every rendering
//! resolves them back to the text, so interning order is invisible in the
//! trace, the bundles and the reports.

use std::collections::HashMap;

/// An interned name within one [`Interner`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NameId(u32);

impl NameId {
    /// Dense index of the name (interning order).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// The name table.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    names: Vec<Box<str>>,
    index: HashMap<Box<str>, NameId>,
}

impl Interner {
    /// Returns the id of `name`, storing it on first sight. Allocation-free
    /// when the name is already known.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.names.len() as u32);
        self.names.push(name.into());
        self.index.insert(name.into(), id);
        id
    }

    /// The id of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<NameId> {
        self.index.get(name).copied()
    }

    /// The text of `id`.
    ///
    /// # Panics
    ///
    /// Panics when `id` came from a different interner and is out of range.
    pub fn resolve(&self, id: NameId) -> &str {
        &self.names[id.index()]
    }

    /// The text of the `index`-th interned name, if that many exist.
    pub fn nth(&self, index: usize) -> Option<&str> {
        self.names.get(index).map(|n| &**n)
    }

    /// Every name, in interning order (`NameId::index` order).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(|n| &**n)
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no name was interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// A span name as recording methods accept it: an already-resolved
/// [`NameId`], or text that is interned on the spot.
pub trait IntoName {
    /// Resolves `self` against `names`.
    fn into_name(self, names: &mut Interner) -> NameId;
}

impl IntoName for NameId {
    fn into_name(self, _names: &mut Interner) -> NameId {
        self
    }
}

impl IntoName for &str {
    fn into_name(self, names: &mut Interner) -> NameId {
        names.intern(self)
    }
}

impl IntoName for String {
    fn into_name(self, names: &mut Interner) -> NameId {
        names.intern(&self)
    }
}

impl IntoName for &String {
    fn into_name(self, names: &mut Interner) -> NameId {
        names.intern(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut names = Interner::default();
        assert!(names.is_empty());
        let a = names.intern("enqueue:echo");
        let b = names.intern("exec");
        assert_eq!(names.intern("enqueue:echo"), a);
        assert_ne!(a, b);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(names.len(), 2);
        assert_eq!(names.resolve(a), "enqueue:echo");
        assert_eq!(names.get("exec"), Some(b));
        assert_eq!(names.get("missing"), None);
        assert_eq!(names.names().collect::<Vec<_>>(), ["enqueue:echo", "exec"]);
    }

    #[test]
    fn text_and_ids_resolve_to_the_same_name() {
        let mut names = Interner::default();
        let id = "call".into_name(&mut names);
        assert_eq!(String::from("call").into_name(&mut names), id);
        assert_eq!((&String::from("call")).into_name(&mut names), id);
        assert_eq!(id.into_name(&mut names), id);
        assert_eq!(names.len(), 1);
    }
}
