//! Interned resource-class and resource-type identifiers.
//!
//! The scheduler and the modulo baseline used to key their hot tables
//! (`ops_per_type`, the modulo reservation table, per-class instance counts)
//! by `String` mnemonics, paying a hash + allocation per lookup. An
//! [`Interner`] maps each distinct [`ResourceClass`] / [`ResourceType`] to a
//! small dense id exactly once; every later lookup is a `Vec` index. Ids are
//! assigned in first-interned order, so any iteration over them is
//! deterministic.

use crate::resource::{ResourceClass, ResourceType};
use std::collections::HashMap;

/// Dense identifier of an interned [`ResourceClass`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceClassId(pub u32);

impl ResourceClassId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Dense identifier of an interned [`ResourceType`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceTypeId(pub u32);

impl ResourceTypeId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns resource classes and types into dense ids.
///
/// One interner is built per scheduling (or modulo-scheduling) run; ids are
/// only meaningful relative to the interner that produced them.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    classes: Vec<ResourceClass>,
    class_ids: HashMap<ResourceClass, ResourceClassId>,
    types: Vec<ResourceType>,
    type_ids: HashMap<ResourceType, ResourceTypeId>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a class, returning its dense id (stable across repeat calls).
    pub fn class_id(&mut self, class: &ResourceClass) -> ResourceClassId {
        if let Some(&id) = self.class_ids.get(class) {
            return id;
        }
        let id = ResourceClassId(self.classes.len() as u32);
        self.classes.push(class.clone());
        self.class_ids.insert(class.clone(), id);
        id
    }

    /// Interns a type, returning its dense id (stable across repeat calls).
    pub fn type_id(&mut self, ty: &ResourceType) -> ResourceTypeId {
        if let Some(&id) = self.type_ids.get(ty) {
            return id;
        }
        let id = ResourceTypeId(self.types.len() as u32);
        self.types.push(ty.clone());
        self.type_ids.insert(ty.clone(), id);
        id
    }

    /// The class behind an id.
    ///
    /// # Panics
    /// Panics if the id was produced by a different interner.
    pub fn class(&self, id: ResourceClassId) -> &ResourceClass {
        &self.classes[id.index()]
    }

    /// The type behind an id.
    ///
    /// # Panics
    /// Panics if the id was produced by a different interner.
    pub fn ty(&self, id: ResourceTypeId) -> &ResourceType {
        &self.types[id.index()]
    }

    /// Number of distinct classes interned so far.
    pub fn num_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of distinct types interned so far.
    pub fn num_types(&self) -> usize {
        self.types.len()
    }

    /// The id of an already-interned class, without interning.
    pub fn lookup_class(&self, class: &ResourceClass) -> Option<ResourceClassId> {
        self.class_ids.get(class).copied()
    }

    /// Iterates the interned classes in id order.
    pub fn iter_classes(&self) -> impl Iterator<Item = (ResourceClassId, &ResourceClass)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ResourceClassId(i as u32), c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ids_are_stable_and_dense() {
        let mut i = Interner::new();
        let mul = i.class_id(&ResourceClass::Multiplier);
        let add = i.class_id(&ResourceClass::Adder);
        assert_eq!(mul, ResourceClassId(0));
        assert_eq!(add, ResourceClassId(1));
        assert_eq!(i.class_id(&ResourceClass::Multiplier), mul);
        assert_eq!(i.num_classes(), 2);
        assert_eq!(i.class(mul), &ResourceClass::Multiplier);
    }

    #[test]
    fn type_ids_distinguish_widths() {
        let mut i = Interner::new();
        let a = i.type_id(&ResourceType::binary(ResourceClass::Adder, 32, 32, 33));
        let b = i.type_id(&ResourceType::binary(ResourceClass::Adder, 16, 16, 17));
        assert_ne!(a, b);
        assert_eq!(i.num_types(), 2);
        assert_eq!(i.ty(a).out_width, 33);
    }
}
