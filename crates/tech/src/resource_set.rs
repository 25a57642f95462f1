//! Allocated resource instances: the multiset of functional units the
//! scheduler binds operations onto.

use crate::resource::{ResourceClass, ResourceType};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of one allocated resource instance within a [`ResourceSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceInstanceId(pub u32);

impl ResourceInstanceId {
    /// Raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ResourceInstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// One allocated functional unit.
#[derive(Clone, Debug, PartialEq)]
pub struct ResourceInstance {
    /// Identifier within the owning set.
    pub id: ResourceInstanceId,
    /// The type of the unit.
    pub ty: ResourceType,
    /// Instance name (e.g. `mul1`, `mul2` as in the paper's Example 2).
    pub name: String,
}

/// A multiset of allocated resource instances.
///
/// The scheduler starts from the lower-bound set computed per Section IV.A
/// and the relaxation engine may add instances when scheduling fails for lack
/// of resources.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResourceSet {
    instances: Vec<ResourceInstance>,
    /// The classes of the instances, in first-added order, each with its
    /// mnemonic and its number of instances.
    classes: Vec<ClassCount>,
}

/// One class of a [`ResourceSet`]'s instances and how many it has.
#[derive(Clone, Debug, PartialEq)]
struct ClassCount {
    class: ResourceClass,
    mnemonic: String,
    count: usize,
}

impl ResourceSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an instance of the given type, naming it after its class's
    /// mnemonic and its ordinal within the class (`mul1`, `mul2`, `add1`).
    /// Costs one name, not a scan of the set: the class counts are kept.
    pub fn add(&mut self, ty: ResourceType) -> ResourceInstanceId {
        let id = ResourceInstanceId(self.instances.len() as u32);
        let k = match self.classes.iter().position(|c| c.class == ty.class) {
            Some(k) => k,
            None => {
                self.classes.push(ClassCount {
                    class: ty.class.clone(),
                    mnemonic: ty.class.mnemonic(),
                    count: 0,
                });
                self.classes.len() - 1
            }
        };
        let class = &mut self.classes[k];
        class.count += 1;
        let name = format!("{}{}", class.mnemonic, class.count);
        self.instances.push(ResourceInstance { id, ty, name });
        id
    }

    /// Adds `count` instances of the given type.
    pub fn add_many(&mut self, ty: ResourceType, count: usize) -> Vec<ResourceInstanceId> {
        (0..count).map(|_| self.add(ty.clone())).collect()
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Access an instance.
    ///
    /// # Panics
    /// Panics if the id does not belong to this set.
    pub fn instance(&self, id: ResourceInstanceId) -> &ResourceInstance {
        &self.instances[id.index()]
    }

    /// Iterator over all instances.
    pub fn iter(&self) -> impl Iterator<Item = &ResourceInstance> {
        self.instances.iter()
    }

    /// Number of instances of a given class.
    pub fn count_of_class(&self, class: &ResourceClass) -> usize {
        self.classes
            .iter()
            .find(|c| &c.class == class)
            .map_or(0, |c| c.count)
    }

    /// Histogram of instance counts per type, in deterministic order.
    pub fn histogram(&self) -> BTreeMap<ResourceType, usize> {
        let mut map = BTreeMap::new();
        for inst in &self.instances {
            *map.entry(inst.ty.clone()).or_insert(0) += 1;
        }
        map
    }

    /// A one-line summary such as `1×mul_32x32, 1×add_32x32, 1×gt_32x32`.
    pub fn summary(&self) -> String {
        self.histogram()
            .iter()
            .map(|(ty, n)| format!("{n}×{ty}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul32() -> ResourceType {
        ResourceType::binary(ResourceClass::Multiplier, 32, 32, 32)
    }
    fn add32() -> ResourceType {
        ResourceType::binary(ResourceClass::Adder, 32, 32, 33)
    }

    #[test]
    fn add_and_count() {
        let mut set = ResourceSet::new();
        set.add(mul32());
        set.add(mul32());
        set.add(add32());
        assert_eq!(set.len(), 3);
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 2);
        assert_eq!(set.histogram()[&mul32()], 2);
        assert_eq!(set.histogram()[&add32()], 1);
    }

    #[test]
    fn instance_names_follow_paper_convention() {
        let mut set = ResourceSet::new();
        let a = set.add(mul32());
        let b = set.add(mul32());
        assert_eq!(set.instance(a).name, "mul1");
        assert_eq!(set.instance(b).name, "mul2");
    }

    #[test]
    fn interleaved_classes_are_numbered_apart() {
        let mut set = ResourceSet::new();
        let types = [
            mul32(),
            add32(),
            ResourceType::mux(2, 16),
            mul32(),
            ResourceType::binary(ResourceClass::Multiplier, 16, 16, 16),
            ResourceType::mux(3, 16),
            add32(),
            ResourceType::mux(2, 32),
            ResourceType::register(8),
            add32(),
        ];
        for ty in types {
            set.add(ty);
        }
        let names: Vec<&str> = set.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(
            names,
            ["mul1", "add1", "mux21", "mul2", "mul3", "mux31", "add2", "mux22", "ff1", "add3"]
        );
        assert_eq!(set.count_of_class(&ResourceClass::Multiplier), 3);
        assert_eq!(set.count_of_class(&ResourceClass::Mux { inputs: 2 }), 2);
        assert_eq!(set.count_of_class(&ResourceClass::Divider), 0);
    }

    #[test]
    fn summary_and_histogram() {
        let mut set = ResourceSet::new();
        set.add_many(mul32(), 2);
        set.add(add32());
        let hist = set.histogram();
        assert_eq!(hist[&mul32()], 2);
        assert_eq!(hist[&add32()], 1);
        let s = set.summary();
        assert!(s.contains("2×mul_32x32"));
        assert!(s.contains("1×add_32x32"));
    }
}
