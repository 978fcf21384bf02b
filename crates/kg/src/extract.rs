//! Property extraction: building the universal relation of entity
//! attributes (Section 3.1 of the paper).
//!
//! Given the distinct entities a column links to, extraction walks each entity's
//! properties up to a configurable number of hops, flattens everything into
//! attribute names (`leader.age`, `ethnicGroup.avg(population)`), and
//! materializes one row per entity with nulls for missing values — the
//! universal relation. Expansion back to table rows is a cheap gather, so
//! large tables never materialize the full rows × attributes matrix unless
//! asked to.

use std::collections::{BTreeMap, HashMap};

use nexus_table::{Column, DataType, Table, Value};

use crate::graph::{EntityId, KnowledgeGraph, PropertyValue};

/// Aggregation applied to one-to-many links (the paper supports any
/// user-defined function; these are the built-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneToManyAgg {
    /// Arithmetic mean of member values.
    Mean,
    /// Sum of member values.
    Sum,
    /// Maximum member value.
    Max,
    /// Minimum member value.
    Min,
    /// The first member value.
    First,
}

impl OneToManyAgg {
    fn label(&self) -> &'static str {
        match self {
            OneToManyAgg::Mean => "avg",
            OneToManyAgg::Sum => "sum",
            OneToManyAgg::Max => "max",
            OneToManyAgg::Min => "min",
            OneToManyAgg::First => "first",
        }
    }

    fn apply(&self, values: &[f64]) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        Some(match self {
            OneToManyAgg::Mean => values.iter().sum::<f64>() / values.len() as f64,
            OneToManyAgg::Sum => values.iter().sum(),
            OneToManyAgg::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            OneToManyAgg::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            OneToManyAgg::First => values[0],
        })
    }
}

/// Options controlling extraction.
#[derive(Debug, Clone, Copy)]
pub struct ExtractOptions {
    /// Number of hops to follow from the seed entities (1 = direct
    /// properties only).
    pub hops: usize,
    /// Aggregation for numeric properties reached through one-to-many links.
    pub one_to_many: OneToManyAgg,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            hops: 1,
            one_to_many: OneToManyAgg::Mean,
        }
    }
}

/// The universal relation of extracted attributes: one row per distinct
/// linked entity, one column per extracted attribute, nulls where missing.
#[derive(Debug)]
pub struct EntityAttributes {
    /// The extracted entities, one per row of
    /// [`EntityAttributes::table`], in the order [`extract`] was given them
    /// (for a linked column: first-appearance order of its rows).
    pub entity_ids: Vec<EntityId>,
    /// Entity id → row in [`EntityAttributes::table`].
    pub index_of: HashMap<EntityId, usize>,
    /// The universal relation (one row per entity).
    pub table: Table,
}

impl EntityAttributes {
    /// Names of the extracted attributes.
    pub fn attribute_names(&self) -> Vec<&str> {
        self.table.column_names()
    }

    /// Expands one entity-level attribute to table rows via the link vector:
    /// row `i` takes the attribute value of `links[i]`, null when unlinked.
    pub fn expand_to_rows(
        &self,
        links: &[Option<EntityId>],
        attr: &str,
    ) -> nexus_table::Result<Column> {
        let col = self.table.column(attr)?;
        let values: Vec<Value> = links
            .iter()
            .map(|l| match l.and_then(|id| self.index_of.get(&id)) {
                Some(&row) => col.value(row),
                None => Value::Null,
            })
            .collect();
        Column::from_values(col.dtype(), &values)
    }

    /// Expands every attribute to table rows (memory-heavy on large tables;
    /// prefer per-attribute [`EntityAttributes::expand_to_rows`]).
    pub fn expand_all(&self, links: &[Option<EntityId>]) -> nexus_table::Result<Table> {
        let mut cols = Vec::with_capacity(self.table.n_cols());
        for name in self.table.column_names() {
            cols.push((name.to_string(), self.expand_to_rows(links, name)?));
        }
        Table::new(cols)
    }
}

/// Extracts attributes for `entities` from `kg`, one universal-relation
/// row per entity in the given order (a repeated entity keeps its first
/// position).
///
/// Pass the distinct linked entities of a column in first-appearance
/// order, as [`DictionaryLinks::entities`](crate::DictionaryLinks::entities)
/// returns them.
pub fn extract(
    kg: &KnowledgeGraph,
    entities: &[EntityId],
    options: &ExtractOptions,
) -> EntityAttributes {
    let mut entity_ids = Vec::with_capacity(entities.len());
    let mut index_of: HashMap<EntityId, usize> = HashMap::with_capacity(entities.len());
    for &id in entities {
        index_of.entry(id).or_insert_with(|| {
            entity_ids.push(id);
            entity_ids.len() - 1
        });
    }

    // Flatten each entity's reachable properties.
    let mut per_entity: Vec<BTreeMap<String, Value>> = Vec::with_capacity(entity_ids.len());
    for &id in &entity_ids {
        let mut out = BTreeMap::new();
        collect(kg, id, "", options.hops, options, &mut out);
        per_entity.push(out);
    }

    // Universal relation: union of attribute names (sorted for determinism).
    let mut names: Vec<String> = Vec::new();
    {
        let mut seen = std::collections::BTreeSet::new();
        for m in &per_entity {
            for k in m.keys() {
                seen.insert(k.clone());
            }
        }
        names.extend(seen);
    }

    let mut columns: Vec<(String, Column)> = Vec::with_capacity(names.len());
    for name in &names {
        let values: Vec<Value> = per_entity
            .iter()
            .map(|m| m.get(name).cloned().unwrap_or(Value::Null))
            .collect();
        columns.push((name.clone(), build_column(&values)));
    }

    EntityAttributes {
        entity_ids,
        index_of,
        table: Table::new(columns).expect("extracted columns share one length"),
    }
}

/// Recursively collects flattened attributes of `id` into `out`.
fn collect(
    kg: &KnowledgeGraph,
    id: EntityId,
    prefix: &str,
    hops_left: usize,
    options: &ExtractOptions,
    out: &mut BTreeMap<String, Value>,
) {
    if hops_left == 0 {
        return;
    }
    for (&pid, value) in kg.properties_of(id) {
        let pname = kg.prop_name(pid);
        let name = if prefix.is_empty() {
            pname.to_string()
        } else {
            format!("{prefix}{pname}")
        };
        match value {
            PropertyValue::Literal(v) => {
                out.insert(name, v.clone());
            }
            PropertyValue::Entity(target) => {
                // The link itself becomes a categorical attribute…
                out.insert(name.clone(), Value::Str(kg.entity(*target).name.clone()));
                // …and its own properties are followed on the next hop.
                if hops_left > 1 {
                    collect(
                        kg,
                        *target,
                        &format!("{name}."),
                        hops_left - 1,
                        options,
                        out,
                    );
                }
            }
            PropertyValue::EntityList(targets) => {
                // List size is always available.
                out.insert(format!("{name}.count"), Value::Int(targets.len() as i64));
                if hops_left > 1 {
                    aggregate_list(kg, targets, &name, options, out);
                }
            }
        }
    }
}

/// Aggregates the numeric properties of list members, e.g.
/// `ethnicGroup.avg(population)`.
fn aggregate_list(
    kg: &KnowledgeGraph,
    targets: &[EntityId],
    name: &str,
    options: &ExtractOptions,
    out: &mut BTreeMap<String, Value>,
) {
    let mut member_props: BTreeMap<PropIdOrd, Vec<f64>> = BTreeMap::new();
    for &t in targets {
        for (&pid, v) in kg.properties_of(t) {
            if let PropertyValue::Literal(lit) = v {
                if let Some(x) = lit.as_f64() {
                    member_props.entry(PropIdOrd(pid)).or_default().push(x);
                }
            }
        }
    }
    for (pid, values) in member_props {
        if let Some(agg) = options.one_to_many.apply(&values) {
            let label = options.one_to_many.label();
            out.insert(
                format!("{name}.{label}({})", kg.prop_name(pid.0)),
                Value::Float(agg),
            );
        }
    }
}

/// Ordered wrapper so member aggregation is deterministic.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct PropIdOrd(crate::graph::PropId);

/// Builds the tightest column for mixed extracted values: Int64 if all
/// integers, Float64 if all numeric, Bool if all boolean, else Utf8 via
/// display conversion.
fn build_column(values: &[Value]) -> Column {
    let mut all_int = true;
    let mut all_num = true;
    let mut all_bool = true;
    let mut any = false;
    for v in values {
        match v {
            Value::Null => {}
            Value::Int(_) => {
                any = true;
                all_bool = false;
            }
            Value::Float(_) => {
                any = true;
                all_int = false;
                all_bool = false;
            }
            Value::Bool(_) => {
                any = true;
                all_int = false;
                all_num = false;
            }
            Value::Str(_) => {
                any = true;
                all_int = false;
                all_num = false;
                all_bool = false;
            }
        }
    }
    if !any {
        return Column::from_opt_strs(&vec![None::<&str>; values.len()]);
    }
    if all_int {
        Column::from_values(DataType::Int64, values).expect("all ints")
    } else if all_num {
        Column::from_values(DataType::Float64, values).expect("all numeric")
    } else if all_bool {
        Column::from_values(DataType::Bool, values).expect("all bools")
    } else {
        let strs: Vec<Option<String>> = values
            .iter()
            .map(|v| match v {
                Value::Null => None,
                other => Some(other.to_string()),
            })
            .collect();
        Column::from_opt_strs(&strs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct entities of per-row links in first-appearance order.
    fn distinct(links: &[Option<EntityId>]) -> Vec<EntityId> {
        let mut out = Vec::new();
        for &id in links.iter().flatten() {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    #[test]
    fn repeated_entities_keep_their_first_position() {
        let (kg, us, ru) = toy();
        let ea = extract(&kg, &[ru, us, ru], &ExtractOptions::default());
        assert_eq!(ea.entity_ids, vec![ru, us]);
        assert_eq!(ea.index_of[&us], 1);
        assert_eq!(ea.table.n_rows(), 2);
    }

    /// us: hdi, gdp, leader(biden{age}), ethnicGroup->[g1{population},g2{population}]
    /// ru: hdi only
    fn toy() -> (KnowledgeGraph, EntityId, EntityId) {
        let mut kg = KnowledgeGraph::new();
        let us = kg.add_entity("United States", "Country");
        let ru = kg.add_entity("Russia", "Country");
        let biden = kg.add_entity("Joe Biden", "Person");
        let g1 = kg.add_entity("Group A", "EthnicGroup");
        let g2 = kg.add_entity("Group B", "EthnicGroup");
        kg.set_literal(us, "hdi", 0.921);
        kg.set_literal(us, "gdp", 21.0);
        kg.set_literal(ru, "hdi", 0.822);
        kg.set_property(us, "leader", PropertyValue::Entity(biden));
        kg.set_literal(biden, "age", 81i64);
        kg.set_property(us, "ethnicGroup", PropertyValue::EntityList(vec![g1, g2]));
        kg.set_literal(g1, "population", 100.0);
        kg.set_literal(g2, "population", 300.0);
        (kg, us, ru)
    }

    #[test]
    fn one_hop_extraction() {
        let (kg, us, ru) = toy();
        let links = vec![Some(us), Some(ru), Some(us), None];
        let ea = extract(&kg, &distinct(&links), &ExtractOptions::default());
        assert_eq!(ea.entity_ids, vec![us, ru]);
        assert_eq!(ea.table.n_rows(), 2);
        let names = ea.attribute_names();
        assert!(names.contains(&"hdi"));
        assert!(names.contains(&"gdp"));
        assert!(names.contains(&"leader"));
        assert!(names.contains(&"ethnicGroup.count"));
        // 1 hop: no leader.age, no member aggregation.
        assert!(!names.iter().any(|n| n.contains("leader.age")));
        assert!(!names.iter().any(|n| n.contains("avg")));
        // Universal relation: ru has null gdp.
        assert_eq!(ea.table.value(1, "gdp").unwrap(), Value::Null);
        assert_eq!(
            ea.table.value(0, "leader").unwrap(),
            Value::Str("Joe Biden".into())
        );
    }

    #[test]
    fn two_hop_extraction_follows_links_and_aggregates() {
        let (kg, us, ru) = toy();
        let links = vec![Some(us), Some(ru)];
        let ea = extract(
            &kg,
            &distinct(&links),
            &ExtractOptions {
                hops: 2,
                one_to_many: OneToManyAgg::Mean,
            },
        );
        let names = ea.attribute_names();
        assert!(names.contains(&"leader.age"), "{names:?}");
        assert!(names.contains(&"ethnicGroup.avg(population)"), "{names:?}");
        assert_eq!(ea.table.value(0, "leader.age").unwrap(), Value::Int(81));
        assert_eq!(
            ea.table.value(0, "ethnicGroup.avg(population)").unwrap(),
            Value::Float(200.0)
        );
        assert_eq!(ea.table.value(1, "leader.age").unwrap(), Value::Null);
    }

    #[test]
    fn one_to_many_aggregators() {
        assert_eq!(OneToManyAgg::Sum.apply(&[1.0, 2.0]), Some(3.0));
        assert_eq!(OneToManyAgg::Max.apply(&[1.0, 2.0]), Some(2.0));
        assert_eq!(OneToManyAgg::Min.apply(&[1.0, 2.0]), Some(1.0));
        assert_eq!(OneToManyAgg::First.apply(&[5.0, 2.0]), Some(5.0));
        assert_eq!(OneToManyAgg::Mean.apply(&[]), None);
    }

    #[test]
    fn expand_to_rows_roundtrip() {
        let (kg, us, ru) = toy();
        let links = vec![Some(us), Some(ru), None, Some(us)];
        let ea = extract(&kg, &distinct(&links), &ExtractOptions::default());
        let col = ea.expand_to_rows(&links, "hdi").unwrap();
        assert_eq!(col.len(), 4);
        assert_eq!(col.f64_at(0), Some(0.921));
        assert_eq!(col.f64_at(1), Some(0.822));
        assert!(col.is_null(2));
        assert_eq!(col.f64_at(3), Some(0.921));

        let t = ea.expand_all(&links).unwrap();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), ea.table.n_cols());
    }

    #[test]
    fn empty_links_extract_empty() {
        let (kg, _, _) = toy();
        let ea = extract(&kg, &[], &ExtractOptions::default());
        assert_eq!(ea.table.n_rows(), 0);
        assert_eq!(ea.entity_ids.len(), 0);
    }

    #[test]
    fn column_type_inference() {
        let vals = vec![Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(build_column(&vals).dtype(), DataType::Int64);
        let vals = vec![Value::Int(1), Value::Float(2.5)];
        assert_eq!(build_column(&vals).dtype(), DataType::Float64);
        let vals = vec![Value::Bool(true), Value::Null];
        assert_eq!(build_column(&vals).dtype(), DataType::Bool);
        let vals = vec![Value::Str("x".into()), Value::Int(1)];
        assert_eq!(build_column(&vals).dtype(), DataType::Utf8);
        let vals = vec![Value::Null, Value::Null];
        let c = build_column(&vals);
        assert_eq!(c.null_count(), 2);
    }

    #[test]
    fn self_referencing_entities_terminate() {
        // a → b → a cycle plus a self-loop: extraction is bounded by hops.
        let mut kg = KnowledgeGraph::new();
        let a = kg.add_entity("A", "Thing");
        let b = kg.add_entity("B", "Thing");
        kg.set_property(a, "peer", PropertyValue::Entity(b));
        kg.set_property(b, "peer", PropertyValue::Entity(a));
        kg.set_property(a, "me", PropertyValue::Entity(a));
        kg.set_literal(a, "x", 1.0);
        kg.set_literal(b, "x", 2.0);
        let ea = extract(
            &kg,
            &[a],
            &ExtractOptions {
                hops: 3,
                one_to_many: OneToManyAgg::Mean,
            },
        );
        let names = ea.attribute_names();
        // Flattened chains exist up to depth 3 and no further.
        assert!(names.contains(&"peer.peer.x"), "{names:?}");
        assert!(
            !names.iter().any(|n| n.matches("peer.").count() > 2),
            "{names:?}"
        );
        assert_eq!(ea.table.value(0, "peer.peer.x").unwrap(), Value::Float(1.0));
    }

    #[test]
    fn three_hops_no_new_attributes_on_toy() {
        // The toy graph is exhausted at 2 hops; 3 hops must not add noise.
        let (kg, us, ru) = toy();
        let links = vec![Some(us), Some(ru)];
        let two = extract(
            &kg,
            &distinct(&links),
            &ExtractOptions {
                hops: 2,
                one_to_many: OneToManyAgg::Mean,
            },
        );
        let three = extract(
            &kg,
            &distinct(&links),
            &ExtractOptions {
                hops: 3,
                one_to_many: OneToManyAgg::Mean,
            },
        );
        assert_eq!(two.table.n_cols(), three.table.n_cols());
    }
}
