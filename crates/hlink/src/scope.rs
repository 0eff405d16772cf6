//! Scoped linking: the hierarchical namespace of Figure 2.
//!
//! "Hemlock allows modules to have their own search path and list of
//! modules, which in turn may have their own lists, recursively. ...
//! When a module M is brought in, its undefined references are first
//! resolved against the external symbols of modules found on M's own
//! module list and search path. If this step is not completely
//! successful, consideration moves up to the module(s) that caused M to
//! be loaded in — M's 'parent' ... and so on. The linking structure of a
//! program can be viewed as a DAG, in which children can search up from
//! their current position to the root, but never down."

use crate::error::LinkError;
use std::collections::{HashMap, HashSet, VecDeque};

/// The reserved node name for the main load image (the DAG root).
pub const ROOT: &str = "<main>";

/// The link DAG: which module(s) caused each module to be loaded.
#[derive(Clone, Debug, Default)]
pub struct LinkDag {
    parents: HashMap<String, Vec<String>>,
}

impl LinkDag {
    /// Creates an empty DAG (only the implicit root).
    pub fn new() -> LinkDag {
        LinkDag::default()
    }

    /// Records that `parent` caused `child` to be loaded. Duplicate edges
    /// are ignored; an edge that would point *down* from the root to an
    /// existing ancestor is fine (the structure is a DAG, not a tree).
    pub fn add_edge(&mut self, child: &str, parent: &str) {
        // Look up before inserting, so a known child costs no key copy.
        let Some(parents) = self.parents.get_mut(child) else {
            self.parents
                .insert(child.to_string(), vec![parent.to_string()]);
            return;
        };
        if !parents.iter().any(|p| p == parent) {
            parents.push(parent.to_string());
        }
    }

    /// The parents of `child` (empty ⇒ effectively rooted).
    pub fn parents_of(&self, child: &str) -> &[String] {
        self.parents.get(child).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The upward escalation order from `start`: `start` itself, then its
    /// parents in registration order, then grandparents, breadth-first,
    /// ending at [`ROOT`]. Each node appears once; children are never
    /// visited (search goes up, "never down").
    pub fn escalation_chain(&self, start: &str) -> Vec<String> {
        let mut order = Vec::new();
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(start.to_string());
        seen.insert(start.to_string());
        while let Some(node) = queue.pop_front() {
            if node == ROOT {
                continue; // the root is emitted last, exactly once
            }
            order.push(node.clone());
            for p in self.parents_of(&node) {
                if seen.insert(p.clone()) {
                    queue.push_back(p.clone());
                }
            }
        }
        order.push(ROOT.to_string());
        order
    }

    /// Where `module` sits on `start`'s upward escalation chain (0 is
    /// `start` itself). A module that is not reachable upward — a
    /// sibling, or a child — is out of scope and yields an error rather
    /// than a panic: scoped search goes up, "never down".
    pub fn escalation_position(&self, start: &str, module: &str) -> Result<usize, LinkError> {
        self.escalation_chain(start)
            .iter()
            .position(|n| n == module)
            .ok_or_else(|| LinkError::NotInScope {
                module: module.to_string(),
                from: start.to_string(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_chain_escalates_to_root() {
        let mut dag = LinkDag::new();
        dag.add_edge("E", "D");
        dag.add_edge("D", ROOT);
        assert_eq!(dag.escalation_chain("E"), vec!["E", "D", ROOT]);
    }

    #[test]
    fn figure2_shape() {
        // EXECUTABLE uses A, B, C; A uses D and E; D uses G; C uses E and
        // F; F uses G. (Letters as in Figure 2.)
        let mut dag = LinkDag::new();
        for m in ["A", "B", "C"] {
            dag.add_edge(m, ROOT);
        }
        dag.add_edge("D", "A");
        dag.add_edge("E", "A");
        dag.add_edge("G", "D");
        dag.add_edge("E", "C");
        dag.add_edge("F", "C");
        dag.add_edge("G", "F");
        // G escalates through both its parents before the root.
        let chain = dag.escalation_chain("G");
        assert_eq!(chain.first().unwrap(), "G");
        assert_eq!(chain.last().unwrap(), ROOT);
        assert!(chain.contains(&"D".to_string()));
        assert!(chain.contains(&"F".to_string()));
        assert!(chain.contains(&"A".to_string()));
        assert!(chain.contains(&"C".to_string()));
        // Never down: B is not on G's chain, and asking for its
        // position is a LinkError, not a panic.
        assert!(!chain.contains(&"B".to_string()));
        assert_eq!(
            dag.escalation_position("G", "B"),
            Err(LinkError::NotInScope {
                module: "B".into(),
                from: "G".into(),
            })
        );
        // D comes before A (breadth-first upward).
        let pos = |n: &str| dag.escalation_position("G", n).unwrap();
        assert!(pos("D") < pos("A"));
        assert!(pos("F") < pos("C"));
    }

    #[test]
    fn diamond_visits_once() {
        let mut dag = LinkDag::new();
        dag.add_edge("X", "L");
        dag.add_edge("X", "R");
        dag.add_edge("L", "P");
        dag.add_edge("R", "P");
        dag.add_edge("P", ROOT);
        let chain = dag.escalation_chain("X");
        assert_eq!(chain, vec!["X", "L", "R", "P", ROOT]);
    }

    #[test]
    fn unknown_module_still_reaches_root() {
        let dag = LinkDag::new();
        assert_eq!(dag.escalation_chain("orphan"), vec!["orphan", ROOT]);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let mut dag = LinkDag::new();
        dag.add_edge("A", ROOT);
        dag.add_edge("A", ROOT);
        assert_eq!(dag.parents_of("A").len(), 1);
    }

    #[test]
    fn cycle_terminates() {
        // Should not happen in practice, but the walk must not hang.
        let mut dag = LinkDag::new();
        dag.add_edge("A", "B");
        dag.add_edge("B", "A");
        let chain = dag.escalation_chain("A");
        assert_eq!(chain.last().unwrap(), ROOT);
        assert_eq!(chain.iter().filter(|n| *n == "A").count(), 1);
    }
}
