//! Interning of foreign identifiers.
//!
//! Real controller logs identify users by hashed MAC strings and APs by
//! names like `"lib-3f-ap07"`. The toolkit wants dense `u32` newtypes (flat
//! per-entity state). [`IdInterner`] maps arbitrary strings to dense ids,
//! stably and reversibly — the bridge for ingesting real traces.

use std::collections::HashMap;

/// A stable string → dense-index interner.
///
/// Indices are assigned in first-seen order, so interning the same stream
/// twice yields identical mappings.
///
/// # Example
/// ```
/// # use s3_trace::interner::IdInterner;
/// let mut ids = IdInterner::new();
/// assert_eq!(ids.intern("aa:bb:cc"), 0);
/// assert_eq!(ids.intern("11:22:33"), 1);
/// assert_eq!(ids.intern("aa:bb:cc"), 0); // stable
/// assert_eq!(ids.resolve(1), Some("11:22:33"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdInterner {
    by_name: HashMap<String, u32>,
    names: Vec<String>,
}

impl IdInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        IdInterner::default()
    }

    /// Returns the dense index for `name`, assigning the next free index on
    /// first sight.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct names (unreachable in practice).
    pub fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("interner overflow");
        self.by_name.insert(name.to_string(), id);
        self.names.push(name.to_string());
        id
    }

    /// The index of `name` if already interned.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.by_name.get(name).copied()
    }

    /// The original name behind `id`.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates `(index, name)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }

    /// Writes the mapping as two-column CSV (`id,name`), then flushes the
    /// writer.
    ///
    /// # Errors
    ///
    /// Propagates writer failures, the final flush's included.
    pub fn write_csv<W: std::io::Write>(&self, mut w: W) -> std::io::Result<()> {
        writeln!(w, "id,name")?;
        for (id, name) in self.iter() {
            // Names may contain commas; quote minimally.
            if name.contains(',') || name.contains('"') {
                writeln!(w, "{id},\"{}\"", name.replace('"', "\"\""))?;
            } else {
                writeln!(w, "{id},{name}")?;
            }
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut ids = IdInterner::new();
        assert!(ids.is_empty());
        let a = ids.intern("alpha");
        let b = ids.intern("beta");
        let a2 = ids.intern("alpha");
        assert_eq!((a, b, a2), (0, 1, 0));
        assert_eq!(ids.len(), 2);
        assert_eq!(ids.get("beta"), Some(1));
        assert_eq!(ids.get("gamma"), None);
    }

    #[test]
    fn resolve_inverts_intern() {
        let mut ids = IdInterner::new();
        for name in ["x", "y", "z"] {
            ids.intern(name);
        }
        for (id, name) in ids.iter() {
            assert_eq!(ids.resolve(id), Some(name));
            assert_eq!(ids.get(name), Some(id));
        }
        assert_eq!(ids.resolve(99), None);
    }

    #[test]
    fn same_stream_same_mapping() {
        let stream = ["u1", "u7", "u1", "u3", "u7"];
        let mut a = IdInterner::new();
        let mut b = IdInterner::new();
        let ids_a: Vec<u32> = stream.iter().map(|s| a.intern(s)).collect();
        let ids_b: Vec<u32> = stream.iter().map(|s| b.intern(s)).collect();
        assert_eq!(ids_a, ids_b);
    }

    #[test]
    fn csv_output_escapes_commas() {
        let mut ids = IdInterner::new();
        ids.intern("plain");
        ids.intern("with,comma");
        ids.intern("with\"quote");
        let mut buf = Vec::new();
        ids.write_csv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("0,plain"));
        assert!(text.contains("1,\"with,comma\""));
        assert!(text.contains("2,\"with\"\"quote\""));
    }
}
