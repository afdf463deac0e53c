//! Disjoint-set (union–find) structure with union by rank and path halving.
//!
//! Used by the generators to guarantee connectivity (the paper assumes a
//! connected network).

/// Union–find over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
    num_sets: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            num_sets: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure tracks zero elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently present.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Find the representative of `x`, with path halving.
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Union the sets containing `a` and `b`.  Returns `true` if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo] = hi as u32;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.num_sets -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert_eq!(uf.len(), 5);
        assert!(!uf.is_empty());
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.num_sets(), 2);
        assert!(uf.connected(0, 1));
        assert!(!uf.connected(1, 2));
        assert!(uf.union(1, 3));
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.connected(0, 2));
    }

    #[test]
    fn union_of_same_set_is_noop() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.num_sets(), 2);
    }

    #[test]
    fn transitive_connectivity_chain() {
        let mut uf = UnionFind::new(64);
        for i in 0..63 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.num_sets(), 1);
        assert!(uf.connected(0, 63));
    }

    #[test]
    fn empty_structure() {
        let uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.num_sets(), 0);
    }
}
