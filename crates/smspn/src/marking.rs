//! Markings: token counts over the places of a net.

use std::fmt;
use std::ops::Index;

/// A marking assigns a token count to every place of the net.
///
/// Markings are the states of the reachability graph; they are hashed and compared
/// billions of times during state-space generation, so the representation is a plain
/// boxed slice of `u32` token counts (the paper's voting model never exceeds a few
/// hundred tokens on a place).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Marking {
    tokens: Box<[u32]>,
}

impl Marking {
    /// Creates a marking from explicit token counts.
    pub fn new(tokens: Vec<u32>) -> Self {
        Marking {
            tokens: tokens.into_boxed_slice(),
        }
    }

    /// Number of places.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True when the net has no places (degenerate).
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Token count of place `p`.
    #[inline]
    pub fn get(&self, p: usize) -> u32 {
        self.tokens[p]
    }

    /// Sets the token count of place `p` (used by firing actions).
    #[inline]
    pub fn set(&mut self, p: usize, value: u32) {
        self.tokens[p] = value;
    }

    /// Adds tokens to place `p`.
    #[inline]
    pub fn add(&mut self, p: usize, count: u32) {
        self.tokens[p] += count;
    }

    /// Removes tokens from place `p`.
    ///
    /// # Panics
    /// Panics if the place holds fewer than `count` tokens — a firing action that
    /// tries to remove missing tokens indicates an enabling-condition bug.
    #[inline]
    pub fn remove(&mut self, p: usize, count: u32) {
        assert!(
            self.tokens[p] >= count,
            "cannot remove {count} tokens from place {p} holding {}",
            self.tokens[p]
        );
        self.tokens[p] -= count;
    }

    /// Overwrites every token count with `tokens` (one per place).
    #[inline]
    pub fn copy_from(&mut self, tokens: &[u32]) {
        self.tokens.copy_from_slice(tokens);
    }

    /// The underlying token counts.
    pub fn as_slice(&self) -> &[u32] {
        &self.tokens
    }

    /// True when place `p` holds at least `count` tokens.
    #[inline]
    pub fn has_at_least(&self, p: usize, count: u32) -> bool {
        self.tokens[p] >= count
    }
}

impl Index<usize> for Marking {
    type Output = u32;
    fn index(&self, index: usize) -> &u32 {
        &self.tokens[index]
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        MarkingView::from(self).fmt(f)
    }
}

/// A borrowed marking: a row of an explored state space's marking matrix,
/// or a view of an owned [`Marking`].
#[derive(Debug, Clone, Copy)]
pub struct MarkingView<'a> {
    tokens: &'a [u32],
}

impl<'a> MarkingView<'a> {
    pub(crate) fn new(tokens: &'a [u32]) -> Self {
        MarkingView { tokens }
    }

    /// Token count of place `p`.
    #[inline]
    pub fn get(&self, p: usize) -> u32 {
        self.tokens[p]
    }

    /// The underlying token counts.
    pub fn as_slice(&self) -> &'a [u32] {
        self.tokens
    }
}

impl<'a> From<&'a Marking> for MarkingView<'a> {
    fn from(marking: &'a Marking) -> Self {
        MarkingView::new(&marking.tokens)
    }
}

impl fmt::Display for MarkingView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.tokens.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u32>> for Marking {
    fn from(tokens: Vec<u32>) -> Self {
        Marking::new(tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn construction_and_access() {
        let m = Marking::new(vec![3, 0, 7]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0), 3);
        assert_eq!(m[2], 7);
        assert!(m.has_at_least(0, 3));
        assert!(!m.has_at_least(1, 1));
        assert_eq!(m.as_slice(), &[3, 0, 7]);
        assert!(!m.is_empty());
    }

    #[test]
    fn mutation() {
        let mut m = Marking::new(vec![2, 1]);
        m.add(1, 3);
        m.remove(0, 2);
        m.set(0, 5);
        assert_eq!(m.as_slice(), &[5, 4]);
        m.copy_from(&[7, 0]);
        assert_eq!(m.as_slice(), &[7, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot remove")]
    fn remove_too_many_panics() {
        let mut m = Marking::new(vec![1]);
        m.remove(0, 2);
    }

    #[test]
    fn hashing_and_equality() {
        let a = Marking::new(vec![1, 2, 3]);
        let b = Marking::new(vec![1, 2, 3]);
        let c = Marking::new(vec![3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a.clone());
        set.insert(b);
        set.insert(c);
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn display_and_from() {
        let m: Marking = vec![1, 0, 2].into();
        assert_eq!(m.to_string(), "(1,0,2)");
        let view = MarkingView::from(&m);
        assert_eq!((view.get(2), view.as_slice()), (2, m.as_slice()));
        assert_eq!(view.to_string(), "(1,0,2)");
    }
}
