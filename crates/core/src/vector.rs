//! Attack vectors (§III-C).

/// The three ways RoboTack hijacks a perceived trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackVector {
    /// Fool the EV into believing the target object is moving out of the EV
    /// lane (or staying out while actually moving in) → the EV accelerates
    /// or fails to brake → collision.
    MoveOut,
    /// Fool the EV into believing the target object is moving into the EV
    /// lane → forced emergency braking.
    MoveIn,
    /// Fool the EV into believing the target object has vanished — same
    /// consequences as Move_Out, with a larger perturbation bounded by the
    /// natural misdetection-streak envelope.
    Disappear,
}

impl AttackVector {
    /// All attack vectors.
    pub const ALL: [AttackVector; 3] = [
        AttackVector::MoveOut,
        AttackVector::MoveIn,
        AttackVector::Disappear,
    ];

    /// The paper's name for the vector.
    pub fn name(self) -> &'static str {
        match self {
            AttackVector::MoveOut => "Move_Out",
            AttackVector::MoveIn => "Move_In",
            AttackVector::Disappear => "Disappear",
        }
    }
}

impl std::fmt::Display for AttackVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper() {
        assert_eq!(AttackVector::MoveOut.to_string(), "Move_Out");
        assert_eq!(AttackVector::MoveIn.to_string(), "Move_In");
        assert_eq!(AttackVector::Disappear.to_string(), "Disappear");
        assert_eq!(AttackVector::ALL.len(), 3);
    }
}
