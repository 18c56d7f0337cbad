//! Table I: the qualitative comparison grid.
//!
//! The paper's Table I classifies related systems by which of the three
//! requirements they meet. This module encodes the grid so `fig all`
//! can print it, and tests can assert that CRONUS is the only row
//! satisfying R1, R2, R3.1 and R3.2 simultaneously.

/// Whether a system provides a property.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Support {
    /// Provides the property.
    Yes,
    /// Does not provide it.
    No,
    /// Not applicable / not addressed.
    NotApplicable,
}

impl std::fmt::Display for Support {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Support::Yes => f.write_str("yes"),
            Support::No => f.write_str("no"),
            Support::NotApplicable => f.write_str("n/a"),
        }
    }
}

/// One row of Table I.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SystemRow {
    /// System name.
    pub system: &'static str,
    /// Approach category.
    pub category: &'static str,
    /// Accelerator kinds supported.
    pub accelerators: &'static str,
    /// R1: general accelerators without hardware customization.
    pub r1_general: Support,
    /// R2: spatial sharing of one accelerator.
    pub r2_spatial: Support,
    /// R3.1: fault isolation across accelerators.
    pub r3_1_fault: Support,
    /// R3.2: security isolation across accelerators.
    pub r3_2_security: Support,
}

impl SystemRow {
    /// True if every requirement is met.
    pub fn meets_all(&self) -> bool {
        [
            self.r1_general,
            self.r2_spatial,
            self.r3_1_fault,
            self.r3_2_security,
        ]
        .iter()
        .all(|s| *s == Support::Yes)
    }
}

/// Builds the Table I grid.
pub fn comparison_table() -> Vec<SystemRow> {
    use Support::*;
    vec![
        SystemRow {
            system: "HETEE",
            category: "hardware (bus)",
            accelerators: "PCIe accelerators",
            r1_general: No,
            r2_spatial: No,
            r3_1_fault: Yes,
            r3_2_security: Yes,
        },
        SystemRow {
            system: "CURE",
            category: "hardware (bus)",
            accelerators: "AXI accelerators",
            r1_general: No,
            r2_spatial: No,
            r3_1_fault: Yes,
            r3_2_security: Yes,
        },
        SystemRow {
            system: "HIX",
            category: "hardware (bus)",
            accelerators: "GPU",
            r1_general: No,
            r2_spatial: No,
            r3_1_fault: NotApplicable,
            r3_2_security: Yes,
        },
        SystemRow {
            system: "Graviton",
            category: "hardware (accelerator)",
            accelerators: "GPU",
            r1_general: No,
            r2_spatial: Yes,
            r3_1_fault: Yes,
            r3_2_security: Yes,
        },
        SystemRow {
            system: "SGX-FPGA",
            category: "hardware (accelerator)",
            accelerators: "FPGA",
            r1_general: No,
            r2_spatial: No,
            r3_1_fault: NotApplicable,
            r3_2_security: Yes,
        },
        SystemRow {
            system: "Panoply",
            category: "software",
            accelerators: "none",
            r1_general: NotApplicable,
            r2_spatial: NotApplicable,
            r3_1_fault: No,
            r3_2_security: No,
        },
        SystemRow {
            system: "TrustZone (monolithic)",
            category: "software",
            accelerators: "generic",
            r1_general: Yes,
            r2_spatial: Yes,
            r3_1_fault: No,
            r3_2_security: No,
        },
        SystemRow {
            system: "Ji et al.",
            category: "software (microkernel)",
            accelerators: "none",
            r1_general: NotApplicable,
            r2_spatial: NotApplicable,
            r3_1_fault: No,
            r3_2_security: No,
        },
        SystemRow {
            system: "CRONUS",
            category: "software (MicroTEE)",
            accelerators: "generic",
            r1_general: Yes,
            r2_spatial: Yes,
            r3_1_fault: Yes,
            r3_2_security: Yes,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_cronus_meets_everything() {
        let table = comparison_table();
        let winners: Vec<&str> = table
            .iter()
            .filter(|r| r.meets_all())
            .map(|r| r.system)
            .collect();
        assert_eq!(winners, vec!["CRONUS"]);
    }

    #[test]
    fn hardware_rows_fail_r1() {
        for row in comparison_table() {
            if row.category.starts_with("hardware") {
                assert_eq!(row.r1_general, Support::No, "{}", row.system);
            }
        }
    }

    #[test]
    fn grid_has_all_papers_rows() {
        let names: Vec<&str> = comparison_table().iter().map(|r| r.system).collect();
        for expected in ["HIX", "Graviton", "TrustZone (monolithic)", "CRONUS"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }
}
