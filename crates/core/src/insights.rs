//! The paper's per-instance insights and closing lessons, as a queryable
//! catalog (Insights 1–6 follow §5/§6; the three lessons close §11).
//!
//! Keeping them in code lets the `repro` harness print them next to each
//! finding, and lets tests assert the mapping between instances, insights
//! and the interaction dimension each lesson addresses.

use cellstack::Dimension;

use crate::findings::Instance;

/// One of the paper's numbered insights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insight {
    /// Insight number (1–6), matching the paper's order.
    pub number: u8,
    /// The instance it distills.
    pub instance: Instance,
    /// The insight text (lightly compressed from the paper).
    pub text: &'static str,
}

/// All six insights.
pub const INSIGHTS: [Insight; 6] = [
    Insight {
        number: 1,
        instance: Instance::S1,
        text: "For contexts shared between different systems, the actions \
               and policies shall be consistent across systems; otherwise \
               cross-system issues may arise.",
    },
    Insight {
        number: 2,
        instance: Instance::S2,
        text: "During cross-layer interactions, the key functionality of \
               upper-layer protocols should not merely rely on \
               non-always-guaranteed features in lower layers.",
    },
    Insight {
        number: 3,
        instance: Instance::S3,
        text: "Well-designed features can become error-prone as new \
               functions are enabled; design options should be prudently \
               justified, tested and regulated.",
    },
    Insight {
        number: 4,
        instance: Instance::S4,
        text: "Procedures in upper and lower layers that seem independent \
               can be coupled by their execution order; without prudent \
               design, head-of-line blocking happens.",
    },
    Insight {
        number: 5,
        instance: Instance::S5,
        text: "When two domains have different goals and properties, their \
               services should be decoupled as much as possible, or at \
               least one domain's demands will be sacrificed.",
    },
    Insight {
        number: 6,
        instance: Instance::S6,
        text: "The same functions in different networks should be \
               coordinated; in particular, an internal failure in one \
               network should not be propagated to another.",
    },
];

/// One of the §11 closing lessons, each addressing one dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lesson {
    /// The dimension the lesson covers.
    pub dimension: Dimension,
    /// The lesson text.
    pub text: &'static str,
}

/// The three domain-specific lessons of §11.
pub const LESSONS: [Lesson; 3] = [
    Lesson {
        dimension: Dimension::CrossLayer,
        text: "Honor the Internet's well-tested layering rule: if the lower \
               layer does not provide a function, the higher layer must \
               provide it itself or be prepared to work without it; \
               coupling inter-layer actions needs proper justification.",
    },
    Lesson {
        dimension: Dimension::CrossDomain,
        text: "Signaling design should recognize inter-domain differences; \
               treating CS and PS identically reduces apparent complexity \
               but is overly simplistic and error-prone.",
    },
    Lesson {
        dimension: Dimension::CrossSystem,
        text: "Failure messages may be shared and acted upon between \
               systems, but failure-handling operations are better kept \
               inside the system unless absolutely needed.",
    },
];

/// Look up the insight distilled from an instance.
pub fn insight_for(instance: Instance) -> &'static Insight {
    INSIGHTS
        .iter()
        .find(|i| i.instance == instance)
        .expect("every instance has an insight")
}

/// The lesson covering a dimension.
pub fn lesson_for(dimension: Dimension) -> &'static Lesson {
    LESSONS
        .iter()
        .find(|l| l.dimension == dimension)
        .expect("every dimension has a lesson")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_insights_in_paper_order() {
        for (i, ins) in INSIGHTS.iter().enumerate() {
            assert_eq!(usize::from(ins.number), i + 1);
            assert_eq!(ins.instance, Instance::ALL[i]);
            assert!(!ins.text.is_empty());
        }
    }

    #[test]
    fn every_instance_has_an_insight() {
        for inst in Instance::ALL {
            assert_eq!(insight_for(inst).instance, inst);
        }
    }

    #[test]
    fn lessons_cover_all_three_dimensions() {
        for dim in [
            Dimension::CrossLayer,
            Dimension::CrossDomain,
            Dimension::CrossSystem,
        ] {
            assert_eq!(lesson_for(dim).dimension, dim);
        }
    }

    #[test]
    fn insight_dimensions_are_consistent_with_table1() {
        // Each insight's instance spans the dimension its lesson covers.
        assert!(insight_for(Instance::S2)
            .instance
            .dimensions()
            .contains(&Dimension::CrossLayer));
        assert!(insight_for(Instance::S5)
            .instance
            .dimensions()
            .contains(&Dimension::CrossDomain));
        assert!(insight_for(Instance::S6)
            .instance
            .dimensions()
            .contains(&Dimension::CrossSystem));
    }
}
