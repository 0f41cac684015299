//! Background-knowledge representation.
//!
//! Knowledge is anything the adversary knows beyond the published data.
//! The paper's two categories are both supported:
//!
//! * **Knowledge about the data distribution** (Section 4):
//!   [`Knowledge::Conditional`] — `P(s | Qv) = p` for a QI-subset value
//!   combination `Qv`. Association rules (positive and negative) reduce to
//!   this form via [`Knowledge::from_rule`].
//! * **Knowledge about individuals** (Section 6): probabilistic statements
//!   about pseudonymous persons — a single SA value, a disjunction of SA
//!   values, or a count over a group of people.

use pm_anonymize::pseudonym::PseudonymId;
use pm_assoc::rule::AssociationRule;
use pm_microdata::schema::Schema;
use pm_microdata::value::Value;

use crate::error::CoreError;

/// One unit of background knowledge.
#[derive(Debug, Clone, PartialEq)]
pub enum Knowledge {
    /// `P(sa = s | Qv) = probability` — knowledge about the data
    /// distribution (Section 4.1).
    ///
    /// `antecedent` holds `(qi_position, value)` pairs, where `qi_position`
    /// indexes into the QI *tuple* (the projection order of
    /// `Schema::qi_attrs`), not the raw attribute id.
    Conditional {
        /// `(position within QI tuple, value)` pairs, ascending by position.
        antecedent: Vec<(usize, Value)>,
        /// The SA value.
        sa: Value,
        /// The pinned conditional probability.
        probability: f64,
    },
    /// "The probability that person `i` has `s` is `p`" (Section 6, form 1).
    IndividualSa {
        /// Pseudonym of the person.
        pseudonym: PseudonymId,
        /// SA value.
        sa: Value,
        /// Probability.
        probability: f64,
    },
    /// "Person `i` has one of `sas`" (Section 6, form 2).
    IndividualOneOf {
        /// Pseudonym of the person.
        pseudonym: PseudonymId,
        /// The possible SA values (certainty: their probabilities sum to 1).
        sas: Vec<Value>,
    },
    /// "Exactly `count` among `pseudonyms` have `sa`" (Section 6, form 3).
    GroupCount {
        /// The people involved.
        pseudonyms: Vec<PseudonymId>,
        /// The shared SA value.
        sa: Value,
        /// How many of them have it.
        count: usize,
    },
}

impl Knowledge {
    /// Converts an association rule into conditional-probability knowledge.
    ///
    /// The rule's antecedent uses raw attribute ids; this translates them to
    /// QI-tuple positions using the schema. A negative rule `Qv ⇒ ¬s` with
    /// confidence `c` pins `P(s | Qv) = 1 − c`.
    pub fn from_rule(rule: &AssociationRule, schema: &Schema) -> Result<Self, CoreError> {
        let qi_attrs = schema.qi_attrs();
        let mut antecedent = Vec::with_capacity(rule.antecedent.len());
        for &(attr, value) in &rule.antecedent {
            let pos = qi_attrs.iter().position(|&a| a == attr).ok_or_else(|| {
                CoreError::InvalidKnowledge {
                    detail: format!("attribute {attr} is not a quasi-identifier"),
                }
            })?;
            antecedent.push((pos, value));
        }
        antecedent.sort_unstable_by_key(|&(p, _)| p);
        Ok(Self::Conditional {
            antecedent,
            sa: rule.sa_value,
            probability: rule.conditional_probability(),
        })
    }

    /// Whether this item concerns individuals (and therefore needs the
    /// pseudonym-expanded system of [`crate::individuals`]).
    pub fn is_individual(&self) -> bool {
        !matches!(self, Self::Conditional { .. })
    }

    /// Validates probability ranges.
    pub fn validate(&self) -> Result<(), CoreError> {
        let check = |p: f64| {
            if (0.0..=1.0).contains(&p) {
                Ok(())
            } else {
                Err(CoreError::InvalidProbability(p))
            }
        };
        match self {
            Self::Conditional { probability, .. } | Self::IndividualSa { probability, .. } => {
                check(*probability)
            }
            Self::IndividualOneOf { sas, .. } => {
                if sas.is_empty() {
                    Err(CoreError::InvalidKnowledge {
                        detail: "empty SA disjunction".into(),
                    })
                } else {
                    Ok(())
                }
            }
            Self::GroupCount { pseudonyms, count, .. } => {
                if *count > pseudonyms.len() {
                    Err(CoreError::InvalidKnowledge {
                        detail: format!(
                            "count {count} exceeds group size {}",
                            pseudonyms.len()
                        ),
                    })
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// An ordered collection of knowledge items; the ME constraint index of each
/// item is its position here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KnowledgeBase {
    items: Vec<Knowledge>,
}

impl KnowledgeBase {
    /// Empty knowledge base (the "no background knowledge" assumption of
    /// prior work).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a base from association rules (the Top-(K+, K−) bound).
    pub fn from_rules<'a, I>(rules: I, schema: &Schema) -> Result<Self, CoreError>
    where
        I: IntoIterator<Item = &'a AssociationRule>,
    {
        let mut kb = Self::new();
        for r in rules {
            kb.push(Knowledge::from_rule(r, schema)?)?;
        }
        Ok(kb)
    }

    /// Appends a validated item.
    pub fn push(&mut self, k: Knowledge) -> Result<(), CoreError> {
        k.validate()?;
        self.items.push(k);
        Ok(())
    }

    /// The items.
    pub fn items(&self) -> &[Knowledge] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the base is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Whether any item concerns individuals.
    pub fn has_individual_knowledge(&self) -> bool {
        self.items.iter().any(Knowledge::is_individual)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pm_assoc::rule::RulePolarity;
    use pm_microdata::schema::paper_example_schema;

    #[test]
    fn from_positive_rule() {
        let schema = paper_example_schema();
        let rule = AssociationRule {
            antecedent: vec![(0, 1)], // gender = female
            sa_value: 2,
            polarity: RulePolarity::Positive,
            antecedent_support: 4,
            support: 2,
            confidence: 0.5,
        };
        let k = Knowledge::from_rule(&rule, &schema).unwrap();
        assert_eq!(
            k,
            Knowledge::Conditional { antecedent: vec![(0, 1)], sa: 2, probability: 0.5 }
        );
    }

    #[test]
    fn from_negative_rule_inverts_confidence() {
        let schema = paper_example_schema();
        let rule = AssociationRule {
            antecedent: vec![(1, 0)], // degree = college
            sa_value: 3,
            polarity: RulePolarity::Negative,
            antecedent_support: 5,
            support: 4,
            confidence: 0.8,
        };
        let k = Knowledge::from_rule(&rule, &schema).unwrap();
        match k {
            Knowledge::Conditional { probability, .. } => {
                assert!((probability - 0.2).abs() < 1e-12)
            }
            _ => panic!("expected conditional"),
        }
    }

    #[test]
    fn non_qi_attribute_rejected() {
        let schema = paper_example_schema();
        let rule = AssociationRule {
            antecedent: vec![(2, 0)], // attribute 2 is the SA itself
            sa_value: 0,
            polarity: RulePolarity::Positive,
            antecedent_support: 1,
            support: 1,
            confidence: 1.0,
        };
        assert!(matches!(
            Knowledge::from_rule(&rule, &schema),
            Err(CoreError::InvalidKnowledge { .. })
        ));
    }

    #[test]
    fn validation() {
        let bad = Knowledge::Conditional { antecedent: vec![], sa: 0, probability: 1.5 };
        assert!(matches!(bad.validate(), Err(CoreError::InvalidProbability(_))));
        let bad = Knowledge::GroupCount { pseudonyms: vec![0], sa: 0, count: 2 };
        assert!(bad.validate().is_err());
        let ok = Knowledge::IndividualOneOf { pseudonym: 0, sas: vec![1, 2] };
        assert!(ok.validate().is_ok());
        let bad = Knowledge::IndividualOneOf { pseudonym: 0, sas: vec![] };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn individual_detection() {
        let mut kb = KnowledgeBase::new();
        kb.push(Knowledge::Conditional { antecedent: vec![], sa: 0, probability: 0.5 })
            .unwrap();
        assert!(!kb.has_individual_knowledge());
        kb.push(Knowledge::IndividualSa { pseudonym: 0, sa: 0, probability: 0.2 })
            .unwrap();
        assert!(kb.has_individual_knowledge());
        assert_eq!(kb.len(), 2);
    }
}
