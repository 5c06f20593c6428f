//! The design keys of the per-stage store (`EvalCache::key_for`): a
//! change to any one field the key encodes changes the key, while equal
//! and cloned designs share it. Every stage store is keyed by it, so a
//! collision would answer one design's lookups with another's
//! artifacts.

use proptest::prelude::*;
use tdc_core::sweep::EvalCache;
use tdc_core::{ChipDesign, DieSpec};
use tdc_integration::{IntegrationFamily, IntegrationTechnology, StackOrientation};
use tdc_technode::ProcessNode;
use tdc_units::{Area, Efficiency};
use tdc_wirelength::RentParameters;
use tdc_yield::StackingFlow;

/// Every field of one die, so a test can change exactly one of them.
#[derive(Debug, Clone)]
struct Die {
    name: String,
    node: usize,
    gates: Option<f64>,
    area: Option<f64>,
    beol: Option<u32>,
    efficiency: Option<f64>,
    share: Option<f64>,
    rent: Option<[f64; 4]>,
}

impl Die {
    fn build(&self) -> DieSpec {
        let mut b = DieSpec::builder(self.name.clone(), ProcessNode::ALL[self.node]);
        if let Some(g) = self.gates {
            b = b.gate_count(g);
        }
        if let Some(a) = self.area {
            b = b.area(Area::from_mm2(a));
        }
        if let Some(l) = self.beol {
            b = b.beol_layers(l);
        }
        if let Some(e) = self.efficiency {
            b = b.efficiency(Efficiency::from_tops_per_watt(e));
        }
        if let Some(s) = self.share {
            b = b.compute_share(s);
        }
        if let Some([p, t, f, x]) = self.rent {
            b = b.rent(RentParameters::new(p, t, f, x).unwrap());
        }
        b.build().unwrap()
    }
}

/// Every field of one design. Shapes are built directly from the enum
/// (the key does not validate them, so neither does the test).
#[derive(Debug, Clone)]
struct Design {
    /// 0 = 2D, 1 = 3D stack, 2 = 2.5D assembly.
    shape: usize,
    tech: IntegrationTechnology,
    orientation: StackOrientation,
    flow: Option<StackingFlow>,
    dies: Vec<Die>,
}

impl Design {
    fn build(&self) -> ChipDesign {
        let dies: Vec<DieSpec> = self.dies.iter().map(Die::build).collect();
        match self.shape {
            0 => ChipDesign::monolithic_2d(dies[0].clone()),
            1 => ChipDesign::Stack3d {
                dies,
                tech: self.tech,
                orientation: self.orientation,
                flow: self.flow,
            },
            _ => ChipDesign::Assembly25d {
                dies,
                tech: self.tech,
            },
        }
    }

    fn key(&self) -> u128 {
        EvalCache::key_for(&self.build())
    }
}

/// The smallest change to a float: the next representable value.
fn nudge(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

/// Changes an optional field: sets it when absent, nudges it otherwise.
fn toggle(v: Option<f64>, fresh: f64) -> Option<f64> {
    Some(v.map_or(fresh, nudge))
}

/// The technologies of one integration family.
fn family(family: IntegrationFamily) -> Vec<IntegrationTechnology> {
    IntegrationTechnology::ALL
        .into_iter()
        .filter(|t| t.family() == family)
        .collect()
}

/// Every design that differs from `base` in exactly one encoded field,
/// with a name for the field.
fn one_field_changes(base: &Design) -> Vec<(String, Design)> {
    let mut out = Vec::new();
    let mut push = |field: &str, change: &dyn Fn(&mut Design)| {
        let mut d = base.clone();
        change(&mut d);
        out.push((field.to_owned(), d));
    };
    for i in 0..base.dies.len() {
        push(&format!("die {i} name"), &|d| d.dies[i].name.push('x'));
        push(&format!("die {i} node"), &|d| {
            d.dies[i].node = (d.dies[i].node + 1) % ProcessNode::ALL.len();
        });
        push(&format!("die {i} gate count"), &|d| {
            d.dies[i].gates = toggle(d.dies[i].gates, 2.0e9);
        });
        push(&format!("die {i} area override"), &|d| {
            d.dies[i].area = toggle(d.dies[i].area, 150.0);
        });
        push(&format!("die {i} BEOL override"), &|d| {
            d.dies[i].beol = Some(d.dies[i].beol.map_or(9, |l| l + 1));
        });
        push(&format!("die {i} efficiency"), &|d| {
            d.dies[i].efficiency = toggle(d.dies[i].efficiency, 2.5);
        });
        push(&format!("die {i} compute share"), &|d| {
            d.dies[i].share = toggle(d.dies[i].share, 0.5);
        });
        match base.dies[i].rent {
            None => push(&format!("die {i} rent"), &|d| {
                d.dies[i].rent = Some([0.6, 4.0, 3.0, 0.25]);
            }),
            Some(_) => {
                for (p, param) in ["exponent", "terminals", "fanout", "external"]
                    .iter()
                    .enumerate()
                {
                    push(&format!("die {i} rent {param}"), &|d| {
                        let rent = d.dies[i].rent.as_mut().unwrap();
                        rent[p] = nudge(rent[p]);
                    });
                }
            }
        }
    }
    if base.shape != 0 {
        let fam = base.tech.family();
        push("technology", &|d| {
            let techs = family(fam);
            let at = techs.iter().position(|t| *t == d.tech).unwrap();
            d.tech = techs[(at + 1) % techs.len()];
        });
        push("die order", &|d| d.dies.swap(0, 1));
        push("die count (one more)", &|d| {
            let extra = d.dies[0].clone();
            d.dies.push(extra);
        });
        push("die count (one fewer)", &|d| {
            d.dies.pop();
        });
    }
    if base.shape == 1 {
        push("orientation", &|d| {
            d.orientation = match d.orientation {
                StackOrientation::FaceToFace => StackOrientation::FaceToBack,
                StackOrientation::FaceToBack => StackOrientation::FaceToFace,
            };
        });
        push("flow", &|d| {
            d.flow = match d.flow {
                None => Some(StackingFlow::DieToWafer),
                Some(StackingFlow::DieToWafer) => Some(StackingFlow::WaferToWafer),
                Some(StackingFlow::WaferToWafer) => None,
            };
        });
    }
    out
}

/// A base design from sampled inputs: `optional` is a bit mask over
/// the optional die fields, so bases cover set and unset fields alike.
fn base_design(shape: usize, dies: usize, tech: usize, node: usize, optional: u32) -> Design {
    let fam = if shape == 2 {
        IntegrationFamily::TwoPointFiveD
    } else {
        IntegrationFamily::ThreeD
    };
    let techs = family(fam);
    let bit = |b: u32| optional & (1 << b) != 0;
    let count = if shape == 0 { 1 } else { dies };
    Design {
        shape,
        tech: techs[tech % techs.len()],
        orientation: if bit(7) {
            StackOrientation::FaceToFace
        } else {
            StackOrientation::FaceToBack
        },
        flow: bit(8).then_some(StackingFlow::DieToWafer),
        dies: (0..count)
            .map(|i| Die {
                name: format!("d{i}"),
                node: (node + i) % ProcessNode::ALL.len(),
                gates: (!bit(0)).then_some(4.0e9 + 1.0e8 * i as f64),
                area: bit(0).then_some(120.0 + i as f64),
                beol: bit(1).then_some(8),
                efficiency: bit(2).then_some(3.0),
                share: bit(3).then_some(0.25),
                rent: bit(4).then_some([0.55, 3.5, 2.5, 0.3]),
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each single-field change of a sampled design gets a key of its
    /// own, while rebuilding or cloning the design keeps its key.
    #[test]
    fn distinct_designs_get_distinct_keys(
        shape in 0usize..3,
        dies in 2usize..5,
        tech in 0usize..8,
        node in 0usize..ProcessNode::ALL.len(),
        optional in 0u32..512,
    ) {
        let base = base_design(shape, dies, tech, node, optional);
        let built = base.build();
        let key = EvalCache::key_for(&built);
        prop_assert_eq!(key, base.key(), "rebuilding the same design");
        prop_assert_eq!(key, EvalCache::key_for(&built.clone()), "a clone");
        for (field, changed) in one_field_changes(&base) {
            prop_assert!(changed.key() != key, "changing the {} kept the key", field);
        }
    }
}

#[test]
fn signed_zeros_get_distinct_keys() {
    // A zero compute share may carry either sign; the designs compare
    // equal as values but their bit patterns, and so their keys, differ.
    let with_share = |share: f64| {
        ChipDesign::monolithic_2d(
            DieSpec::builder("d", ProcessNode::N7)
                .gate_count(1.0e9)
                .compute_share(share)
                .build()
                .unwrap(),
        )
    };
    let (positive, negative) = (with_share(0.0), with_share(-0.0));
    assert_eq!(positive, negative);
    assert_ne!(EvalCache::key_for(&positive), EvalCache::key_for(&negative));
}

#[test]
fn hostile_die_names_cannot_collide() {
    // Names that embed separator-like text, or that shift characters
    // between neighbouring dies, must not make two different designs
    // encode identically: every name ends in a byte UTF-8 never uses.
    let named = |names: &[&str]| {
        let dies = names
            .iter()
            .map(|n| {
                DieSpec::builder(*n, ProcessNode::N7)
                    .gate_count(1.0e9)
                    .build()
                    .unwrap()
            })
            .collect::<Vec<_>>();
        if dies.len() == 1 {
            ChipDesign::monolithic_2d(dies[0].clone())
        } else {
            ChipDesign::assembly_25d(dies, IntegrationTechnology::Mcm).unwrap()
        }
    };
    let key = |names: &[&str]| EvalCache::key_for(&named(names));
    assert_ne!(key(&["d0"]), key(&["d0N7;~,~,~,~,~,~|"]));
    assert_ne!(key(&["ab", "c"]), key(&["a", "bc"]));
    assert_ne!(key(&["a", "b"]), key(&["a\u{1f}b", ""]));
}
