//! Model tests for the one-block tuple representation: every `Tuple`
//! operation against a `BTreeMap<String, Value>` model, and the
//! canonical form (equality, hash, display) independent of how a tuple
//! was put together. A `Scope` — tuples and quantifier bindings layered
//! over each other — is held to the tuple concatenation it stands for.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use proptest::prelude::*;

use nal::eval::{eval_scalar, Reference};
use nal::{EvalCtx, Scalar, Scope, Sym, Tuple, Value};

type Model = BTreeMap<String, Value>;

/// A small attribute pool, so generated tuples overlap and shadow.
const NAMES: [&str; 7] = ["a", "a'", "b1", "b10", "b2", "t", "zz"];

fn sym(i: u32) -> Sym {
    Sym::new(NAMES[i as usize % NAMES.len()])
}

fn pairs(raw: &[(u32, i64)]) -> Vec<(Sym, Value)> {
    raw.iter().map(|&(n, v)| (sym(n), Value::Int(v))).collect()
}

fn model_of(raw: &[(u32, i64)]) -> Model {
    // Later bindings win, as in `Tuple::from_pairs`.
    pairs(raw)
        .into_iter()
        .map(|(s, v)| (s.as_str().to_string(), v))
        .collect()
}

fn as_model(t: &Tuple) -> Model {
    t.iter()
        .map(|(s, v)| (s.as_str().to_string(), v.clone()))
        .collect()
}

/// The representation invariant every operation must keep: attributes
/// strictly ascending by name.
fn canonical(t: &Tuple) -> bool {
    let attrs = t.attrs();
    attrs.windows(2).all(|w| w[0].as_str() < w[1].as_str())
}

fn hash_of(t: &Tuple) -> u64 {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    h.finish()
}

/// One layer of a scope, innermost last: a tuple, or a quantifier's
/// variable bound to a value.
#[derive(Clone, Debug)]
enum Layer {
    Row(Tuple),
    Bind(Sym, Value),
}

/// A layer drawn as `(is a binding, row fields, variable, value)`.
type RawLayer = (u32, Vec<(u32, i64)>, u32, i64);

fn layer_of((bind, row, var, v): &RawLayer) -> Layer {
    match bind {
        0 => Layer::Row(Tuple::from_pairs(pairs(row))),
        _ => Layer::Bind(sym(*var), Value::Int(*v)),
    }
}

/// Call `f` with the scope `layers` build over `outer`, outermost first.
fn with_scope(layers: &[Layer], outer: &Scope<'_>, f: &mut dyn FnMut(&Scope<'_>)) {
    match layers.split_first() {
        None => f(outer),
        Some((Layer::Row(t), inner)) => with_scope(inner, &Scope::Row(t, outer), f),
        Some((Layer::Bind(a, v), inner)) => with_scope(inner, &Scope::Bind(*a, v, outer), f),
    }
}

/// What the reference evaluator builds for the same bindings: every
/// tuple concatenated onto its scope, every variable extended onto it.
fn concatenated(layers: &[Layer]) -> Tuple {
    layers
        .iter()
        .fold(Tuple::empty(), |env, layer| match layer {
            Layer::Row(t) => env.concat(t),
            Layer::Bind(a, v) => env.extend(*a, v.clone()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn from_pairs_and_lookup_match_the_model(
        raw in prop::collection::vec((0u32..7, 0i64..50), 0..10),
    ) {
        let t = Tuple::from_pairs(pairs(&raw));
        let m = model_of(&raw);
        prop_assert!(canonical(&t));
        prop_assert_eq!(as_model(&t), m.clone());
        prop_assert_eq!(t.arity(), m.len());
        prop_assert_eq!(t.is_empty(), m.is_empty());
        for n in 0..NAMES.len() as u32 {
            prop_assert_eq!(t.get(sym(n)), m.get(NAMES[n as usize]));
        }
        let values: Vec<&Value> = t.values().collect();
        prop_assert_eq!(values, m.values().collect::<Vec<_>>());
    }

    #[test]
    fn canonical_form_ignores_construction_order(
        raw in prop::collection::vec((0u32..7, 0i64..50), 0..8),
        rotate in 0usize..8,
    ) {
        // Distinct attributes only, so every order binds the same map.
        let m = model_of(&raw);
        let distinct: Vec<(Sym, Value)> =
            m.iter().map(|(n, v)| (Sym::new(n), v.clone())).collect();
        let sorted = Tuple::from_pairs(distinct.clone());
        let mut shuffled = distinct.clone();
        shuffled.reverse();
        if !shuffled.is_empty() {
            let k = rotate % shuffled.len();
            shuffled.rotate_left(k);
        }
        let other = Tuple::from_pairs(shuffled);
        // …and built one binding at a time, and by concatenating halves.
        let grown = distinct
            .iter()
            .rev()
            .fold(Tuple::empty(), |t, (s, v)| t.extend(*s, v.clone()));
        let (lo, hi) = distinct.split_at(distinct.len() / 2);
        let glued = Tuple::from_pairs(hi.to_vec()).concat(&Tuple::from_pairs(lo.to_vec()));
        for t in [&other, &grown, &glued] {
            prop_assert_eq!(t, &sorted);
            prop_assert_eq!(hash_of(t), hash_of(&sorted));
            prop_assert_eq!(t.to_string(), sorted.to_string());
        }
    }

    #[test]
    fn concat_lets_the_right_operand_shadow(
        l in prop::collection::vec((0u32..7, 0i64..50), 0..8),
        r in prop::collection::vec((0u32..7, 50i64..99), 0..8),
    ) {
        let t = Tuple::from_pairs(pairs(&l)).concat(&Tuple::from_pairs(pairs(&r)));
        let mut m = model_of(&l);
        m.extend(model_of(&r));
        prop_assert!(canonical(&t));
        prop_assert_eq!(as_model(&t), m);
    }

    #[test]
    fn extend_binds_or_overwrites(
        raw in prop::collection::vec((0u32..7, 0i64..50), 0..8),
        a in 0u32..7,
    ) {
        let t = Tuple::from_pairs(pairs(&raw)).extend(sym(a), Value::Int(-1));
        let mut m = model_of(&raw);
        m.insert(sym(a).as_str().to_string(), Value::Int(-1));
        prop_assert!(canonical(&t));
        prop_assert_eq!(as_model(&t), m);
    }

    #[test]
    fn project_and_without_partition_the_tuple(
        raw in prop::collection::vec((0u32..7, 0i64..50), 0..8),
        picks in prop::collection::vec(0u32..7, 0..6),
    ) {
        // `picks` may repeat attributes and name absent ones.
        let t = Tuple::from_pairs(pairs(&raw));
        let attrs: Vec<Sym> = picks.iter().map(|&p| sym(p)).collect();
        let picked = |name: &String| attrs.iter().any(|a| a.as_str() == name);
        let m = model_of(&raw);
        let kept: Model = m.clone().into_iter().filter(|(n, _)| picked(n)).collect();
        let dropped: Model = m.into_iter().filter(|(n, _)| !picked(n)).collect();
        let (p, w) = (t.project(&attrs), t.without(&attrs));
        prop_assert!(canonical(&p) && canonical(&w));
        prop_assert_eq!(as_model(&p), kept);
        prop_assert_eq!(as_model(&w), dropped);
        prop_assert_eq!(p.concat(&w), t);
    }

    #[test]
    fn rename_moves_bindings_later_ones_winning(
        raw in prop::collection::vec((0u32..7, 0i64..50), 0..8),
        renames in prop::collection::vec((0u32..7, 0u32..7), 0..4),
    ) {
        let t = Tuple::from_pairs(pairs(&raw));
        let by: Vec<(Sym, Sym)> = renames.iter().map(|&(n, o)| (sym(n), sym(o))).collect();
        // Model: visit the fields in attribute order, move each to its
        // new name (the first pair naming it as `old`), later writes win.
        let mut m = Model::new();
        for (name, v) in model_of(&raw) {
            let new = by
                .iter()
                .find(|(_, old)| old.as_str() == name)
                .map_or(name.clone(), |(new, _)| new.as_str().to_string());
            m.insert(new, v);
        }
        let r = t.rename(&by);
        prop_assert!(canonical(&r));
        prop_assert_eq!(as_model(&r), m);
    }

    #[test]
    fn scope_lookups_are_lookups_in_the_concatenation(
        raw in prop::collection::vec(
            (0u32..2, prop::collection::vec((0u32..7, 0i64..50), 0..6), 0u32..7, 50i64..99),
            0..5,
        ),
    ) {
        let layers: Vec<Layer> = raw.iter().map(layer_of).collect();
        let env = concatenated(&layers);
        let catalog = xmldb::Catalog::new();
        with_scope(&layers, &Scope::Empty, &mut |scope| {
            for n in 0..NAMES.len() as u32 {
                assert_eq!(scope.get(sym(n)), env.get(sym(n)), "{}", NAMES[n as usize]);
            }
            assert_eq!(scope.flatten(), env);
            assert_eq!(scope.to_string(), env.to_string());
            // An unbound attribute errs with the environment the
            // reference printed: byte for byte.
            let missing = Scalar::attr("unbound");
            let mut ctx = EvalCtx::new(&catalog);
            let err = eval_scalar(&missing, scope, &Reference, &mut ctx).unwrap_err();
            assert_eq!(err.message, format!("unbound attribute `unbound` (env {env})"));
            let flat = eval_scalar(&missing, &Scope::of(&env), &Reference, &mut ctx).unwrap_err();
            assert_eq!(err, flat);
        });
    }

    #[test]
    fn bottom_and_map_values(
        picks in prop::collection::vec(0u32..7, 0..8),
    ) {
        let attrs: Vec<Sym> = picks.iter().map(|&p| sym(p)).collect();
        let b = Tuple::bottom(&attrs);
        let m: Model = attrs
            .iter()
            .map(|a| (a.as_str().to_string(), Value::Null))
            .collect();
        prop_assert!(canonical(&b));
        prop_assert_eq!(as_model(&b), m.clone());
        let ones = b.map_values(|_| Value::Int(1));
        prop_assert_eq!(ones.attrs(), b.attrs());
        prop_assert!(ones.values().all(|v| *v == Value::Int(1)));
    }
}
