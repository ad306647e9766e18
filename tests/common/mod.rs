//! Helpers shared by the integration-test binaries.

use serde_json::Value;

fn field<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
    match v {
        Value::Obj(fields) => {
            &mut fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no field `{key}`"))
                .1
        }
        other => panic!("expected an object, found {}", other.kind()),
    }
}

fn array(v: &mut Value) -> &mut Vec<Value> {
    match v {
        Value::Arr(items) => items,
        other => panic!("expected an array, found {}", other.kind()),
    }
}

fn first_support(plan: &mut Value) -> &mut Vec<Value> {
    array(field(&mut array(field(plan, "features"))[0], "support"))
}

/// Mutated copies of a scalar plan artifact, each with one structural
/// defect that loading must reject with an error, not a panic: a
/// truncated support, a dropped `(u, k)` stratum, and a reversed
/// (unsorted) support.
pub fn malformed_scalar_plans(json: &str) -> Vec<(&'static str, String)> {
    let plan: Value = serde_json::from_str(json).unwrap();
    let mutate = |f: &dyn Fn(&mut Value)| {
        let mut v = plan.clone();
        f(&mut v);
        serde_json::to_string(&v).unwrap()
    };
    vec![
        (
            "truncated support",
            mutate(&|v| {
                first_support(v).pop();
            }),
        ),
        (
            "dropped stratum",
            mutate(&|v| {
                array(field(v, "features")).remove(1);
            }),
        ),
        ("reversed support", mutate(&|v| first_support(v).reverse())),
    ]
}
